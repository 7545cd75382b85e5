"""Benchmark regenerating paper Fig. 11 (recall rate of important tokens)."""

from conftest import FULL_SIZE

from repro.experiments import (
    Fig11Config,
    format_fig11,
    run_fig11_ablation,
    run_fig11_methods,
)


def _config(bench_scale):
    return Fig11Config(
        scale=bench_scale,
        paper_budgets=(256, 512, 1024, 2048),
        decode_steps=12 if FULL_SIZE else 8,
        ablation_cluster_counts=(200, 400, 800),
    )


def test_bench_fig11a_methods(bench_scale):
    """Recall rate of ClusterKV vs. Quest vs. InfiniGen across budgets."""
    result = run_fig11_methods(_config(bench_scale))
    print()
    print(format_fig11(result, "[Fig. 11a] recall rate by method"))

    clusterkv = result.curves["clusterkv"]
    quest = result.curves["quest"]
    budgets = sorted(clusterkv)
    # ClusterKV recalls more important tokens than Quest at the larger budgets
    # and its recall grows with the budget (paper Fig. 11a).
    assert clusterkv[budgets[-1]] >= quest[budgets[-1]]
    assert clusterkv[budgets[-1]] > clusterkv[budgets[0]] - 0.02


def test_bench_fig11b_ablation(bench_scale):
    """Ablation of the clustering distance metric and the cluster count C0."""
    result = run_fig11_ablation(_config(bench_scale))
    print()
    print(format_fig11(result, "[Fig. 11b] ClusterKV ablation"))

    budgets = sorted(result.curves["metric=cosine"])
    largest = budgets[-1]
    cosine = result.curves["metric=cosine"][largest]
    l2 = result.curves["metric=l2"][largest]
    ip = result.curves["metric=ip"][largest]
    # Cosine clustering is the paper's choice; it should not lose to both
    # alternatives at the largest budget.
    assert cosine >= min(l2, ip) - 0.05
    assert all(series in result.curves for series in ("C0=200", "C0=400", "C0=800"))
