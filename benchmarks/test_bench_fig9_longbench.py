"""Benchmark regenerating paper Fig. 9 (LongBench scores per task and budget)."""

from conftest import check_format_golden

from repro.experiments.fig9_longbench import format_fig9


def test_bench_fig9_longbench(fig9_result):
    """Scores of Full/ClusterKV/Quest/InfiniGen on the eight task analogues."""
    print()
    text = format_fig9(fig9_result)
    print(text)
    check_format_golden("fig9", text)

    table = fig9_result.table
    budgets = table.budgets()
    # Shape checks: the full KV cache is an upper bound on average, and
    # ClusterKV improves (weakly) with larger budgets on average.
    full_avg = table.average_by_budget("full")
    clusterkv_avg = table.average_by_budget("clusterkv")
    quest_avg = table.average_by_budget("quest")
    assert full_avg[budgets[-1]] >= clusterkv_avg[budgets[-1]] - 0.1
    assert clusterkv_avg[budgets[-1]] >= clusterkv_avg[budgets[0]] - 0.1
    # At the tightest budget ClusterKV must beat Quest (the paper's headline).
    assert clusterkv_avg[budgets[0]] >= quest_avg[budgets[0]] - 0.05
