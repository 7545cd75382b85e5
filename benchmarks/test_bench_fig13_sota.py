"""Benchmark regenerating paper Fig. 13 (comparison with Quest and InfiniGen)."""

from repro.experiments import EXPERIMENTS, Fig13Config
from repro.experiments.fig13_sota import run_fig13_quest


def test_bench_fig13a_vs_infinigen():
    """ClusterKV vs. InfiniGen on an OPT-6.7B-class model (paper: ~2.3x)."""
    fig13 = EXPERIMENTS.build("fig13")
    result, quest_result = fig13.run(Fig13Config())
    print()
    print(fig13.format((result, quest_result)))
    assert result.mean_speedup("infinigen") > 1.8


def test_bench_fig13b_vs_quest():
    """ClusterKV vs. Quest on a Llama-3.1-8B-class model (paper: within ~5%)."""
    result = run_fig13_quest(Fig13Config())
    assert result.max_deviation("quest") < 0.08
