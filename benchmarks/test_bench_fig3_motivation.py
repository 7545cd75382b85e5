"""Benchmark regenerating paper Fig. 3 (motivation analyses)."""

from repro.experiments import Fig3Config, format_fig3, run_fig3


def test_bench_fig3_motivation(bench_scale):
    """Token-importance fluctuation (3a) and page fragmentation (3b)."""
    config = Fig3Config(scale=bench_scale, decode_steps=24)
    result = run_fig3(config)
    print()
    print(format_fig3(result))

    # Fig. 3a: importance rankings fluctuate across decoding steps.
    assert result.mean_rank_variation > 0
    # Fig. 3b: pages of 16 tokens hold only a few important tokens each, so
    # page-granularity recall loads many useless tokens per useful one.
    assert result.fragmentation.important_per_occupied_page < 8.0
    assert result.fragmentation.waste_factor > 2.0
