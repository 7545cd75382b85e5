"""Benchmark regenerating paper Fig. 12 (latency vs. full KV cache)."""

from repro.experiments import Fig12Config, format_fig12, run_fig12


def test_bench_fig12_latency():
    """ClusterKV vs. full KV latency over the paper's P/D/budget grid."""
    result = run_fig12(Fig12Config())
    print()
    print(format_fig12(result))

    # Shape checks from the paper: speedup grows with the prompt length and
    # reaches well above 1.4x at 32k; prefill clustering overhead is small.
    assert result.speedup(32768, 1024, 1024) > result.speedup(8192, 1024, 1024)
    assert result.speedup(32768, 1024, 1024) > 1.4
    assert result.throughput_ratio(32768, 1024, 1024) > 1.7
    assert result.prefill_overhead_fraction(32768, 1024, 1024) < 0.10
