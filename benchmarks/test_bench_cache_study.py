"""Benchmark regenerating the paper's Sec. V-C caching study."""

from repro.experiments import CacheStudyConfig, format_cache_study, run_cache_study


def test_bench_cache_study(bench_scale):
    """Cluster-cache hit rates for R=1/R=2 and the resulting throughput gain."""
    config = CacheStudyConfig(scale=bench_scale, decode_steps=16)
    result = run_cache_study(config)
    print()
    print(format_cache_study(result))

    # Qualitative claims: a longer cache history hits at least as often, and
    # caching improves decoding throughput substantially over direct loading.
    assert result.hit_rates[2] >= result.hit_rates[1] - 1e-9
    assert result.throughput_gain_paper_hit[1] > 1.5
