"""Benchmark for the ClusterKV design-choice ablation (DESIGN.md §5)."""

from repro.experiments import EXPERIMENTS, DesignAblationConfig


def test_bench_ablation_design(bench_scale):
    """Score/recall/hit-rate of ClusterKV variants (sinks, trimming, cache, C0)."""
    config = DesignAblationConfig(scale=bench_scale, num_samples=2, decode_steps=10)
    ablation = EXPERIMENTS.build("design-ablation")
    result = ablation.run(config)
    print()
    print(ablation.format(result))

    assert "default" in result.variants
    # The cache depth must not affect accuracy (it only affects transfers).
    assert abs(result.score_of("cache R=2") - result.score_of("no-cache (R=0)")) < 0.35
    # All variants produce valid metric values.
    for variant in result.variants.values():
        assert 0.0 <= variant.score <= 1.0
        assert 0.0 <= variant.recall <= 1.0
        assert 0.0 <= variant.cache_hit_rate <= 1.0
