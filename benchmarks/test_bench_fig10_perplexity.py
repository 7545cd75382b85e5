"""Benchmark regenerating paper Fig. 10 (language-modelling perplexity)."""

from repro.experiments import Fig10Config, format_fig10, run_fig10


def test_bench_fig10_perplexity(bench_scale, bench_samples):
    """Perplexity of each method on the PG19 analogue under a fixed budget."""
    config = Fig10Config(
        scale=bench_scale,
        num_samples=bench_samples,
        paper_lengths=(8000, 16000, 32000),
        scored_tokens=32,
    )
    result = run_fig10(config)
    print()
    print(format_fig10(result))

    # Shape check from the paper: ClusterKV tracks the full-KV perplexity more
    # closely than Quest does.
    clusterkv_dev = result.deviation_from_full("clusterkv")
    quest_dev = result.deviation_from_full("quest")
    assert clusterkv_dev <= quest_dev + 0.5
    assert clusterkv_dev >= -1.0  # compression should not beat full KV by much
