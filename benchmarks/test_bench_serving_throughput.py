"""Serving throughput benchmark: tokens/sec vs. batch size.

Measures the continuous-batching :class:`repro.serving.BatchedEngine`
against one-at-a-time serving of the same requests through the
single-sequence engine, for the paper's method (ClusterKV) and two
baselines.

The acceptance bar is asserted on *step counts*, not wall time: one
engine step executes the per-token transformer matmuls once for the
whole batch, so sequential-over-batched engine steps is the deterministic
measure of what continuous batching amortises (>1.5x at batch 8 over
eight sequential runs).  The tokens/s that ``run_serve_bench`` reports
are printed and only sanity-checked for positivity; the recorded
throughput of this regime is ``chat_mixed`` ``tok_s`` in ``bench/run.py``.

A second benchmark sweeps the batch size to show throughput scaling,
again asserted on the deterministic tokens-per-engine-step.
"""

from repro.serving import ServeBenchConfig, format_serve_bench, run_serve_bench
from repro.serving.bench import serving_engine_spec


def test_bench_serving_throughput_batch8():
    """Batch-8 continuous batching amortises >1.5x the engine steps."""
    config = ServeBenchConfig(repeats=1)
    results = run_serve_bench(config)
    print()
    print(format_serve_bench(results))
    assert {item.method for item in results} == {"clusterkv", "streaming_llm", "full"}
    for item in results:
        # All requests fit one batch, so occupancy should be nearly full.
        assert item.mean_occupancy > config.engine.max_batch_size * 0.9
        assert item.total_tokens == config.num_requests * config.engine.max_new_tokens
        # Deterministic step accounting: 8 sequential runs take
        # num_requests * max_new_tokens per-token passes, the batch takes
        # ~max_new_tokens engine steps.
        assert item.sequential_engine_steps == (
            config.num_requests * config.engine.max_new_tokens
        )
        assert item.step_speedup > 1.5, (
            f"{item.method}: batching only amortised {item.step_speedup:.2f}x steps"
        )
        # Wall-clock numbers are host-dependent; just require they exist.
        assert item.sequential_tokens_per_second > 0
        assert item.batched_tokens_per_second > 0


def test_bench_serving_batch_size_scaling():
    """Tokens per engine step grow with batch size (1 -> 4 -> 8)."""

    def sweep():
        per_step = {}
        for batch in (1, 4, 8):
            config = ServeBenchConfig(
                engine=serving_engine_spec(max_batch_size=batch, max_new_tokens=48),
                methods=("clusterkv",),
                num_requests=batch,
                repeats=1,
            )
            item = run_serve_bench(config)[0]
            per_step[batch] = (
                item.tokens_per_batched_step,
                item.batched_tokens_per_second,
            )
        return per_step

    per_step = sweep()
    print()
    for batch, (tokens_per_step, tps) in per_step.items():
        print(
            f"[serving-scaling] batch {batch}: "
            f"{tokens_per_step:.2f} tok/step, {tps:.1f} tok/s"
        )
    assert per_step[8][0] > per_step[4][0] > per_step[1][0]
