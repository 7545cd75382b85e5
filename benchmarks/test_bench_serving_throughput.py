"""Serving throughput benchmark: what continuous batching amortises.

Serves eight requests through one :class:`repro.serving.BatchedEngine`
for the paper's method (ClusterKV) and two baselines, and compares its
engine steps with what serving them one at a time would take.

The acceptance bar is asserted on *step counts*, not wall time: one
engine step executes the per-token transformer matmuls once for the
whole batch, while eight sequential runs take one per-token pass per
generated token, ``num_requests * max_new_tokens`` of them.  Batch 8
must amortise more than 1.5x of those passes.  That batched and
sequential serving produce the same tokens is
``tests/test_serving.py``'s to check; the recorded wall-clock
throughput of this regime is ``chat_mixed`` ``tok_s`` in
``bench/run.py``.

A second benchmark sweeps the batch size to show throughput scaling,
again asserted on the deterministic tokens per engine step.
"""

from dataclasses import replace

import numpy as np

from repro.execbackend import build_engine
from repro.serving.bench import serving_engine_spec, serving_policy_spec

METHODS = ("clusterkv", "streaming_llm", "full")
NUM_REQUESTS = 8
PROMPT_LEN = 64


def serve(spec, method: str, num_requests: int):
    """Serve ``num_requests`` seed-0 prompts through one batched engine."""
    spec = replace(
        spec,
        policy=serving_policy_spec(method, spec.num_sink_tokens),
        budget=None if method == "full" else spec.budget,  # full has none to honour
    )
    model = spec.build_model()
    rng = np.random.default_rng(0)
    engine = build_engine(model, spec)
    for _ in range(num_requests):
        engine.submit(rng.integers(4, model.config.vocab_size, size=PROMPT_LEN))
    return engine.run()


def test_bench_serving_throughput_batch8():
    """Batch-8 continuous batching amortises >1.5x the engine steps."""
    spec = serving_engine_spec(max_new_tokens=96, max_prefills_per_step=8)
    sequential_steps = NUM_REQUESTS * spec.max_new_tokens
    print()
    for method in METHODS:
        report = serve(spec, method, NUM_REQUESTS)
        print(
            f"[serving] {method:14s} {report.engine_steps} engine steps vs. "
            f"{sequential_steps} sequential passes "
            f"({sequential_steps / report.engine_steps:.2f}x), "
            f"occupancy {report.mean_batch_occupancy:.1f}"
        )
        # All requests fit one batch, so occupancy should be nearly full.
        assert report.mean_batch_occupancy > spec.max_batch_size * 0.9
        assert report.total_generated_tokens == sequential_steps
        assert sequential_steps > 1.5 * report.engine_steps, (
            f"{method}: batching only amortised "
            f"{sequential_steps / report.engine_steps:.2f}x steps"
        )


def test_bench_serving_batch_size_scaling():
    """Tokens per engine step grow with batch size (1 -> 4 -> 8)."""
    per_step = {}
    for batch in (1, 4, 8):
        spec = serving_engine_spec(
            max_batch_size=batch, max_prefills_per_step=batch, max_new_tokens=48
        )
        report = serve(spec, "clusterkv", batch)
        per_step[batch] = report.total_generated_tokens / report.engine_steps
    print()
    for batch, tokens_per_step in per_step.items():
        print(f"[serving-scaling] batch {batch}: {tokens_per_step:.2f} tok/step")
    assert per_step[8] > per_step[4] > per_step[1]
