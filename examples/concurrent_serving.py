"""Concurrent serving: many requests, one model, continuous batching.

The example submits a burst of generation requests with mixed prompt and
output lengths to the :class:`repro.serving.BatchedEngine`, serves them
under a tight global KV-memory budget with ClusterKV compression, and
prints the scheduling timeline (admission/finish steps, queue delays, batch
occupancy) plus the shared memory-tier accounting.  It then re-serves the
same requests one at a time to show the throughput gain and that every
request's output is unchanged by batching.

Run with:  python examples/concurrent_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BatchedEngine,
    ClusterKVConfig,
    ClusterKVSelector,
    GenerationConfig,
    InferenceEngine,
    SchedulerConfig,
    TransformerModel,
    get_model_config,
)

NUM_REQUESTS = 12
MAX_BATCH = 4
BUDGET = 48


def main() -> None:
    # 1. One model, one compression method, shared by all requests.
    model = TransformerModel(get_model_config("serve-sim"))
    generation_config = GenerationConfig(
        budget=BUDGET, max_new_tokens=32, num_full_layers=1, num_sink_tokens=8
    )

    def clusterkv() -> ClusterKVSelector:
        return ClusterKVSelector(
            ClusterKVConfig(
                tokens_per_cluster=32, decode_window=32, decode_clusters=2,
                num_sink_tokens=8,
            )
        )

    # 2. A burst of requests with mixed prompt/output lengths.  The KV
    #    budget of ~3 full-size requests is tighter than the 4 batch slots,
    #    so admission is gated by memory: later requests wait until earlier
    #    ones retire and release their KV buffers.
    rng = np.random.default_rng(0)
    prompts = [
        rng.integers(4, model.config.vocab_size, size=int(length)).astype(np.int64)
        for length in rng.integers(48, 128, size=NUM_REQUESTS)
    ]
    kv_per_token = model.config.kv_bytes_per_token()
    kv_budget = 3 * (128 + 32) * kv_per_token

    engine = BatchedEngine(
        model,
        clusterkv(),
        generation_config,
        SchedulerConfig(
            max_batch_size=MAX_BATCH, max_prefills_per_step=2,
            kv_budget_bytes=kv_budget,
        ),
    )
    for prompt in prompts:
        engine.submit(prompt)

    start = time.perf_counter()
    report = engine.run()
    batched_seconds = time.perf_counter() - start

    print(f"served {len(report.completed)} requests in {report.engine_steps} engine steps")
    print(f"mean batch occupancy : {report.mean_batch_occupancy:.2f} / {MAX_BATCH}")
    print(f"peak CPU-tier KV     : {report.peak_cpu_bytes / 1024:.1f} KiB "
          f"(budget {kv_budget / 1024:.1f} KiB)")
    print(f"bytes moved over PCIe: {report.ledger.total_bytes() / 1024:.1f} KiB")
    print()
    print("request  prompt  tokens  admitted  finished  queue-delay")
    for completed in report.completed:
        print(f"{completed.request.request_id:8s} "
              f"{completed.result.prompt_length:6d} "
              f"{len(completed.result.output_ids):7d} "
              f"{completed.admitted_at_step:9d} "
              f"{completed.finished_at_step:9d} "
              f"{completed.queue_delay_steps:12d}")

    # 3. Serve the same requests sequentially: same outputs, lower throughput.
    start = time.perf_counter()
    sequential = [
        InferenceEngine(model, clusterkv(), generation_config).generate(prompt)
        for prompt in prompts
    ]
    sequential_seconds = time.perf_counter() - start

    matches = sum(
        result.output_ids == report.results()[f"req-{index}"].output_ids
        for index, result in enumerate(sequential)
    )
    total_tokens = report.total_generated_tokens
    print()
    print(f"outputs identical to sequential runs: {matches}/{NUM_REQUESTS}")
    print(f"sequential throughput: {total_tokens / sequential_seconds:7.1f} tok/s")
    print(f"batched throughput   : {total_tokens / batched_seconds:7.1f} tok/s "
          f"({sequential_seconds / batched_seconds:.2f}x)")
    if matches != NUM_REQUESTS:
        raise SystemExit(f"{NUM_REQUESTS - matches} request(s) differ from their sequential run")


if __name__ == "__main__":
    main()
