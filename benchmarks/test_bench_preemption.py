"""Preemption/migration benchmark: SLO-class scheduling beats FIFO.

Two headline differentials of the :mod:`repro.seqstate` layer, both on
the virtual perfmodel clock (pure arithmetic — byte-reproducible):

* on a mixed interactive/batch workload, checkpoint-preemption plus
  class-aware routing cuts the *interactive* p99 TTFT strictly below the
  FIFO baseline while completing exactly the same batch-class tokens —
  preempted batch work is parked state, never lost work;
* after a replica failure, resuming from periodic checkpoints loses
  strictly fewer decoded tokens than drain-and-retry from the prompt.
"""

from dataclasses import replace

import numpy as np

from repro.api import EngineSpec
from repro.cluster import ClusterBenchConfig, FailureEvent, FailurePlan, run_cluster_bench
from repro.traffic import (
    SLOSpec,
    TrafficConfig,
    TrafficRequest,
    WorkloadSpec,
    format_traffic_report,
    simulate,
)


def _mixed_class_trace(vocab_size: int = 2048) -> list[TrafficRequest]:
    """A long batch-class filler plus a paced interactive stream.

    The batch request occupies the lone replica for hundreds of decode
    steps; each interactive arrival then faces the choice the benchmark
    measures: wait out the residual batch decode (FIFO) or checkpoint the
    batch work out of the way (preemption).
    """
    rng = np.random.default_rng(13)
    requests = [
        TrafficRequest(
            request_id="filler",
            arrival_time_s=0.0,
            prompt_ids=rng.integers(4, vocab_size, size=48).astype(np.int64),
            max_new_tokens=300,
            slo_class="batch",
        )
    ]
    for index in range(8):
        requests.append(
            TrafficRequest(
                request_id=f"chat{index}",
                arrival_time_s=2.0 + 1.5 * index,
                prompt_ids=rng.integers(4, vocab_size, size=48).astype(np.int64),
                max_new_tokens=24,
                slo_class="interactive",
            )
        )
    return requests


def _class_config(preemption: bool) -> TrafficConfig:
    # One replica of batch capacity 1 makes the contention real: without
    # preemption an interactive request waits out the filler's residual
    # decode; with it the filler is checkpointed aside and resumed after.
    return TrafficConfig(
        engine=EngineSpec(
            max_batch_size=1, max_prefills_per_step=1, preemption=preemption
        ),
        num_replicas=1,
        router="slo_aware",
        slo=SLOSpec(ttft_s=2.5, tpot_s=None),
    )


def test_bench_preemption_cuts_interactive_p99():
    """Preemption: interactive p99 TTFT strictly lower, batch tokens equal."""

    def compare():
        return {
            "fifo": simulate(_mixed_class_trace(), _class_config(preemption=False)),
            "preempt": simulate(_mixed_class_trace(), _class_config(preemption=True)),
        }

    results = compare()
    print()
    for name, report in results.items():
        print(f"--- {name}")
        print(format_traffic_report(report))
    fifo = results["fifo"].class_summary()
    preempt = results["preempt"].class_summary()
    assert results["preempt"].num_preemptions > 0
    # The headline: the interactive tail collapses...
    assert preempt["interactive"]["ttft_s"]["p99"] < fifo["interactive"]["ttft_s"]["p99"]
    assert (
        preempt["interactive"]["slo_attainment"] >= fifo["interactive"]["slo_attainment"]
    )
    # ...at equal batch-class output — preempted work is parked, not lost.
    assert preempt["batch"]["output_tokens"] == fifo["batch"]["output_tokens"]
    assert preempt["batch"]["num_requests"] == fifo["batch"]["num_requests"]
    # Byte-reproducible: the preemption run is seeded arithmetic.
    repeat = simulate(_mixed_class_trace(), _class_config(preemption=True))
    assert repeat.to_json() == results["preempt"].to_json()


def test_bench_checkpoint_recovery_beats_retry():
    """Periodic checkpoints lose strictly fewer tokens than retries."""
    def bench(checkpoint_interval_s):
        fleet = replace(
            ClusterBenchConfig().fleet,
            min_replicas=2,
            max_replicas=2,
            autoscaler="static",
            failures=FailurePlan(events=(FailureEvent(time_s=6.0, slot=0),)),
            checkpoint_interval_s=checkpoint_interval_s,
        )
        return ClusterBenchConfig(
            workload=WorkloadSpec(num_requests=10, rate=4.0), fleet=fleet
        )

    def compare():
        return {
            "retry": run_cluster_bench(bench(None)),
            "recover": run_cluster_bench(bench(2.0)),
        }

    results = compare()
    print()
    for name, report in results.items():
        print(f"--- {name}")
        print(
            f"{name}: retries={report.num_retries} "
            f"recoveries={report.num_recoveries} lost_tokens={report.lost_tokens}"
        )
    retry, recover = results["retry"], results["recover"]
    assert retry.num_retries > 0
    assert recover.num_recoveries > 0
    assert recover.lost_tokens < retry.lost_tokens
    # Both runs complete the full workload; the checkpointed run never
    # pays a second prefill for recovered requests, so its recovered tail
    # is no slower than the retry run's.
    assert recover.num_requests == retry.num_requests
    summary_retry = retry.latency_summary()
    summary_recover = recover.latency_summary()
    assert summary_recover["e2e_s"]["p99"] <= summary_retry["e2e_s"]["p99"]
