"""Elastic cluster serving walkthrough: autoscaling, admission, failures.

Serves one seeded bursty workload four ways on the virtual perfmodel
clock and compares the outcomes:

1. a static minimum fleet (the baseline the autoscaler must beat);
2. the same fleet under the ``slo_attainment`` autoscaler, which boots
   replicas (paying the perfmodel's warm-up cost) while the completion
   window misses the SLO;
3. the static fleet with ``queue_deadline`` admission control, which
   rejects requests early instead of letting them blow p99;
4. the elastic fleet with a replica kill injected mid-run — the lost
   requests are re-dispatched from their prompts and reproduce their
   failure-free outputs exactly.

Run with::

    PYTHONPATH=src python examples/elastic_cluster.py
"""

from dataclasses import replace

from repro.cluster import (
    ClusterBenchConfig,
    ClusterSimulator,
    FailureEvent,
    FailurePlan,
    format_cluster_report,
    run_cluster_bench,
)
from repro.traffic.bench import WorkloadSpec, build_bench_requests


def main() -> None:
    """Compare static, autoscaled, admission-gated and failure-injected runs."""
    # A bursty workload over the bench's default elastic fleet: one to four
    # serving-tuned replicas scaled by the slo_attainment autoscaler.
    base = ClusterBenchConfig(
        workload=WorkloadSpec(
            rate=0.8, arrivals="onoff", burstiness=4.0, num_requests=18, seed=1
        )
    )

    def with_fleet(**knobs) -> ClusterBenchConfig:
        return replace(base, fleet=replace(base.fleet, **knobs))

    static = run_cluster_bench(with_fleet(autoscaler="static", max_replicas=1))
    elastic = run_cluster_bench(base)
    admitted = run_cluster_bench(
        with_fleet(
            autoscaler="static",
            max_replicas=1,
            admission="queue_deadline:deadline_s=2.5,service_tokens_per_s=60",
        )
    )

    print("=== static minimum fleet (1 replica) ===")
    print(format_cluster_report(static))
    print()
    print("=== elastic fleet (slo_attainment autoscaler, up to 4 replicas) ===")
    print(format_cluster_report(elastic))
    print()
    print("=== static fleet + queue_deadline admission control ===")
    print(format_cluster_report(admitted))
    print()
    ratio = elastic.goodput_tokens_per_s / max(static.goodput_tokens_per_s, 1e-9)
    print(
        f"autoscaling goodput gain: {ratio:.2f}x "
        f"({static.goodput_tokens_per_s:.1f} -> "
        f"{elastic.goodput_tokens_per_s:.1f} tok/s)"
    )
    print(
        f"admission control: {admitted.num_rejected} rejected, p99 TTFT "
        f"{admitted.latency_summary()['ttft_s']['p99']:.2f}s vs "
        f"{static.latency_summary()['ttft_s']['p99']:.2f}s unprotected"
    )

    # Failure injection: kill a replica mid-run; outputs do not change.
    requests = build_bench_requests(base)
    plan = FailurePlan(events=(FailureEvent(time_s=10.0, slot=0),))
    clean_sim = ClusterSimulator(base.fleet)
    clean_sim.run(requests)
    failed_sim = ClusterSimulator(with_fleet(failures=plan).fleet)
    failed_report = failed_sim.run(requests)

    clean_tokens = {
        rid: list(c.result.output_ids) for rid, c in clean_sim.completed.items()
    }
    failed_tokens = {
        rid: list(c.result.output_ids) for rid, c in failed_sim.completed.items()
    }
    print()
    print("=== failure injection (kill one replica at t=10s) ===")
    for event in failed_report.failures:
        print(
            f"killed replica {event['replica']} at t={event['time_s']:.1f}s, "
            f"lost {event['lost_tokens']} decoded tokens, "
            f"retried {len(event['retried'])} request(s)"
        )
    print(
        "token sequences identical to the failure-free run:",
        clean_tokens == failed_tokens,
    )


if __name__ == "__main__":
    main()
