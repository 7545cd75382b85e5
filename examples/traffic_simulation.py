"""Traffic simulation: bursty arrivals, two replicas, SLO metrics.

The example builds a bursty open-loop workload that mixes ClusterKV and
full-KV requests, routes it across two serving replicas with
join-shortest-queue, and simulates it on the virtual perfmodel clock —
every engine step is priced on the analytical latency model at the
paper's true scale, so the numbers below are machine-independent and
bit-reproducible for a given seed.  It prints the TrafficReport table
(TTFT/TPOT/queue-wait/E2E percentiles, goodput under the SLO deadlines),
then demonstrates what queue-aware routing buys on a skewed workload
(one long-running request plus a light stream, served by capacity-1
replicas where queues are real), and finally saves/replays the workload
as a JSONL trace.

Run with:  python examples/traffic_simulation.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import EngineSpec, ServeRequest, SLOSpec, TrafficConfig, simulate
from repro.traffic import (
    OnOffArrivals,
    RequestShape,
    format_traffic_report,
    generate_traffic,
    load_trace,
    save_trace,
)

NUM_REQUESTS = 16
SEED = 0


def build_workload():
    """Bursty on/off arrivals over a 50/50 clusterkv / full-KV shape mix."""
    arrivals = OnOffArrivals(rate=0.5, burstiness=6.0, mean_burst=4.0)
    times = arrivals.times(NUM_REQUESTS, seed=SEED)
    shapes = [
        RequestShape(
            prompt_len_range=(48, 96),
            max_new_tokens=96,
            policy="clusterkv:tokens_per_cluster=32,decode_window=32,"
            "decode_clusters=2,num_sink_tokens=8",
        ),
        RequestShape(prompt_len_range=(48, 96), max_new_tokens=96, policy="full"),
    ]
    return generate_traffic(shapes, times, vocab_size=2048, seed=SEED)


def build_config(router: str) -> TrafficConfig:
    """Two serve-sim replicas behind the given routing strategy."""
    return TrafficConfig(
        engine=EngineSpec(
            model="serve-sim",
            policy="clusterkv",
            budget=48,
            max_new_tokens=96,
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=4,
            max_prefills_per_step=4,
        ),
        num_replicas=2,
        router=router,
        slo=SLOSpec(ttft_s=2.5, tpot_s=0.15),
    )


def skewed_workload() -> list[ServeRequest]:
    """One long-decoding monster plus a paced stream of light requests."""
    rng = np.random.default_rng(7)
    requests = [
        ServeRequest(
            request_id="monster",
            arrival_time_s=0.0,
            prompt_ids=rng.integers(4, 2048, size=48).astype(np.int64),
            max_new_tokens=400,
        )
    ]
    for index in range(10):
        requests.append(
            ServeRequest(
                request_id=f"light{index}",
                arrival_time_s=0.3 + 1.5 * index,
                prompt_ids=rng.integers(4, 2048, size=48).astype(np.int64),
                max_new_tokens=24,
            )
        )
    return requests


def skewed_config(router: str) -> TrafficConfig:
    """Capacity-1 replicas: a request routed behind the monster queues."""
    return TrafficConfig(
        engine=EngineSpec(model="serve-sim", max_batch_size=1, max_prefills_per_step=1),
        num_replicas=2,
        router=router,
        slo=SLOSpec(ttft_s=2.5, tpot_s=0.08),
    )


def main() -> None:
    requests = build_workload()
    print(
        f"workload: {len(requests)} requests, bursty on/off arrivals over "
        f"{requests[-1].arrival_time_s:.1f}s, mixing clusterkv and full-KV policies"
    )
    print()

    # 1. Join-shortest-queue across two replicas on the virtual clock.
    jsq_report = simulate(requests, build_config("jsq"))
    print(format_traffic_report(jsq_report))
    print()

    # 2. Routing under skew: a monster request pins one capacity-1 replica;
    #    blind round-robin keeps queueing light requests behind it, while
    #    join-shortest-queue steers the stream to the free replica.
    skew_jsq = simulate(skewed_workload(), skewed_config("jsq"))
    skew_rr = simulate(skewed_workload(), skewed_config("round_robin"))
    print(
        "skewed trace (monster + light stream, capacity-1 replicas):\n"
        f"  jsq         goodput {skew_jsq.goodput_tokens_per_s:6.1f} tok/s, "
        f"attainment {skew_jsq.slo_attainment:.0%}\n"
        f"  round_robin goodput {skew_rr.goodput_tokens_per_s:6.1f} tok/s, "
        f"attainment {skew_rr.slo_attainment:.0%}"
    )
    print()

    # 3. Record the workload as a JSONL trace and replay it: byte-identical
    #    report, which is the reproducibility contract of the traffic layer.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "bursty.jsonl"
        save_trace(trace_path, requests, include_prompt_ids=True)
        replayed = load_trace(trace_path, vocab_size=2048, seed=SEED)
        replay_report = simulate(replayed, build_config("jsq"))
        identical = replay_report.to_json() == jsq_report.to_json()
        print(
            f"trace replay from {trace_path.name}: "
            f"{'byte-identical report' if identical else 'MISMATCH'}"
        )
        assert identical


if __name__ == "__main__":
    main()
