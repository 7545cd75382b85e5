"""Traffic SLO smoke benchmark: tail latency and routing under load.

Runs the open-loop traffic simulator on the tiny ``serve-sim`` model with
the virtual perfmodel clock (pure arithmetic — fast and deterministic) and
asserts the headline properties of the traffic and cluster layers:

* at a sustainable arrival rate, p99 TTFT stays under a generous bound
  and most requests meet the default SLO;
* on a skewed trace (bursts alternating heavy and light requests, a
  parity trap for load-blind routing) join-shortest-queue achieves at
  least the goodput of round-robin;
* under a seeded bursty trace, the ``slo_attainment`` autoscaler beats
  the static minimum fleet by a pinned goodput factor at equal
  per-replica configuration, byte-reproducibly.
"""

import numpy as np

from repro.api import EngineSpec
from repro.serving.bench import serving_engine_spec
from repro.traffic import (
    SLOSpec,
    TrafficBenchConfig,
    TrafficConfig,
    TrafficRequest,
    WorkloadSpec,
    build_router,
    format_traffic_report,
    run_traffic_bench,
    simulate,
)


def test_bench_traffic_p99_ttft():
    """Moderate Poisson load on 2 replicas keeps p99 TTFT bounded."""
    # The bench's default fleet: two serving-tuned replicas behind jsq.
    config = TrafficBenchConfig(workload=WorkloadSpec(num_requests=12, rate=0.5, seed=0))
    report = run_traffic_bench(config)
    print()
    print(format_traffic_report(report))
    assert report.num_requests == 12
    summary = report.latency_summary()
    # Prefill of a ~48-96 token prompt costs ~1s at paper scale; 4s is a
    # generous bound that still catches queueing pathologies.
    assert summary["ttft_s"]["p99"] < 4.0
    assert report.slo_attainment > 0.5
    assert report.goodput_tokens_per_s > 0.0


def _skewed_trace(vocab_size: int = 2048) -> list[TrafficRequest]:
    """One long-decoding monster plus a paced stream of light requests.

    The monster occupies its replica for hundreds of slow decode steps;
    the lights arrive just under one replica's service rate.  Blind
    round-robin keeps sending every other light behind the monster, where
    it queues for the monster's whole residual decode; queue-aware
    routing sees the backlog and steers the stream to the free replica.
    """
    rng = np.random.default_rng(7)
    requests = [
        TrafficRequest(
            request_id="monster",
            arrival_time_s=0.0,
            prompt_ids=rng.integers(4, vocab_size, size=48).astype(np.int64),
            max_new_tokens=400,
        )
    ]
    for index in range(10):
        requests.append(
            TrafficRequest(
                request_id=f"light{index}",
                arrival_time_s=0.3 + 1.5 * index,
                prompt_ids=rng.integers(4, vocab_size, size=48).astype(np.int64),
                max_new_tokens=24,
            )
        )
    return requests


def test_bench_jsq_goodput_vs_round_robin():
    """Join-shortest-queue >= round-robin goodput on a skewed trace."""

    def compare():
        results = {}
        for router in ("round_robin", "jsq"):
            # Batch capacity 1 per replica makes queueing real: a request
            # routed behind the monster waits out its whole decode.
            config = TrafficConfig(
                engine=EngineSpec(max_batch_size=1, max_prefills_per_step=1),
                num_replicas=2,
                router=router,
                slo=SLOSpec(ttft_s=2.5, tpot_s=0.08),
            )
            results[router] = simulate(
                _skewed_trace(), config, router=build_router(router)
            )
        return results

    results = compare()
    print()
    for router, report in results.items():
        print(f"--- router={router}")
        print(format_traffic_report(report))
    jsq = results["jsq"]
    rr = results["round_robin"]
    assert jsq.goodput_tokens_per_s >= rr.goodput_tokens_per_s
    # The skew costs round-robin real goodput, not a rounding error: JSQ
    # keeps the light stream off the monster's replica entirely.
    assert jsq.goodput_tokens_per_s > rr.goodput_tokens_per_s * 1.2
    assert jsq.slo_attainment > rr.slo_attainment


def test_bench_chunked_prefill_p99_ttft():
    """Chunked prefill cuts p99 TTFT at equal goodput under Poisson load.

    A single replica serves a Poisson stream mixing short and long prompts
    (up to 512 simulated tokens — 32k at paper scale).  Monolithic prefill
    freezes the decode batch for every long arrival; with a 64-token
    per-step chunk budget the same workload interleaves prefill chunks with
    decode steps.  On the deterministic perfmodel clock the chunked run
    must strictly reduce p99 TTFT while giving up none of the goodput.
    """
    def bench(prefill_chunk_tokens):
        return TrafficBenchConfig(
            workload=WorkloadSpec(
                rate=0.1, num_requests=16, prompt_len_min=32, prompt_len_max=512, seed=3
            ),
            fleet=TrafficConfig(
                engine=serving_engine_spec(
                    max_new_tokens=64, prefill_chunk_tokens=prefill_chunk_tokens
                ),
                num_replicas=1,
                router="round_robin",
                slo=SLOSpec(ttft_s=20.0, tpot_s=0.35),
            ),
        )

    def run_pair():
        return run_traffic_bench(bench(None)), run_traffic_bench(bench(64))

    monolithic, chunked = run_pair()
    print()
    print("[monolithic]")
    print(format_traffic_report(monolithic))
    print("[chunked, 64 tokens/step]")
    print(format_traffic_report(chunked))

    mono_p99 = monolithic.latency_summary()["ttft_s"]["p99"]
    chunk_p99 = chunked.latency_summary()["ttft_s"]["p99"]
    assert chunk_p99 < mono_p99, (
        f"chunked prefill p99 TTFT {chunk_p99:.2f}s is not below the "
        f"monolithic {mono_p99:.2f}s"
    )
    # Equal goodput: chunking must not sacrifice SLO-attaining throughput.
    assert chunked.goodput_tokens_per_s >= monolithic.goodput_tokens_per_s
    # Identical workload either way: same tokens come out of both runs.
    assert chunked.total_output_tokens == monolithic.total_output_tokens


def _shared_preamble_trace(
    count: int = 16, preamble_tokens: int = 128, vocab_size: int = 2048
) -> list[TrafficRequest]:
    """A paced request stream whose prompts share one long preamble.

    Models the dominant production pattern for prefix caching: every
    request carries the same system prompt / few-shot preamble followed
    by a short unique question.  Pacing (one arrival per 0.8s) lets each
    leader finish prefilling before the next arrival matches the cache.
    """
    rng = np.random.default_rng(19)
    preamble = rng.integers(4, vocab_size, size=preamble_tokens).astype(np.int64)
    return [
        TrafficRequest(
            request_id=f"shared{index:03d}",
            arrival_time_s=0.8 * index,
            prompt_ids=np.concatenate(
                [preamble, rng.integers(4, vocab_size, size=17 + index).astype(np.int64)]
            ),
            max_new_tokens=16,
        )
        for index in range(count)
    ]


def test_bench_prefix_cache_ttft():
    """Prefix caching strictly cuts mean TTFT on a shared-preamble trace.

    The same trace is served twice on one replica: once with the
    cross-request prefix cache (radix tree, 32-token blocks) and once
    without.  Every follower shares the 128-token preamble, so with the
    cache only the short unique suffix is prefilled — the attach is
    priced as a PCIe KV transfer on the perfmodel clock, orders of
    magnitude cheaper than the prefill GEMMs it replaces.  The cached run
    must report a hit rate of at least one half, emit exactly the same
    tokens, and land a strictly lower mean TTFT, byte-reproducibly.
    """

    def spec(cache_tokens):
        """Single-replica engine spec with the cache set to ``cache_tokens``."""
        return EngineSpec(
            max_batch_size=4,
            max_prefills_per_step=1,
            prefix_cache_tokens=cache_tokens,
            prefix_block_tokens=32,
        )

    def compare():
        trace = _shared_preamble_trace()
        cached = simulate(trace, TrafficConfig(engine=spec(8192), num_replicas=1))
        cached_again = simulate(trace, TrafficConfig(engine=spec(8192), num_replicas=1))
        plain = simulate(trace, TrafficConfig(engine=spec(None), num_replicas=1))
        return cached, cached_again, plain

    cached, cached_again, plain = compare()
    print()
    print("--- prefix cache enabled (8192-token budget)")
    print(format_traffic_report(cached))
    print("--- prefix cache disabled")
    print(format_traffic_report(plain))

    # Byte-reproducible on the virtual clock, cache included.
    assert cached.to_json() == cached_again.to_json()
    # Same tokens out either way: caching is latency, never content.
    assert cached.total_output_tokens == plain.total_output_tokens

    stats = cached.prefix_cache
    assert stats["hit_rate"] >= 0.5
    # The attached preamble KV replaced real prefill work on every hit.
    assert stats["hit_tokens"] >= 128 * (len(cached.requests) - 1)

    cached_mean = float(np.mean([m.ttft_s for m in cached.requests]))
    plain_mean = float(np.mean([m.ttft_s for m in plain.requests]))
    assert cached_mean < plain_mean, (
        f"prefix-cache mean TTFT {cached_mean:.3f}s is not below the "
        f"uncached {plain_mean:.3f}s"
    )
    cached_p99 = cached.latency_summary()["ttft_s"]["p99"]
    plain_p99 = plain.latency_summary()["ttft_s"]["p99"]
    assert cached_p99 <= plain_p99


def test_bench_cluster_autoscaler_goodput():
    """Elastic fleet >= 1.3x static-minimum goodput on a seeded bursty trace.

    The same on/off bursty workload is served twice at equal per-replica
    configuration: once by the static minimum fleet (one replica, the
    floor the autoscaler is never allowed to go below) and once by an
    elastic fleet whose ``slo_attainment`` autoscaler may grow to four
    replicas, paying the perfmodel's replica warm-up cost for each boot.
    During bursts the static replica queues requests past their TTFT
    deadlines, so its goodput (tokens from SLO-conforming requests only)
    collapses; the elastic fleet boots capacity as soon as the completion
    window shows misses and lands the later arrivals within the SLO.
    """
    from dataclasses import replace

    from repro.cluster import ClusterBenchConfig, format_cluster_report, run_cluster_bench

    # The bench's default fleet: 1..4 replicas scaled on SLO attainment.
    base = ClusterBenchConfig(
        workload=WorkloadSpec(
            rate=0.8, arrivals="onoff", burstiness=4.0, num_requests=18, seed=1
        )
    )
    assert (base.fleet.max_replicas, base.fleet.autoscaler) == (4, "slo_attainment")

    def compare():
        static = run_cluster_bench(
            replace(base, fleet=replace(base.fleet, autoscaler="static", max_replicas=1))
        )
        elastic = run_cluster_bench(base)
        elastic_again = run_cluster_bench(base)
        return static, elastic, elastic_again

    static, elastic, elastic_again = compare()
    print()
    print("--- static minimum fleet (1 replica)")
    print(format_cluster_report(static))
    print("--- elastic fleet (slo_attainment, up to 4 replicas)")
    print(format_cluster_report(elastic))

    # The cluster-bench report is byte-identical across runs.
    assert elastic.to_json() == elastic_again.to_json()
    # Same workload served either way — elasticity changes when tokens
    # arrive, not which tokens come out.
    assert elastic.total_output_tokens == static.total_output_tokens
    assert elastic.num_requests == static.num_requests
    # The autoscaler actually scaled and it paid off where it counts.
    assert elastic.num_replicas > 1
    assert static.goodput_tokens_per_s > 0.0
    ratio = elastic.goodput_tokens_per_s / static.goodput_tokens_per_s
    assert ratio >= 1.3, (
        f"elastic goodput {elastic.goodput_tokens_per_s:.2f} tok/s is only "
        f"{ratio:.2f}x the static {static.goodput_tokens_per_s:.2f} tok/s"
    )
    assert elastic.slo_attainment > static.slo_attainment
