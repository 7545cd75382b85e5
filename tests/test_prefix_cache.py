"""Differential and property tests of the cross-request prefix/KV cache.

The load-bearing guarantees:

* **exactness** — enabling the prefix cache changes no output: for every
  registered compression policy, both models, chunked prefill, sampled
  decoding and mixed-policy batches, cache-on serving is token- and
  log-probability-identical to cache-off serving while reporting real
  hits;
* **radix-tree invariants** — refcount conservation across match/release,
  longest-match correctness against a brute-force oracle on random prompt
  forests, LRU eviction that never removes an in-use node, and exact
  accounting (``inserted - evicted == cached``);
* **semantic reuse** — ClusterKV's segmented prefill clustering restored
  from the cache reproduces the from-scratch outputs bit for bit while
  skipping k-means work on the reused prefix;
* **traffic integration** — a shared-preamble workload reports a hit rate
  of at least one half and strictly lower mean TTFT than the cache-off
  run at equal output tokens, all byte-reproducible on the virtual clock,
  and request conservation holds under replica failures with retries.
"""

import json

import numpy as np
import pytest

from repro.api import EngineSpec
from repro.cluster import ClusterConfig, ClusterSimulator, FailureEvent, FailurePlan
from repro.model import GenerationConfig, TransformerModel, get_model_config
from repro.policies import available_policies
from repro.prefixcache import PrefixCacheConfig, RadixPrefixCache
from repro.serving import BatchedEngine, SchedulerConfig, ServeRequest, serve_prompts
from repro.traffic import (
    PrefixAffineRouter,
    TrafficConfig,
)

BLOCK = 16
CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"
SEGMENTED_CLUSTERKV = CLUSTERKV + ",prefill_segment_tokens=16"

# Policy spec of every registered method, sized for the tiny test models.
POLICY_SPECS = {
    name: (CLUSTERKV if name == "clusterkv" else name) for name in available_policies()
}


def tiny_generation(greedy: bool = True) -> GenerationConfig:
    """Small-budget generation config shared by the differential tests."""
    return GenerationConfig(
        budget=24,
        num_full_layers=1,
        num_sink_tokens=4,
        max_new_tokens=6,
        greedy=greedy,
        seed=3,
    )


def shared_prefix_prompts(
    vocab_size: int, count: int = 3, preamble_tokens: int = 48, seed: int = 7
) -> list[np.ndarray]:
    """Prompts sharing a common preamble followed by unique suffixes."""
    rng = np.random.default_rng(seed)
    preamble = rng.integers(0, vocab_size, preamble_tokens)
    return [
        np.concatenate([preamble, rng.integers(0, vocab_size, 17 + index)])
        for index in range(count)
    ]


def scheduler(cache: bool, **overrides) -> SchedulerConfig:
    """Scheduler config with the cache on or off; admission is staggered.

    ``max_prefills_per_step=1`` makes each admission a separate engine
    step, so earlier prompts are inserted into the cache before later
    ones are matched — the differential tests need real hits, not just a
    cache that was never consulted.
    """
    knobs = dict(max_batch_size=4, max_prefills_per_step=1)
    if cache:
        knobs.update(prefix_cache_tokens=4096, prefix_block_tokens=BLOCK)
    knobs.update(overrides)
    return SchedulerConfig(**knobs)


def assert_identical_outputs(cache_off, cache_on) -> None:
    """Both serve reports contain bit-identical per-request outputs."""
    off, on = cache_off.results(), cache_on.results()
    assert set(off) == set(on)
    for request_id, expected in off.items():
        actual = on[request_id]
        assert actual.output_ids == expected.output_ids, request_id
        assert actual.output_logprobs == expected.output_logprobs, request_id


# ----------------------------------------------------------------------
# radix-tree properties
# ----------------------------------------------------------------------


def fake_layer_kv(prompt_ids: np.ndarray, num_layers: int = 2):
    """Per-layer KV whose entry at position ``p`` encodes ``prompt_ids[p]``.

    Lets the tests verify that matched KV really is the KV of the matched
    positions, not just the right shape.
    """
    ids = np.asarray(prompt_ids, dtype=np.float64)
    base = ids.reshape(1, -1, 1)
    return [(base + layer, base - layer) for layer in range(num_layers)]


def brute_force_match_tokens(
    query: np.ndarray, inserted: list[np.ndarray], block: int
) -> int:
    """Longest cached prefix of ``query`` by exhaustive comparison.

    Mirrors the cache contract: only whole blocks are cached (``len //
    block`` blocks per inserted prompt) and a match never swallows the
    entire query (at least one token is left to prefill).
    """
    limit = ((len(query) - 1) // block) * block if len(query) > 1 else 0
    best = 0
    for prompt in inserted:
        whole = (len(prompt) // block) * block
        matchable = min(limit, whole)
        length = 0
        while (
            length + block <= matchable
            and np.array_equal(query[length : length + block], prompt[length : length + block])
        ):
            length += block
        best = max(best, length)
    return best


class TestRadixTreeProperties:
    """Property-style tests driving ``RadixPrefixCache`` directly."""

    def make_cache(self, capacity: int | None = None) -> RadixPrefixCache:
        """A cache with the test block size and optional capacity."""
        return RadixPrefixCache(
            PrefixCacheConfig(block_tokens=BLOCK, capacity_tokens=capacity)
        )

    def test_longest_match_matches_brute_force_on_random_forest(self):
        """Random prompt forest: the radix match equals the oracle answer."""
        rng = np.random.default_rng(17)
        cache = self.make_cache()
        inserted: list[np.ndarray] = []
        stems = [rng.integers(0, 4, BLOCK * 2) for _ in range(3)]
        for round_idx in range(40):
            stem = stems[int(rng.integers(0, len(stems)))]
            keep = int(rng.integers(0, len(stem) + 1))
            tail = rng.integers(0, 4, int(rng.integers(1, BLOCK * 3)))
            prompt = np.concatenate([stem[:keep], tail])
            expected = brute_force_match_tokens(prompt, inserted, BLOCK)
            match = cache.match(prompt)
            actual = 0 if match is None else match.num_tokens
            assert actual == expected, f"round {round_idx}"
            if match is not None:
                # Matched KV is the KV of exactly the matched positions.
                keys = np.concatenate([k for k, _ in match.layer_blocks()[0]], axis=1)
                assert np.array_equal(
                    keys[0, :, 0], prompt[: match.num_tokens].astype(np.float64)
                )
                cache.release(match)
            cache.insert(prompt, fake_layer_kv(prompt))
            inserted.append(prompt)
            cache.check_invariants()

    def test_refcount_conservation_across_matches_and_releases(self):
        """Total live refcounts equal the blocks held by unreleased matches."""
        cache = self.make_cache()
        prompt = np.arange(BLOCK * 4 + 1)
        cache.insert(prompt, fake_layer_kv(prompt))

        def total_refcount() -> int:
            """Sum of refcounts over every node in the tree."""
            total, stack = 0, list(cache._root.children.values())
            while stack:
                node = stack.pop()
                total += node.refcount
                stack.extend(node.children.values())
            return total

        matches = [cache.match(prompt) for _ in range(3)]
        assert all(m is not None for m in matches)
        assert total_refcount() == sum(m.num_blocks for m in matches)
        cache.release(matches[0])
        cache.release(matches[0])  # idempotent: releasing twice is a no-op
        assert total_refcount() == sum(m.num_blocks for m in matches[1:])
        for match in matches[1:]:
            cache.release(match)
        assert total_refcount() == 0
        cache.check_invariants()

    def test_eviction_never_removes_in_use_nodes(self):
        """A held match pins its blocks; only unreferenced fillers are evicted."""
        cache = self.make_cache(capacity=BLOCK * 2)
        pinned = np.arange(BLOCK * 2 + 1)
        cache.insert(pinned, fake_layer_kv(pinned))
        match = cache.match(pinned)
        assert match is not None and match.num_tokens == BLOCK * 2

        rng = np.random.default_rng(5)
        for _ in range(4):
            other = rng.integers(100, 200, BLOCK + 3)
            cache.insert(other, fake_layer_kv(other))
            cache.check_invariants()
            # The filler (the only unreferenced leaf) was evicted, never
            # the pinned path, which stays fully matchable mid-flight.
            assert cache.cached_tokens == BLOCK * 2
            probe = cache.match(pinned)
            assert probe is not None and probe.num_tokens == BLOCK * 2
            cache.release(probe)
        assert cache.stats()["evictions"] == 4

        # Once released, the pinned path becomes evictable like any other.
        cache.release(match)
        filler = np.arange(300, 300 + BLOCK + 1)
        cache.insert(filler, fake_layer_kv(filler))
        assert cache.cached_tokens <= BLOCK * 2
        cache.check_invariants()

    def test_lru_eviction_order_and_stats_accounting(self):
        """The least recently touched unreferenced leaf is evicted first."""
        cache = self.make_cache(capacity=BLOCK * 2)
        first = np.arange(BLOCK + 1)
        second = np.arange(500, 500 + BLOCK + 1)
        cache.insert(first, fake_layer_kv(first))
        cache.insert(second, fake_layer_kv(second))
        refresh = cache.match(first)  # first becomes most recently used
        assert refresh is not None
        cache.release(refresh)

        third = np.arange(900, 900 + BLOCK + 1)
        cache.insert(third, fake_layer_kv(third))
        cache.check_invariants()
        assert cache.match(second) is None  # LRU victim
        kept = cache.match(first)
        assert kept is not None
        cache.release(kept)

        stats = cache.stats()
        assert stats["inserted_tokens"] - stats["evicted_tokens"] == stats["cached_tokens"]
        assert stats["evictions"] == 1 and stats["evicted_tokens"] == BLOCK
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2.0 / 3.0)

    def test_match_always_leaves_one_token_to_prefill(self):
        """A fully cached prompt still matches strictly less than itself."""
        cache = self.make_cache()
        prompt = np.arange(BLOCK * 2)
        cache.insert(prompt, fake_layer_kv(prompt))
        match = cache.match(prompt)
        assert match is not None and match.num_tokens == BLOCK
        cache.release(match)
        assert cache.match(np.arange(BLOCK)) is None  # single block: no room

    def test_semantic_segments_ride_matched_nodes_per_signature(self):
        """Semantic payloads come back only for the matched prefix and signature."""
        cache = self.make_cache()
        prompt = np.arange(BLOCK * 3 + 1)
        semantic = {
            "sig-a": {
                (0, 0, BLOCK): "seg0",
                (0, BLOCK, BLOCK * 2): "seg1",
                (0, BLOCK * 2, BLOCK * 3): "seg2",
            }
        }
        cache.insert(prompt, fake_layer_kv(prompt), semantic=semantic)
        match = cache.match(prompt[: BLOCK * 2 + 1])
        assert match is not None and match.num_tokens == BLOCK * 2
        segments = match.semantic_segments("sig-a")
        assert set(segments) == {(0, 0, BLOCK), (0, BLOCK, BLOCK * 2)}
        assert match.semantic_segments("sig-b") == {}
        cache.release(match)


# ----------------------------------------------------------------------
# engine differentials: cache-on == cache-off, for everything
# ----------------------------------------------------------------------


class TestEngineDifferential:
    """Cache-on serving must be bit-identical to cache-off serving."""

    @pytest.mark.parametrize("model_name", ["tiny", "serve-sim"])
    @pytest.mark.parametrize("policy_name", sorted(POLICY_SPECS))
    def test_every_policy_is_cache_transparent(self, model_name, policy_name):
        """All registered policies x both models: identical tokens, real hits."""
        config = get_model_config(model_name)
        model = TransformerModel(config)
        prompts = shared_prefix_prompts(config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        generation = tiny_generation()
        off = serve_prompts(
            model, prompts, selector=policy,
            generation_config=generation, scheduler_config=scheduler(cache=False),
        )
        on = serve_prompts(
            model, prompts, selector=policy,
            generation_config=generation, scheduler_config=scheduler(cache=True),
        )
        assert_identical_outputs(off, on)
        assert off.prefix_cache == {}
        assert on.prefix_cache["hits"] == 2
        attached = sorted(r.cached_prefix_tokens for r in on.results().values())
        assert attached == [0, 48, 48]

    def test_sampled_decoding_is_cache_transparent(self):
        """Non-greedy decoding draws the same samples with the cache on."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompts = shared_prefix_prompts(config.vocab_size)
        generation = tiny_generation(greedy=False)
        off = serve_prompts(
            model, prompts, selector=CLUSTERKV,
            generation_config=generation, scheduler_config=scheduler(cache=False),
        )
        on = serve_prompts(
            model, prompts, selector=CLUSTERKV,
            generation_config=generation, scheduler_config=scheduler(cache=True),
        )
        assert_identical_outputs(off, on)
        assert on.prefix_cache["hits"] == 2

    @pytest.mark.parametrize("policy_name", ["clusterkv", "full"])
    def test_chunked_prefill_is_cache_transparent(self, policy_name):
        """Suffix-only prefill composes with chunked prefill unchanged.

        Chunked prefill spreads one prompt over several steps, so hits
        need the preamble to be *fully* prefilled before the followers
        arrive: the leader is served alone (populating the cache), then
        each follower is served on the same engine.  Followers run one
        at a time so both runs chunk the suffix at the same boundaries
        (the per-step chunk budget is shared across concurrent prefills,
        and row batching is not bitwise associativity-free).
        """
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompts = shared_prefix_prompts(config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        generation = tiny_generation()

        def two_phase_serve(cache: bool):
            """Serve the leader, then each follower, on one engine."""
            engine = BatchedEngine(
                model,
                selector=policy,
                generation_config=generation,
                scheduler_config=scheduler(cache=cache, prefill_chunk_tokens=16),
            )
            results: dict = {}
            for prompt in prompts:
                engine.submit(prompt)
                results.update(engine.run().results())
            return engine, results

        engine_off, off = two_phase_serve(cache=False)
        engine_on, on = two_phase_serve(cache=True)
        assert set(off) == set(on)
        for request_id, expected in off.items():
            assert on[request_id].output_ids == expected.output_ids, request_id
            assert on[request_id].output_logprobs == expected.output_logprobs, request_id
        assert engine_off.prefix_cache_stats() == {}
        assert engine_on.prefix_cache_stats()["hits"] == 2
        attached = sorted(r.cached_prefix_tokens for r in on.values())
        assert attached == [0, 48, 48]

    def test_mixed_policy_batch_is_cache_transparent(self):
        """Requests with different policies share one cache without cross-talk."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompts = shared_prefix_prompts(config.vocab_size, count=4)
        policies = [CLUSTERKV, None, "streaming_llm", "quest"]
        generation = tiny_generation()
        off = serve_prompts(
            model, prompts, selector="full", generation_config=generation,
            scheduler_config=scheduler(cache=False), policies=policies,
        )
        on = serve_prompts(
            model, prompts, selector="full", generation_config=generation,
            scheduler_config=scheduler(cache=True), policies=policies,
        )
        assert_identical_outputs(off, on)
        assert on.prefix_cache["hits"] == 3

    def test_segmented_clusterkv_semantic_reuse_is_exact_and_cheaper(self):
        """Restored cluster state reproduces outputs while skipping k-means."""
        config = get_model_config("tiny")
        model = TransformerModel(config)
        prompts = shared_prefix_prompts(config.vocab_size)
        generation = tiny_generation()

        def run(cache: bool, semantic: bool):
            """One serve run of the segmented policy with the given knobs."""
            return serve_prompts(
                model, prompts, selector=SEGMENTED_CLUSTERKV,
                generation_config=generation,
                scheduler_config=scheduler(
                    cache=cache, prefix_semantic_reuse=semantic
                ) if cache else scheduler(cache=False),
            )

        off = run(cache=False, semantic=False)
        kv_only = run(cache=True, semantic=False)
        semantic = run(cache=True, semantic=True)
        assert_identical_outputs(off, kv_only)
        assert_identical_outputs(off, semantic)
        assert semantic.prefix_cache["hits"] == 2

        def build_flops(report) -> int:
            """Total structure-build FLOPs across all completed requests."""
            return sum(r.selector_stats.build_flops for r in report.results().values())

        # Semantic restore skips re-clustering the shared prefix entirely.
        assert build_flops(semantic) < build_flops(kv_only)
        assert build_flops(kv_only) == build_flops(off)


# ----------------------------------------------------------------------
# traffic and cluster scenarios
# ----------------------------------------------------------------------


def preamble_workload(count: int = 8, preamble_tokens: int = 64) -> list[ServeRequest]:
    """An open-loop trace whose prompts all share one long preamble."""
    vocab = get_model_config("tiny").vocab_size
    rng = np.random.default_rng(23)
    preamble = rng.integers(0, vocab, preamble_tokens)
    return [
        ServeRequest(
            request_id=f"req-{index:03d}",
            arrival_time_s=0.05 * index,
            prompt_ids=np.concatenate([preamble, rng.integers(0, vocab, 9 + index)]),
            max_new_tokens=6,
        )
        for index in range(count)
    ]


def traffic_spec(cache: bool) -> EngineSpec:
    """Replica engine spec with the prefix cache on or off."""
    return EngineSpec(
        model="tiny",
        policy=CLUSTERKV,
        budget=24,
        max_new_tokens=6,
        num_full_layers=1,
        num_sink_tokens=4,
        max_batch_size=4,
        max_prefills_per_step=1,
        prefix_cache_tokens=4096 if cache else None,
        prefix_block_tokens=BLOCK,
    )


class TestTrafficScenarios:
    """Prefix caching inside the virtual-clock traffic and cluster layers."""

    def test_shared_preamble_hit_rate_and_ttft_improvement(self):
        """Hit rate >= 0.5 and strictly lower TTFT at equal output tokens."""
        requests = preamble_workload()
        cached = ClusterSimulator(TrafficConfig(engine=traffic_spec(True), num_replicas=1))
        cached_report = cached.run(requests)
        plain = ClusterSimulator(TrafficConfig(engine=traffic_spec(False), num_replicas=1))
        plain_report = plain.run(requests)

        # Outputs are token-identical, so goodput comparisons are fair.
        assert set(cached.completed) == set(plain.completed)
        for request_id, completed in plain.completed.items():
            assert cached.completed[request_id].result.output_ids == completed.result.output_ids
        assert cached_report.total_output_tokens == plain_report.total_output_tokens

        cache = cached_report.prefix_cache
        assert cache["hit_rate"] >= 0.5
        assert cache["requests_with_hit"] == len(requests) - 1
        # Both cohort means are reported (the lone miss is the first
        # arrival, whose empty-queue TTFT is not comparable in absolute
        # terms — the fair comparison is against the cache-off run below).
        assert cache["ttft_hit_mean_s"] > 0.0 and cache["ttft_miss_mean_s"] > 0.0
        assert plain_report.prefix_cache == {}

        def ttft(report) -> tuple[float, float]:
            """(mean, p99) TTFT of one report."""
            values = [m.ttft_s for m in report.requests]
            return float(np.mean(values)), report.latency_summary()["ttft_s"]["p99"]

        cached_mean, cached_p99 = ttft(cached_report)
        plain_mean, plain_p99 = ttft(plain_report)
        assert cached_mean < plain_mean
        assert cached_p99 <= plain_p99
        # Latency is bought with reuse, not by shedding throughput.
        assert cached_report.goodput_tokens_per_s >= plain_report.goodput_tokens_per_s

    def test_cached_traffic_report_is_byte_reproducible(self):
        """Two fresh cache-enabled runs emit byte-identical report JSON."""
        requests = preamble_workload()
        first = ClusterSimulator(
            TrafficConfig(engine=traffic_spec(True), num_replicas=2, router="prefix_affine")
        ).run(requests)
        second = ClusterSimulator(
            TrafficConfig(engine=traffic_spec(True), num_replicas=2, router="prefix_affine")
        ).run(requests)
        assert first.to_json() == second.to_json()
        payload = json.loads(first.to_json())
        assert payload["prefix_cache"]["hits"] >= 1

    def test_prefix_affine_router_pins_shared_preambles(self):
        """Requests sharing a first block all land on the same replica."""
        router = PrefixAffineRouter(block_tokens=BLOCK)
        requests = preamble_workload(count=4)
        slots = {router.choose([0, 1, 2], request) for request in requests}
        assert len(slots) == 1
        assert router.describe() == {"name": "prefix_affine", "block_tokens": BLOCK}
        lone = ServeRequest(
            request_id="solo",
            arrival_time_s=0.0,
            prompt_ids=np.arange(BLOCK * 2),
            max_new_tokens=4,
        )
        assert router.choose([0, 1, 2], lone) == router.choose([0, 1, 2], lone)

    def test_cluster_conservation_under_failures_with_cache(self):
        """Replica kills plus retries conserve requests with the cache on."""
        requests = preamble_workload(count=10)
        config = ClusterConfig(
            engine=traffic_spec(True),
            min_replicas=2,
            max_replicas=2,
            autoscaler="static",
            router="prefix_affine",
            failures=FailurePlan(events=(FailureEvent(time_s=7.0, slot=0),)),
        )
        report = ClusterSimulator(config).run(requests)
        assert report.num_requests + report.num_rejected == len(requests)
        assert report.prefix_cache and report.prefix_cache["hits"] >= 1
        repeat = ClusterSimulator(config).run(requests)
        assert report.to_json() == repeat.to_json()
