"""Unit tests for the cluster cache and the full ClusterKV selector state."""

import numpy as np
import pytest

from repro.core import ClusterCache, ClusterKVConfig, ClusterKVSelector
from repro.core.clusterkv import ClusterKVLayerState
from repro.memory import TierKind


class TestClusterCache:
    def test_first_lookup_is_all_misses(self):
        cache = ClusterCache(history=1)
        lookup = cache.lookup(np.array([1, 2]), {1: 5, 2: 3})
        assert lookup.hit_tokens == 0
        assert lookup.miss_tokens == 8
        assert lookup.hit_rate == 0.0

    def test_repeat_selection_hits(self):
        cache = ClusterCache(history=1)
        cache.lookup(np.array([1, 2]), {1: 5, 2: 3})
        cache.update(np.array([1, 2]))
        lookup = cache.lookup(np.array([2, 3]), {2: 3, 3: 4})
        assert lookup.hit_tokens == 3
        assert lookup.miss_tokens == 4
        np.testing.assert_array_equal(lookup.hit_labels, [2])
        np.testing.assert_array_equal(lookup.miss_labels, [3])

    def test_history_window_eviction(self):
        cache = ClusterCache(history=1)
        cache.update(np.array([1]))
        cache.update(np.array([2]))  # evicts the step that selected cluster 1
        lookup = cache.lookup(np.array([1]), {1: 2})
        assert lookup.hit_tokens == 0

    def test_history_two_keeps_two_steps(self):
        cache = ClusterCache(history=2)
        cache.update(np.array([1]))
        cache.update(np.array([2]))
        assert cache.cached_labels == {1, 2}
        lookup = cache.lookup(np.array([1, 2]), {1: 1, 2: 1})
        assert lookup.hit_tokens == 2

    def test_disabled_cache(self):
        cache = ClusterCache(history=0)
        cache.update(np.array([1]))
        assert cache.cached_labels == set()
        lookup = cache.lookup(np.array([1]), {1: 4})
        assert lookup.hit_tokens == 0

    def test_cumulative_hit_rate(self):
        cache = ClusterCache(history=1)
        cache.lookup(np.array([0]), {0: 4})
        cache.update(np.array([0]))
        cache.lookup(np.array([0]), {0: 4})
        assert cache.hit_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = ClusterCache(history=1)
        cache.update(np.array([5]))
        cache.lookup(np.array([5]), {5: 2})
        cache.reset()
        assert cache.cached_labels == set()
        assert cache.hit_rate == 0.0


def _make_state(n_kv_heads=2, head_dim=8, **config_overrides):
    defaults = dict(
        tokens_per_cluster=8,
        decode_window=6,
        decode_clusters=2,
        num_sink_tokens=4,
        kmeans_seed=0,
    )
    defaults.update(config_overrides)
    config = ClusterKVConfig(**defaults)
    return ClusterKVLayerState(2, n_kv_heads, head_dim, config), config


class TestClusterKVLayerState:
    def test_prefill_builds_clusters(self, rng):
        state, config = _make_state()
        keys = rng.normal(size=(2, 64, 8))
        state.observe_prefill(keys)
        expected_clusters = config.num_prefill_clusters(64 - 4)
        assert state.num_clusters(0) == expected_clusters
        assert state.context_length == 64
        assert state.stats.build_flops > 0

    def test_selection_respects_budget_and_bounds(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        queries = rng.normal(size=(2, 1, 8))
        selections = state.select(queries, budget=16, step=0)
        assert len(selections) == 2
        for indices in selections:
            assert indices.shape[0] <= 16
            assert indices.min() >= 0
            assert indices.max() < 64
            assert np.all(np.diff(indices) > 0)  # sorted and unique

    def test_sinks_always_selected(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=16, step=0)
        for indices in selections:
            assert set(range(4)).issubset(set(indices.tolist()))

    def test_decode_tokens_visible_before_clustering(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        state.observe_decode(rng.normal(size=(2, 1, 8)))
        assert state.num_pending_decode_tokens == 1
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=16, step=0)
        for indices in selections:
            assert 64 in indices.tolist()  # the newly decoded token

    def test_decode_window_triggers_clustering(self, rng):
        state, config = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        before = state.num_clusters(0)
        for _ in range(config.decode_window):
            state.observe_decode(rng.normal(size=(2, 1, 8)))
        assert state.num_pending_decode_tokens == 0
        assert state.num_clusters(0) == before + config.decode_clusters

    def test_unclustered_decode_tokens_ride_on_top_of_the_budget(self, rng):
        """Sinks and unclustered decode tokens are attended beyond ``B``.

        Pins existing behaviour in ``chat_mixed``'s shape (B 48, 8 sinks,
        ``decode_window`` 320, 96 new tokens): every selection holds
        ``max(B, sinks + pending)`` tokens, so it first exceeds the budget
        at decode token 41, when the pending tokens outgrow ``B - sinks``.
        """
        budget, sinks = 48, 8
        state, _ = _make_state(decode_window=320, num_sink_tokens=sinks)
        state.observe_prefill(rng.normal(size=(2, 200, 8)))
        first_over = None
        for token in range(1, 97):
            state.observe_decode(rng.normal(size=(2, 1, 8)))
            pending = state.num_pending_decode_tokens
            assert pending == token
            selections = state.select(rng.normal(size=(2, 1, 8)), budget, step=token)
            for indices in selections:
                assert indices.shape[0] == max(budget, sinks + pending)
            if first_over is None and selections[0].shape[0] > budget:
                first_over = token
        assert first_over == 41

    def test_cache_hits_accumulate_on_repeated_queries(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        query = rng.normal(size=(2, 1, 8))
        state.select(query, budget=24, step=0)
        state.select(query, budget=24, step=1)
        # The same query selects the same clusters, so the second step is a hit.
        assert state.stats.cache_hit_tokens > 0
        assert state.cache_hit_rate() > 0.0

    def test_fetched_tokens_counted_for_misses(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 64, 8)))
        state.select(rng.normal(size=(2, 1, 8)), budget=24, step=0)
        assert state.stats.fetched_tokens == state.stats.cache_miss_tokens
        assert state.stats.fetched_tokens > 0

    def test_prefill_twice_raises(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 16, 8)))
        with pytest.raises(RuntimeError):
            state.observe_prefill(rng.normal(size=(2, 16, 8)))

    def test_decode_before_prefill_raises(self, rng):
        state, _ = _make_state()
        with pytest.raises(RuntimeError):
            state.observe_decode(rng.normal(size=(2, 1, 8)))

    def test_bad_key_shape_raises(self, rng):
        state, _ = _make_state()
        with pytest.raises(ValueError):
            state.observe_prefill(rng.normal(size=(3, 16, 8)))

    def test_short_prompt_smaller_than_sinks(self, rng):
        state, _ = _make_state()
        state.observe_prefill(rng.normal(size=(2, 3, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=8, step=0)
        for indices in selections:
            np.testing.assert_array_equal(indices, [0, 1, 2])


class TestClusterKVSelectorFactory:
    def test_residency_is_cpu(self):
        assert ClusterKVSelector().kv_residency is TierKind.CPU

    def test_create_layer_state_uses_engine_sinks(self):
        factory = ClusterKVSelector(ClusterKVConfig(num_sink_tokens=16))
        state = factory.create_layer_state(0, 2, 8, num_sink_tokens=2)
        assert state.num_sink_tokens == 2

    def test_describe_includes_key_parameters(self):
        description = ClusterKVSelector().describe()
        assert description["name"] == "clusterkv"
        assert "tokens_per_cluster" in description
        assert "distance_metric" in description


class TestClusterKVConfig:
    def test_c0_rule(self):
        config = ClusterKVConfig(tokens_per_cluster=80)
        assert config.num_prefill_clusters(32000) == 400
        assert config.num_prefill_clusters(40) == 1
        assert config.num_prefill_clusters(0) == 0

    def test_max_clusters_clamp(self):
        config = ClusterKVConfig(tokens_per_cluster=10, max_clusters=5)
        assert config.num_prefill_clusters(1000) == 5

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ClusterKVConfig(tokens_per_cluster=0)
        with pytest.raises(ValueError):
            ClusterKVConfig(distance_metric="hamming")
        with pytest.raises(ValueError):
            ClusterKVConfig(trim_policy="random")
        with pytest.raises(ValueError):
            ClusterKVConfig(cache_history=-1)
