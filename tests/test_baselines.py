"""Unit tests for the baseline KV selection methods."""

import numpy as np
import pytest

from repro.baselines import (
    FullKVSelector,
    H2OSelector,
    InfiniGenSelector,
    OracleTopKSelector,
    QuestSelector,
    StreamingLLMSelector,
    merge_group_queries,
    top_k_indices,
)
from repro.baselines.infinigen import InfiniGenConfig
from repro.baselines.quest import QuestConfig
from repro.memory import TierKind


def _state(factory, n_kv_heads=2, head_dim=8, sinks=4):
    return factory.create_layer_state(0, n_kv_heads, head_dim, sinks)


class TestHelpers:
    def test_merge_group_queries_sums_group(self, rng):
        queries = rng.normal(size=(2, 3, 4))
        merged = merge_group_queries(queries)
        np.testing.assert_allclose(merged, queries.sum(axis=1))

    def test_merge_accepts_already_merged(self, rng):
        queries = rng.normal(size=(2, 4))
        np.testing.assert_array_equal(merge_group_queries(queries), queries)

    def test_top_k_indices_sorted_and_correct(self):
        scores = np.array([0.1, 5.0, 3.0, 5.0, -1.0])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 3])
        np.testing.assert_array_equal(top_k_indices(scores, 10), [0, 1, 2, 3, 4])
        assert top_k_indices(scores, 0).shape == (0,)


class TestFullKV:
    def test_selects_everything(self, rng):
        state = _state(FullKVSelector())
        state.observe_prefill(rng.normal(size=(2, 10, 8)))
        state.observe_decode(rng.normal(size=(2, 1, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=4, step=0)
        for indices in selections:
            np.testing.assert_array_equal(indices, np.arange(11))

    def test_residency_gpu(self):
        assert FullKVSelector().kv_residency is TierKind.GPU


class TestStreamingLLM:
    def test_sinks_plus_recent_window(self, rng):
        state = _state(StreamingLLMSelector(), sinks=2)
        state.observe_prefill(rng.normal(size=(2, 20, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=6, step=0)
        expected = np.array([0, 1, 16, 17, 18, 19])
        for indices in selections:
            np.testing.assert_array_equal(indices, expected)

    def test_never_selects_middle_tokens(self, rng):
        state = _state(StreamingLLMSelector(), sinks=2)
        state.observe_prefill(rng.normal(size=(2, 50, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=10, step=0)
        middle = set(range(10, 40))
        for indices in selections:
            assert not (set(indices.tolist()) & middle)


class TestOracle:
    def test_selects_exact_top_k(self, rng):
        state = _state(OracleTopKSelector(), n_kv_heads=1)
        keys = rng.normal(size=(1, 30, 8))
        state.observe_prefill(keys)
        query = rng.normal(size=(1, 1, 8))
        selections = state.select(query, budget=5, step=0, keys=keys)
        scores = keys[0] @ query[0, 0]
        np.testing.assert_array_equal(selections[0], top_k_indices(scores, 5))


class TestQuest:
    def test_page_construction(self, rng):
        state = _state(QuestSelector(QuestConfig(page_size=4)))
        state.observe_prefill(rng.normal(size=(2, 10, 8)))
        assert state.num_pages == 3  # 4 + 4 + 2

    def test_selection_is_page_aligned(self, rng):
        state = _state(QuestSelector(QuestConfig(page_size=4)))
        state.observe_prefill(rng.normal(size=(2, 32, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=8, step=0)
        for indices in selections:
            pages = set((indices // 4).tolist())
            # every selected page must be fully present
            for page in pages:
                members = [i for i in indices.tolist() if i // 4 == page]
                assert len(members) == 4

    def test_last_page_always_included(self, rng):
        state = _state(QuestSelector(QuestConfig(page_size=4)))
        state.observe_prefill(rng.normal(size=(2, 33, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=4, step=0)
        for indices in selections:
            assert 32 in indices.tolist()

    def test_page_bound_finds_planted_outlier(self, rng):
        """A page containing an extreme key must outrank ordinary pages."""
        keys = 0.01 * rng.normal(size=(1, 64, 8))
        keys[0, 37] = 5.0  # page 4 holds an extreme key
        state = _state(QuestSelector(QuestConfig(page_size=8)), n_kv_heads=1)
        state.observe_prefill(keys)
        query = np.ones((1, 1, 8))
        # Two pages: the outlier's, plus the last page Quest always takes.
        selections = state.select(query, budget=16, step=0)
        assert selections[0].tolist() == list(range(32, 40)) + list(range(56, 64))

    def test_min_max_summaries_updated_on_decode(self, rng):
        state = _state(QuestSelector(QuestConfig(page_size=4)))
        state.observe_prefill(rng.normal(size=(2, 4, 8)))
        state.observe_decode(rng.normal(size=(2, 3, 8)))
        assert state.num_pages == 2
        assert state.context_length == 7

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            QuestConfig(page_size=0)


class TestInfiniGen:
    def test_partial_dim(self):
        config = InfiniGenConfig(partial_ratio=0.25)
        assert config.partial_dim(64) == 16
        assert config.partial_dim(8) == 4  # floor at min_partial_dim

    def test_selection_size_and_bounds(self, rng):
        state = _state(InfiniGenSelector())
        state.observe_prefill(rng.normal(size=(2, 40, 8)))
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=10, step=0)
        for indices in selections:
            assert indices.shape[0] == 10
            assert indices.max() < 40

    def test_idealised_variant_matches_oracle_direction(self, rng):
        """With zero noise and full partial ratio, InfiniGen equals the oracle."""
        config = InfiniGenConfig(partial_ratio=1.0, speculation_noise=0.0)
        state = _state(InfiniGenSelector(config), n_kv_heads=1)
        keys = rng.normal(size=(1, 30, 8))
        state.observe_prefill(keys)
        query = rng.normal(size=(1, 1, 8))
        selections = state.select(query, budget=6, step=0)
        np.testing.assert_array_equal(
            selections[0], top_k_indices(keys[0] @ query[0, 0], 6)
        )

    def test_partial_keys_grow_with_decode(self, rng):
        state = _state(InfiniGenSelector())
        state.observe_prefill(rng.normal(size=(2, 16, 8)))
        aux_before = state.stats.aux_bytes
        state.observe_decode(rng.normal(size=(2, 4, 8)))
        assert state.context_length == 20
        assert state.stats.aux_bytes > aux_before

    def test_decode_before_prefill_raises(self, rng):
        state = _state(InfiniGenSelector())
        with pytest.raises(RuntimeError):
            state.observe_decode(rng.normal(size=(2, 1, 8)))

    def test_residency_cpu_and_fetch_accounting(self, rng):
        assert InfiniGenSelector().kv_residency is TierKind.CPU
        state = _state(InfiniGenSelector())
        state.observe_prefill(rng.normal(size=(2, 40, 8)))
        state.select(rng.normal(size=(2, 1, 8)), budget=10, step=0)
        assert state.stats.fetched_tokens == 2 * 10  # per kv head

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            InfiniGenConfig(partial_ratio=0.0)
        with pytest.raises(ValueError):
            InfiniGenConfig(speculation_noise=-1.0)


class TestH2O:
    """H2O scores raw keys, which the caller (the KV store's owner) passes."""

    def test_budget_respected(self, rng):
        state = _state(H2OSelector(), sinks=2)
        keys = rng.normal(size=(2, 40, 8))
        state.observe_prefill(keys)
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=12, step=0, keys=keys)
        for indices in selections:
            assert indices.shape[0] <= 14  # budget plus forced sinks margin

    def test_eviction_is_permanent(self, rng):
        """Tokens evicted at one step never reappear in later selections."""
        state = _state(H2OSelector(), sinks=2)
        keys = rng.normal(size=(2, 60, 8))
        state.observe_prefill(keys)
        first = state.select(rng.normal(size=(2, 1, 8)), budget=12, step=0, keys=keys)
        evicted = set(range(60)) - set(first[0].tolist())
        new = rng.normal(size=(2, 1, 8))
        state.observe_decode(new)
        keys = np.concatenate([keys, new], axis=1)
        second = state.select(rng.normal(size=(2, 1, 8)), budget=12, step=1, keys=keys)
        assert not (set(second[0].tolist()) & evicted)

    def test_new_tokens_enter_candidate_set(self, rng):
        state = _state(H2OSelector(), sinks=2)
        keys = rng.normal(size=(2, 30, 8))
        state.observe_prefill(keys)
        state.select(rng.normal(size=(2, 1, 8)), budget=10, step=0, keys=keys)
        new = rng.normal(size=(2, 1, 8))
        state.observe_decode(new)
        keys = np.concatenate([keys, new], axis=1)
        selections = state.select(rng.normal(size=(2, 1, 8)), budget=10, step=1, keys=keys)
        assert 30 in selections[0].tolist()

    def test_select_without_keys_raises(self, rng):
        state = _state(H2OSelector(), sinks=2)
        state.observe_prefill(rng.normal(size=(2, 30, 8)))
        with pytest.raises(ValueError, match="needs keys"):
            state.select(rng.normal(size=(2, 1, 8)), budget=10, step=0)
