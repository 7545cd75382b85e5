"""Head-batched selection equals the historical per-head selectors.

Every ``LayerSelectorState`` selects for all kv heads in one batched pass.
This suite keeps the per-head ``select``/ingest code each policy had before
(the references below) and drives both through the same randomized
prefill plus 20 decode steps, asserting ``array_equal`` rows and equal
``SelectorStats`` after every step.  The cases cover 1, 2 and 4 kv heads,
prompts that do not fill their last Quest page, budgets at or above the
context and at or below H2O's forced set, Quest with and without
``include_last_page`` (the ragged case included), an InfiniGen head whose
scores have zero variance, and noise-free InfiniGen.  A protocol test then
checks what every registered policy returns at its default configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    FullKVSelector,
    H2OConfig,
    H2OSelector,
    InfiniGenConfig,
    InfiniGenSelector,
    OracleTopKSelector,
    QuestConfig,
    QuestSelector,
    StreamingLLMSelector,
    LayerSelectorState,
    clip_budget,
    merge_group_queries,
    top_k_indices,
)
from repro.core import ClusterKVConfig, ClusterKVSelector
from repro.core.clusterkv import ClusterKVLayerState
from repro.core.selection import select_clusters
from repro.model.tensor_ops import softmax
from repro.policies import available_policies, build_policy

DECODE_STEPS = 20
SINKS = 4


# ----------------------------------------------------------------------
# per-head references: each policy's selection before head batching
# ----------------------------------------------------------------------
def reference_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The historical 1-D top-k: lexsort on (-score, index)."""
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    k = min(k, scores.shape[0])
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return np.sort(order[:k].astype(np.int64))


class FullReference(LayerSelectorState):
    def select(self, queries, budget, step, keys=None):
        indices = np.arange(self._num_tokens, dtype=np.int64)
        self.stats.selected_tokens += self._num_tokens * self.n_kv_heads
        self.stats.num_selections += 1
        return [indices.copy() for _ in range(self.n_kv_heads)]


class StreamingReference(LayerSelectorState):
    def __init__(self, layer_idx, n_kv_heads, head_dim, num_sink_tokens):
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.num_sink_tokens = num_sink_tokens

    def select(self, queries, budget, step, keys=None):
        budget = clip_budget(budget, self._num_tokens)
        num_sinks = min(self.num_sink_tokens, self._num_tokens, budget)
        window = budget - num_sinks
        sinks = np.arange(num_sinks, dtype=np.int64)
        recent = np.arange(
            max(num_sinks, self._num_tokens - window), self._num_tokens, dtype=np.int64
        )
        indices = np.unique(np.concatenate([sinks, recent]))
        self.stats.selected_tokens += int(indices.shape[0]) * self.n_kv_heads
        self.stats.num_selections += 1
        return [indices.copy() for _ in range(self.n_kv_heads)]


class OracleReference(LayerSelectorState):
    def select(self, queries, budget, step, keys=None):
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        keys = self._require_keys(keys)
        selections = []
        for head in range(self.n_kv_heads):
            indices = reference_top_k(keys[head] @ merged[head], budget)
            selections.append(indices)
            self.stats.score_flops += int(2 * self._num_tokens * self.head_dim)
            self.stats.selected_tokens += int(indices.shape[0])
        self.stats.num_selections += 1
        return selections


class QuestReference(LayerSelectorState):
    def __init__(self, layer_idx, n_kv_heads, head_dim, config):
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.config = config
        self._page_max: list[np.ndarray] = []
        self._page_min: list[np.ndarray] = []
        self._page_counts: list[int] = []

    def observe_prefill(self, keys):
        self._ingest(keys)

    def observe_decode(self, keys):
        self._ingest(keys)

    def _ingest(self, keys):
        keys = self._validate_keys(keys)
        for t in range(keys.shape[1]):
            key_t = keys[:, t, :]
            if self._page_counts and self._page_counts[-1] < self.config.page_size:
                self._page_max[-1] = np.maximum(self._page_max[-1], key_t)
                self._page_min[-1] = np.minimum(self._page_min[-1], key_t)
                self._page_counts[-1] += 1
            else:
                self._page_max.append(key_t.copy())
                self._page_min.append(key_t.copy())
                self._page_counts.append(1)
            self._num_tokens += 1
            self.stats.build_flops += 2 * self.n_kv_heads * self.head_dim

    def select(self, queries, budget, step, keys=None):
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        num_pages = len(self._page_counts)
        pages_needed = max(1, budget // self.config.page_size)
        page_max = np.stack(self._page_max, axis=1)
        page_min = np.stack(self._page_min, axis=1)
        counts = np.asarray(self._page_counts, dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        selections = []
        for head in range(self.n_kv_heads):
            query = merged[head]
            bounds = np.sum(
                np.maximum(query[None, :] * page_max[head], query[None, :] * page_min[head]),
                axis=1,
            )
            self.stats.score_flops += int(4 * num_pages * self.head_dim)
            order = np.lexsort((np.arange(num_pages), -bounds))
            chosen = list(order[:pages_needed])
            if self.config.include_last_page and (num_pages - 1) not in chosen:
                chosen[-1] = num_pages - 1
            chosen_pages = np.unique(np.asarray(chosen, dtype=np.int64))
            pieces = [
                np.arange(starts[p], starts[p] + counts[p], dtype=np.int64)
                for p in chosen_pages
            ]
            indices = np.sort(np.concatenate(pieces))
            selections.append(indices)
            self.stats.selected_tokens += int(indices.shape[0])
        self.stats.num_selections += 1
        self.stats.aux_bytes = int(2 * num_pages * self.n_kv_heads * self.head_dim * 2)
        return selections


class InfiniGenReference(LayerSelectorState):
    def __init__(self, layer_idx, n_kv_heads, head_dim, config):
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.config = config
        self.partial_dim = config.partial_dim(head_dim)
        self._projections: list[np.ndarray] = []
        self._partial_blocks: list[list[np.ndarray]] = [[] for _ in range(n_kv_heads)]
        self._noise_rng = np.random.default_rng(config.seed + 7 * layer_idx + 1)

    def observe_prefill(self, keys):
        keys = self._validate_keys(keys)
        self._num_tokens = keys.shape[1]
        for head in range(self.n_kv_heads):
            _, _, vt = np.linalg.svd(keys[head], full_matrices=False)
            projection = vt[: self.partial_dim].T
            self._projections.append(projection)
            self._partial_blocks[head].append(keys[head] @ projection)
            self.stats.build_flops += int(
                keys.shape[1] * self.head_dim**2
                + 2 * keys.shape[1] * self.head_dim * self.partial_dim
            )
        self._refresh_aux_bytes()

    def observe_decode(self, keys):
        keys = self._validate_keys(keys)
        for head in range(self.n_kv_heads):
            self._partial_blocks[head].append(keys[head] @ self._projections[head])
            self.stats.build_flops += int(2 * keys.shape[1] * self.head_dim * self.partial_dim)
        self._num_tokens += keys.shape[1]
        self._refresh_aux_bytes()

    def select(self, queries, budget, step, keys=None):
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        selections = []
        for head in range(self.n_kv_heads):
            blocks = self._partial_blocks[head]
            if len(blocks) > 1:
                self._partial_blocks[head] = [np.concatenate(blocks, axis=0)]
            partial_keys = self._partial_blocks[head][0]
            estimated = partial_keys @ (merged[head] @ self._projections[head])
            if self.config.speculation_noise > 0.0:
                scale = float(np.std(estimated)) or 1.0
                estimated = estimated + self._noise_rng.normal(
                    scale=self.config.speculation_noise * scale, size=estimated.shape
                )
            indices = reference_top_k(estimated, budget)
            selections.append(indices)
            self.stats.score_flops += int(
                2 * self.head_dim * self.partial_dim + 2 * self._num_tokens * self.partial_dim
            )
            self.stats.selected_tokens += int(indices.shape[0])
            self.stats.fetched_tokens += int(indices.shape[0])
        self.stats.num_selections += 1
        return selections

    def _refresh_aux_bytes(self):
        self.stats.aux_bytes = int(self._num_tokens * self.partial_dim * self.n_kv_heads * 2)


class H2OReference(LayerSelectorState):
    def __init__(self, layer_idx, n_kv_heads, head_dim, config, num_sink_tokens):
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.config = config
        self.num_sink_tokens = num_sink_tokens
        self._retained = None
        self._accumulated = None
        self._seen_tokens = 0

    def select(self, queries, budget, step, keys=None):
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        keys = self._require_keys(keys)
        if self._retained is None:
            self._retained = [
                np.arange(self._num_tokens, dtype=np.int64) for _ in range(self.n_kv_heads)
            ]
            self._accumulated = [np.zeros(self._num_tokens) for _ in range(self.n_kv_heads)]
            self._seen_tokens = self._num_tokens
        recent_budget = int(round(budget * self.config.recent_ratio))
        selections = []
        for head in range(self.n_kv_heads):
            retained = self._retained[head]
            accumulated = self._accumulated[head]
            new_tokens = np.arange(self._seen_tokens, self._num_tokens, dtype=np.int64)
            if new_tokens.size:
                retained = np.concatenate([retained, new_tokens])
                accumulated = np.concatenate([accumulated, np.zeros(new_tokens.size)])
            scores = keys[head, retained, :] @ merged[head]
            accumulated = accumulated + softmax(scores / np.sqrt(self.head_dim))
            self.stats.score_flops += int(2 * retained.size * self.head_dim)
            recent_cutoff = self._num_tokens - max(recent_budget, 1)
            keep_mask = (retained < self.num_sink_tokens) | (retained >= recent_cutoff)
            remaining = budget - retained[keep_mask].size
            if remaining > 0:
                candidates = np.flatnonzero(~keep_mask)
                order = np.argsort(-accumulated[candidates], kind="stable")
                keep = np.concatenate([np.flatnonzero(keep_mask), candidates[order[:remaining]]])
            else:
                keep = np.flatnonzero(keep_mask)[:budget]
            keep = np.sort(keep)
            self._retained[head] = retained[keep]
            self._accumulated[head] = accumulated[keep]
            selection = np.sort(self._retained[head].copy())
            selections.append(selection)
            self.stats.selected_tokens += int(selection.shape[0])
        self._seen_tokens = self._num_tokens
        self.stats.num_selections += 1
        return selections


class ClusterKVReference(ClusterKVLayerState):
    """ClusterKV with the per-head select_clusters loop and cache accounting."""

    def select(self, queries, budget, step, keys=None):
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        sinks = self._sink_indices
        pending = np.arange(self._pending_start, self._num_tokens, dtype=np.int64)
        cluster_budget = max(0, budget - sinks.shape[0] - pending.shape[0])
        selections = []
        for head in range(self.n_kv_heads):
            outcome = select_clusters(
                merged[head],
                self.metadata[head],
                cluster_budget,
                score_metric=self.config.score_metric,
                trim_policy=self.config.trim_policy,
            )
            hits, misses = self.caches[head].access_counts(
                outcome.selected_labels, outcome.selected_sizes or []
            )
            indices = np.concatenate([sinks, outcome.token_indices, pending])
            selections.append(indices)
            self.stats.score_flops += outcome.score_flops
            self.stats.selected_tokens += int(indices.shape[0])
            self.stats.cache_hit_tokens += hits
            self.stats.cache_miss_tokens += misses
            self.stats.fetched_tokens += misses
        self.stats.num_selections += 1
        return selections


# ----------------------------------------------------------------------
# running a state and its reference side by side
# ----------------------------------------------------------------------
def drive(state, reference, heads, prompt_len, budget, seed, zero_variance_head=False):
    """Prefill plus DECODE_STEPS decode steps through both; returns the shapes seen."""
    rng = np.random.default_rng(seed)
    head_dim = state.head_dim
    keys = rng.normal(size=(heads, prompt_len + DECODE_STEPS, head_dim))
    if zero_variance_head:
        keys[0] = 0.0  # head 0 scores every token 0: zero variance
    state.observe_prefill(keys[:, :prompt_len])
    reference.observe_prefill(keys[:, :prompt_len])
    kinds = []
    for step in range(DECODE_STEPS):
        context = prompt_len + step + 1
        state.observe_decode(keys[:, context - 1 : context])
        reference.observe_decode(keys[:, context - 1 : context])
        queries = rng.normal(size=(heads, 2, head_dim))
        got = state.select(queries, budget, step, keys[:, :context])
        expected = reference.select(queries, budget, step, keys[:, :context])
        assert len(got) == heads
        for row, want in zip(got, expected):
            assert row.dtype == np.int64
            assert np.array_equal(row, want)
        assert state.stats == reference.stats
        kinds.append(type(got))
    return kinds


HEADS = (1, 2, 4)
# Context lengths: short prompts that leave the last 16-token page partial
# (37, 203), one that fills it (48), and a longer one (700).
PROMPTS = (37, 48, 203, 700)


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", PROMPTS)
@pytest.mark.parametrize("budget", (3, 24, 10_000))
def test_position_policies_match_reference(heads, prompt_len, budget):
    """Full and StreamingLLM: one broadcast row equals the per-head copies."""
    for factory, reference in (
        (FullKVSelector(), FullReference(0, heads, 8)),
        (StreamingLLMSelector(), StreamingReference(0, heads, 8, SINKS)),
    ):
        state = factory.create_layer_state(0, heads, 8, SINKS)
        kinds = drive(state, reference, heads, prompt_len, budget, seed=heads + budget)
        assert set(kinds) == {np.ndarray}


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", PROMPTS)
@pytest.mark.parametrize("budget", (5, 40, 10_000))
def test_oracle_matches_reference(heads, prompt_len, budget):
    state = OracleTopKSelector().create_layer_state(3, heads, 8, SINKS)
    drive(state, OracleReference(3, heads, 8), heads, prompt_len, budget, seed=prompt_len)


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", PROMPTS)
@pytest.mark.parametrize("budget", (16, 40, 10_000))
@pytest.mark.parametrize("include_last_page", (True, False))
def test_quest_matches_reference(heads, prompt_len, budget, include_last_page):
    config = QuestConfig(page_size=16, include_last_page=include_last_page)
    state = QuestSelector(config).create_layer_state(2, heads, 8, SINKS)
    reference = QuestReference(2, heads, 8, config)
    drive(state, reference, heads, prompt_len, budget, seed=budget + heads)


def test_quest_without_last_page_returns_ragged_rows():
    """Heads that disagree on the partial last page make ragged rows, as a list."""
    config = QuestConfig(page_size=16, include_last_page=False)
    state = QuestSelector(config).create_layer_state(2, 4, 8, SINKS)
    reference = QuestReference(2, 4, 8, config)
    kinds = drive(state, reference, 4, 37, 32, seed=1)
    assert list in kinds and np.ndarray in kinds


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", PROMPTS)
@pytest.mark.parametrize("budget", (6, 40, 10_000))
@pytest.mark.parametrize("noise", (0.6, 0.0))
def test_infinigen_matches_reference(heads, prompt_len, budget, noise):
    config = InfiniGenConfig(speculation_noise=noise, seed=heads)
    state = InfiniGenSelector(config).create_layer_state(1, heads, 16, SINKS)
    reference = InfiniGenReference(1, heads, 16, config)
    drive(state, reference, heads, prompt_len, budget, seed=prompt_len + heads)


@pytest.mark.parametrize("noise", (0.6, 0.0))
@pytest.mark.parametrize("prompt_len", (48, 700))
def test_infinigen_zero_variance_head_matches_reference(noise, prompt_len):
    """A head with all-zero scores takes the unit noise scale, or ties throughout."""
    config = InfiniGenConfig(speculation_noise=noise)
    state = InfiniGenSelector(config).create_layer_state(1, 2, 16, SINKS)
    reference = InfiniGenReference(1, 2, 16, config)
    drive(state, reference, 2, prompt_len, 24, seed=5, zero_variance_head=True)


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", PROMPTS)
# 3 and 6 are at or below the forced set (4 sinks plus the recent window).
@pytest.mark.parametrize("budget", (3, 6, 24, 10_000))
def test_h2o_matches_reference(heads, prompt_len, budget):
    config = H2OConfig()
    state = H2OSelector(config).create_layer_state(1, heads, 8, SINKS)
    reference = H2OReference(1, heads, 8, config, SINKS)
    kinds = drive(state, reference, heads, prompt_len, budget, seed=budget)
    assert set(kinds) == {np.ndarray}


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("prompt_len", (37, 203, 700))
@pytest.mark.parametrize("budget", (12, 40, 10_000))
@pytest.mark.parametrize("trim_policy", ("order", "centroid"))
def test_clusterkv_matches_reference(heads, prompt_len, budget, trim_policy):
    """Rows, score FLOPs and cluster-cache hits equal the per-head loop."""
    config = ClusterKVConfig(
        tokens_per_cluster=16, decode_window=8, decode_clusters=2, trim_policy=trim_policy
    )
    state = ClusterKVSelector(config).create_layer_state(0, heads, 8, SINKS)
    reference = ClusterKVReference(0, heads, 8, config, num_sink_tokens=SINKS)
    drive(state, reference, heads, prompt_len, budget, seed=budget + prompt_len)
    assert [c.hit_rate for c in state.caches] == [c.hit_rate for c in reference.caches]


class TestTopK:
    """The row-wise stable top-k ranks exactly as the lexsort it replaced."""

    @pytest.mark.parametrize("width", (7, 300, 1500))
    def test_rows_match_lexsort(self, width):
        rng = np.random.default_rng(width)
        for scores in (
            rng.normal(size=(3, width)),
            np.round(rng.normal(size=(3, width)), 1),  # many ties
            np.zeros((3, width)),  # all tied
        ):
            for k in (0, 1, 5, width - 1, width, width + 3):
                rows = top_k_indices(scores, k)
                for row, head_scores in zip(rows, scores):
                    assert np.array_equal(row, reference_top_k(head_scores, k))

    def test_one_dimensional_and_nan(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        scores[[3, 50, 700]] = np.nan
        for k in (10, 1997, 1999):
            assert np.array_equal(top_k_indices(scores, k), reference_top_k(scores, k))


# ----------------------------------------------------------------------
# the protocol every registered policy follows at its default config
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(available_policies()))
@pytest.mark.parametrize("heads", HEADS)
def test_default_policies_return_sorted_unique_matrices(policy, heads):
    rng = np.random.default_rng(heads)
    state = build_policy(policy).create_layer_state(1, heads, 16, SINKS)
    prompt_len = 300
    keys = rng.normal(size=(heads, prompt_len + DECODE_STEPS, 16))
    state.observe_prefill(keys[:, :prompt_len])
    for step in range(DECODE_STEPS):
        context = prompt_len + step + 1
        state.observe_decode(keys[:, context - 1 : context])
        rows = state.select(rng.normal(size=(heads, 2, 16)), 48, step, keys[:, :context])
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[0] == heads and rows.shape[1] > 0
        assert np.all(np.diff(rows, axis=1) > 0)
        assert rows.min() >= 0 and rows.max() < context
