"""H2O baseline: non-recallable heavy-hitter eviction.

H2O (Zhang et al., NeurIPS 2023; paper reference [10]) keeps a fixed-size
cache of "heavy hitter" tokens — the tokens with the largest *accumulated*
attention weights — plus a window of the most recent tokens.  Crucially, the
attention weights used for eviction are computed only over the tokens that
are still retained; once a token is evicted it can never be recalled
(paper Fig. 1b).  This is the representative non-recallable method used in
the motivation study (paper Sec. II-C): tokens whose importance rises later
in decoding have already been discarded.
"""

from __future__ import annotations

import numpy as np

from ..memory import TierKind
from ..policies.registry import register_policy
from .base import (
    KVSelectorFactory,
    LayerSelectorState,
    clip_budget,
    merge_group_queries,
)
from ..model.tensor_ops import softmax

__all__ = ["H2OConfig", "H2OLayerState", "H2OSelector"]


class H2OConfig:
    """Configuration of the H2O baseline.

    Attributes
    ----------
    recent_ratio:
        Fraction of the budget reserved for the most recent tokens (the
        original work splits the budget evenly between heavy hitters and the
        recent window by default).
    """

    def __init__(self, recent_ratio: float = 0.5) -> None:
        if not 0.0 <= recent_ratio < 1.0:
            raise ValueError("recent_ratio must lie in [0, 1)")
        self.recent_ratio = recent_ratio


class H2OLayerState(LayerSelectorState):
    """Per-layer H2O state: retained token sets and accumulated scores of every kv head.

    Every head keeps ``min(budget, candidates)`` tokens at every step, and
    every head gains the same new tokens, so the per-head retained sets
    always have equal sizes and stack into ``(n_kv_heads, n)`` matrices.
    """

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: H2OConfig,
        num_sink_tokens: int = 0,
    ) -> None:
        super().__init__(layer_idx, n_kv_heads, head_dim, config, num_sink_tokens)
        # Retained token indices per head (rows sorted ascending) and their
        # accumulated attention mass.
        self._retained = np.zeros((n_kv_heads, 0), dtype=np.int64)
        self._accumulated = np.zeros((n_kv_heads, 0))
        # Highest token index (exclusive) already considered for retention;
        # anything beyond it is new and has not been evicted yet.
        self._seen_tokens = 0

    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Keep sinks, the recent window and the heaviest hitters; evicted tokens are never recalled.

        The first call retains the whole prompt: H2O accumulates attention
        during prefill, here the first query plays that role, after which
        eviction is greedy and permanent.
        """
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        keys = self._require_keys(keys)
        heads = self.n_kv_heads

        # New tokens since the last step join every head's candidates (they
        # have not been evicted yet); evicted tokens never come back.
        new = self._num_tokens - self._seen_tokens
        retained, accumulated = self._retained, self._accumulated
        if new:
            new_tokens = np.arange(self._seen_tokens, self._num_tokens, dtype=np.int64)
            retained = np.concatenate(
                [retained, np.broadcast_to(new_tokens, (heads, new))], axis=1
            )
            accumulated = np.concatenate([accumulated, np.zeros((heads, new))], axis=1)
        count = retained.shape[1]

        # Attention over the retained candidates only (non-recallable).
        candidates = keys[np.arange(heads)[:, None], retained]  # (H, n, d)
        scores = np.matmul(candidates, merged[:, :, None])[..., 0]
        accumulated = accumulated + softmax(scores / np.sqrt(self.head_dim), axis=-1)
        self.stats.score_flops += int(2 * count * self.head_dim) * heads

        # Keep sinks and the most recent tokens unconditionally (in position
        # order, the first ``budget`` of them if they alone overflow it),
        # then the heaviest hitters: one stable sort ranks the forced
        # tokens first and the rest by descending mass.
        recent_cutoff = self._num_tokens - max(int(round(budget * self.config.recent_ratio)), 1)
        forced = (retained < self.num_sink_tokens) | (retained >= recent_cutoff)
        rank = np.where(forced, -np.inf, -accumulated)
        keep = np.sort(np.argsort(rank, axis=1, kind="stable")[:, :budget], axis=1)
        self._retained = np.take_along_axis(retained, keep, axis=1)
        self._accumulated = np.take_along_axis(accumulated, keep, axis=1)
        self._seen_tokens = self._num_tokens
        self.stats.selected_tokens += self._retained.size
        self.stats.num_selections += 1
        return self._retained


@register_policy("h2o", summary="non-recallable heavy-hitter eviction plus recent window")
class H2OSelector(KVSelectorFactory):
    """Factory of the H2O (non-recallable heavy hitter) baseline."""

    name = "h2o"
    kv_residency = TierKind.GPU
    config_cls = H2OConfig
    state_cls = H2OLayerState
