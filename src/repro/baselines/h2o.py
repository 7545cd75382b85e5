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
    """Per-layer H2O state: retained token sets and accumulated scores."""

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: H2OConfig,
        num_sink_tokens: int,
    ) -> None:
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.config = config
        self.num_sink_tokens = num_sink_tokens
        # Per-head retained indices and their accumulated attention mass.
        self._retained: list[np.ndarray] | None = None
        self._accumulated: list[np.ndarray] | None = None
        # Highest token index (exclusive) already considered for retention;
        # anything beyond it is new and has not been evicted yet.
        self._seen_tokens = 0

    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Keep sinks, the recent window and the heaviest hitters; evicted tokens are never recalled."""
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        keys = self._require_keys(keys)
        if self._retained is None:
            # First decoding step: initialise the retained set from the full
            # prompt.  H2O accumulates attention during prefill; here the
            # first query plays that role, after which eviction is greedy and
            # permanent.
            self._retained = [
                np.arange(self._num_tokens, dtype=np.int64)
                for _ in range(self.n_kv_heads)
            ]
            self._accumulated = [np.zeros(self._num_tokens) for _ in range(self.n_kv_heads)]
            self._seen_tokens = self._num_tokens

        recent_budget = int(round(budget * self.config.recent_ratio))
        selections: list[np.ndarray] = []
        for head in range(self.n_kv_heads):
            retained = self._retained[head]
            accumulated = self._accumulated[head]

            # New tokens since the last step are always added to the candidate
            # set (they have not been evicted yet); previously evicted tokens
            # are never re-added (non-recallable).
            new_tokens = np.arange(self._seen_tokens, self._num_tokens, dtype=np.int64)
            if new_tokens.size:
                retained = np.concatenate([retained, new_tokens])
                accumulated = np.concatenate([accumulated, np.zeros(new_tokens.size)])

            # Attention over the retained candidates only (non-recallable).
            scores = keys[head, retained, :] @ merged[head]
            weights = softmax(scores / np.sqrt(self.head_dim))
            accumulated = accumulated + weights
            self.stats.score_flops += int(2 * retained.size * self.head_dim)

            # Keep sinks and the most recent tokens unconditionally, fill the
            # rest of the budget with the heaviest hitters.
            recent_cutoff = self._num_tokens - max(recent_budget, 1)
            keep_mask = (retained < self.num_sink_tokens) | (retained >= recent_cutoff)
            forced = retained[keep_mask]
            remaining = budget - forced.size
            if remaining > 0:
                candidate_mask = ~keep_mask
                candidate_indices = np.flatnonzero(candidate_mask)
                order = np.argsort(-accumulated[candidate_indices], kind="stable")
                chosen = candidate_indices[order[:remaining]]
                keep_positions = np.concatenate([np.flatnonzero(keep_mask), chosen])
            else:
                keep_positions = np.flatnonzero(keep_mask)[:budget]

            keep_positions = np.sort(keep_positions)
            self._retained[head] = retained[keep_positions]
            self._accumulated[head] = accumulated[keep_positions]
            selection = np.sort(self._retained[head].copy())
            selections.append(selection)
            self.stats.selected_tokens += int(selection.shape[0])
        self._seen_tokens = self._num_tokens
        self.stats.num_selections += 1
        return selections


@register_policy(
    "h2o",
    config_cls=H2OConfig,
    summary="non-recallable heavy-hitter eviction plus recent window",
)
class H2OSelector(KVSelectorFactory):
    """Factory of the H2O (non-recallable heavy hitter) baseline."""

    name = "h2o"
    kv_residency = TierKind.GPU

    def __init__(self, config: H2OConfig | None = None) -> None:
        self.config = config or H2OConfig()

    def create_layer_state(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        num_sink_tokens: int,
    ) -> H2OLayerState:
        """Create the H2O eviction state of one layer."""
        return H2OLayerState(layer_idx, n_kv_heads, head_dim, self.config, num_sink_tokens)

    def describe(self) -> dict[str, object]:
        """Method configuration: the budget split between hitters and window."""
        description = super().describe()
        description.update(recent_ratio=self.config.recent_ratio)
        return description
