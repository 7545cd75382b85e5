"""Exact top-k oracle selector.

Selects the ``B`` tokens with the largest true attention scores ``q·k`` at
every step.  This is the ideal (but prohibitively expensive, ``O(Ld)``)
selection the paper formulates in Sec. III-A; it serves as the ground truth
of the recall-rate experiments (Fig. 11) and as an accuracy upper bound for
any budget-constrained method.
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

__all__ = ["OracleTopKLayerState", "OracleTopKSelector", "top_k_indices"]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of ``scores``, sorted ascending.

    A 2-D ``scores`` is ranked row by row, giving one row of indices per
    row.  Ties are broken deterministically in favour of smaller indices,
    as a stable sort of ``-scores`` orders them.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    k = max(0, min(k, neg.shape[-1]))
    order = np.argsort(neg, axis=-1, kind="stable")[..., :k]
    return np.sort(order, axis=-1).astype(np.int64, copy=False)


class OracleTopKLayerState(LayerSelectorState):
    """Scores every key exactly and selects the top-``B`` per kv head.

    Observation only counts tokens: ``select`` reads the keys it is handed.
    """

    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Select the exact top-``B`` tokens by true score, every kv head in one GEMM."""
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        keys = self._require_keys(keys)
        scores = np.matmul(keys, merged[:, :, None])[..., 0]  # (n_kv_heads, L)
        rows = top_k_indices(scores, budget)
        self.stats.score_flops += int(2 * self._num_tokens * self.head_dim) * self.n_kv_heads
        self.stats.selected_tokens += rows.size
        self.stats.num_selections += 1
        return rows


@register_policy("oracle", summary="exact top-k selection by true attention scores")
class OracleTopKSelector(KVSelectorFactory):
    """Factory of the exact top-k oracle."""

    name = "oracle"
    kv_residency = TierKind.GPU
    state_cls = OracleTopKLayerState
