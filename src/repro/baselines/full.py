"""Full KV cache baseline: no compression, every token is attended."""

from __future__ import annotations

import numpy as np

from ..memory import TierKind
from ..policies.registry import register_policy
from .base import KVSelectorFactory, LayerSelectorState

__all__ = ["FullKVLayerState", "FullKVSelector"]


class FullKVLayerState(LayerSelectorState):
    """Selects every cached token at every step (exact attention).

    Full attention needs no structure: observation only counts tokens.
    """

    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Select every cached token: one index row broadcast to every kv head."""
        indices = np.arange(self._num_tokens, dtype=np.int64)
        self.stats.selected_tokens += self._num_tokens * self.n_kv_heads
        self.stats.num_selections += 1
        return np.broadcast_to(indices, (self.n_kv_heads, self._num_tokens))


@register_policy("full", summary="uncompressed baseline: attend to every cached token")
class FullKVSelector(KVSelectorFactory):
    """Factory of the uncompressed baseline (paper's "Full KV")."""

    name = "full"
    kv_residency = TierKind.GPU
    state_cls = FullKVLayerState
