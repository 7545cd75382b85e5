"""StreamingLLM baseline: attention sinks plus a sliding window.

StreamingLLM (Xiao et al., ICLR 2024; paper reference [9]) is the simplest
fixed-pattern compression: it always keeps the first few "attention sink"
tokens and a sliding window of the most recent tokens, and permanently drops
everything else.  The paper cites it as the canonical fixed-pattern,
non-recallable method; it is included here for the motivation experiments
and as a lower bound for selection quality.
"""

from __future__ import annotations

import numpy as np

from ..memory import TierKind
from ..policies.registry import register_policy
from .base import KVSelectorFactory, LayerSelectorState, clip_budget

__all__ = ["StreamingLLMLayerState", "StreamingLLMSelector"]


class StreamingLLMLayerState(LayerSelectorState):
    """Sink tokens plus the most recent ``budget - sinks`` tokens."""

    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Select the sink tokens plus the most recent window, one row for every kv head."""
        budget = clip_budget(budget, self._num_tokens)
        num_sinks = min(self.num_sink_tokens, self._num_tokens, budget)
        window = budget - num_sinks
        sinks = np.arange(num_sinks, dtype=np.int64)
        recent = np.arange(
            max(num_sinks, self._num_tokens - window), self._num_tokens, dtype=np.int64
        )
        # Sinks end where the window may start at the earliest: the two
        # ranges are disjoint and ascending, so they concatenate sorted.
        indices = np.concatenate([sinks, recent])
        self.stats.selected_tokens += int(indices.shape[0]) * self.n_kv_heads
        self.stats.num_selections += 1
        return np.broadcast_to(indices, (self.n_kv_heads, indices.shape[0]))


@register_policy(
    "streaming_llm", summary="fixed pattern: attention sinks plus a sliding window"
)
class StreamingLLMSelector(KVSelectorFactory):
    """Factory of the StreamingLLM (sink + sliding window) baseline."""

    name = "streaming_llm"
    kv_residency = TierKind.GPU
    state_cls = StreamingLLMLayerState
