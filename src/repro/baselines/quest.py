"""Quest baseline: query-aware page-level KV cache selection.

Quest (Tang et al., ICML 2024; paper reference [15]) divides the KV cache
into pages of ``page_size`` consecutive tokens and keeps, for every page,
the per-channel element-wise minimum and maximum of the keys in that page.
At every decoding step it computes an *upper bound* of the attention score a
page can achieve for the current query,

    bound(page) = sum_c max(q_c * max_key_c, q_c * min_key_c),

ranks pages by this bound and selects the top ``B / page_size`` pages.  All
tokens inside a selected page participate in attention — which is exactly
the internal-fragmentation weakness ClusterKV addresses (paper Fig. 3b).

Quest keeps the full KV cache in GPU memory (it reduces memory *accesses*,
not capacity), so ``kv_residency`` is the GPU tier and no fetch traffic is
charged.
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

__all__ = ["QuestConfig", "QuestLayerState", "QuestSelector"]

DEFAULT_PAGE_SIZE = 16


class QuestConfig:
    """Configuration of the Quest baseline.

    Attributes
    ----------
    page_size:
        Number of consecutive tokens per page (the original work uses 16).
    include_last_page:
        Whether the most recent (possibly partial) page is always selected;
        Quest always attends to the page containing the current token.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, include_last_page: bool = True) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.include_last_page = include_last_page


class QuestLayerState(LayerSelectorState):
    """Per-layer Quest state: per-page min/max key summaries."""

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: QuestConfig,
    ) -> None:
        super().__init__(layer_idx, n_kv_heads, head_dim)
        self.config = config
        # Page summaries: lists of (n_kv_heads, head_dim) arrays per page.
        self._page_max: list[np.ndarray] = []
        self._page_min: list[np.ndarray] = []
        self._page_counts: list[int] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_prefill(self, keys: np.ndarray) -> None:
        """Fold the prompt keys into per-page min/max summaries."""
        self._ingest(keys)

    def observe_decode(self, keys: np.ndarray) -> None:
        """Fold newly decoded keys into per-page min/max summaries."""
        self._ingest(keys)

    def _ingest(self, keys: np.ndarray) -> None:
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
            # Building the per-channel min/max costs two comparisons per
            # channel per token: O(L * d) as in the paper (Sec. III-D).
            self.stats.build_flops += 2 * self.n_kv_heads * self.head_dim

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Rank pages by their score upper bound and take whole pages until the budget is met."""
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        num_pages = len(self._page_counts)
        if num_pages == 0:
            self.stats.num_selections += 1
            return [np.zeros(0, dtype=np.int64) for _ in range(self.n_kv_heads)]

        pages_needed = max(1, budget // self.config.page_size)
        page_max = np.stack(self._page_max, axis=1)  # (H, num_pages, d)
        page_min = np.stack(self._page_min, axis=1)
        counts = np.asarray(self._page_counts, dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]

        selections: list[np.ndarray] = []
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

    @property
    def num_pages(self) -> int:
        """Number of pages currently summarised."""
        return len(self._page_counts)


@register_policy(
    "quest",
    config_cls=QuestConfig,
    summary="page-level selection by per-page min/max score bounds",
)
class QuestSelector(KVSelectorFactory):
    """Factory of the Quest baseline."""

    name = "quest"
    kv_residency = TierKind.GPU

    def __init__(self, config: QuestConfig | None = None) -> None:
        self.config = config or QuestConfig()

    def create_layer_state(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        num_sink_tokens: int,
    ) -> QuestLayerState:
        """Create the Quest page-summary state of one layer."""
        return QuestLayerState(layer_idx, n_kv_heads, head_dim, self.config)

    def describe(self) -> dict[str, object]:
        """Method configuration: the full page-summary settings."""
        description = super().describe()
        description.update(
            page_size=self.config.page_size,
            include_last_page=self.config.include_last_page,
        )
        return description
