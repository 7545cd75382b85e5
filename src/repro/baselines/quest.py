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
    """Per-layer Quest state: per-page min/max key summaries of every kv head.

    Page ``p`` covers tokens ``[p * page_size, (p + 1) * page_size)``; only
    the last page can be partial.  The summaries of all heads live in two
    preallocated page-major ``(page capacity, n_kv_heads, head_dim)`` arrays
    that grow in place: selection reads one slice instead of restacking
    pages, and a decode token updates one contiguous block.
    """

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: QuestConfig,
        num_sink_tokens: int = 0,
    ) -> None:
        super().__init__(layer_idx, n_kv_heads, head_dim, config, num_sink_tokens)
        self._page_max = np.zeros((0, n_kv_heads, head_dim))
        self._page_min = np.zeros((0, n_kv_heads, head_dim))
        self._num_pages = 0

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
        size = self.config.page_size
        total = keys.shape[1]
        # Building the per-channel min/max costs two comparisons per
        # channel per token: O(L * d) as in the paper (Sec. III-D).
        self.stats.build_flops += 2 * self.n_kv_heads * self.head_dim * total
        pos = min(-self._num_tokens % size, total)  # tokens topping up the last page
        self._num_tokens += total
        if total == 1:  # a decode step: its key is its own min and max
            key = keys[:, 0]
            if pos:
                page = self._page_max[self._num_pages - 1]
                np.maximum(page, key, out=page)
                page = self._page_min[self._num_pages - 1]
                np.minimum(page, key, out=page)
            else:
                page_max, page_min = self._reserve_pages(self._num_pages + 1)
                page_max[self._num_pages] = page_min[self._num_pages] = key
                self._num_pages += 1
            return
        if pos:
            page = self._page_max[self._num_pages - 1]
            np.maximum(page, keys[:, :pos].max(axis=1), out=page)
            page = self._page_min[self._num_pages - 1]
            np.minimum(page, keys[:, :pos].min(axis=1), out=page)
        if pos == total:
            return
        first = self._num_pages
        self._num_pages += -(-(total - pos) // size)
        page_max, page_min = self._reserve_pages(self._num_pages)
        # One reduction per array folds every whole page, one more the tail.
        whole = (total - pos) // size
        if whole:
            blocks = keys[:, pos : pos + whole * size].reshape(
                self.n_kv_heads, whole, size, self.head_dim
            )
            page_max[first : first + whole] = blocks.max(axis=2).swapaxes(0, 1)
            page_min[first : first + whole] = blocks.min(axis=2).swapaxes(0, 1)
        tail = keys[:, pos + whole * size :]
        if tail.shape[1]:
            page_max[first + whole] = tail.max(axis=1)
            page_min[first + whole] = tail.min(axis=1)

    def _reserve_pages(self, needed: int) -> tuple[np.ndarray, np.ndarray]:
        """The summary arrays, grown by doubling to hold ``needed`` pages."""
        capacity = self._page_max.shape[0]
        if needed > capacity:
            capacity = max(needed, 2 * capacity, 4)
            for name in ("_page_max", "_page_min"):
                old = getattr(self, name)
                grown = np.zeros((capacity, self.n_kv_heads, self.head_dim))
                grown[: old.shape[0]] = old
                setattr(self, name, grown)
        return self._page_max, self._page_min

    def _export_fields(self) -> dict[str, object]:
        # Only the summarised pages; the next new page regrows the arrays.
        pages = self._num_pages
        return {
            **self.__dict__,
            "_page_max": self._page_max[:pages],
            "_page_min": self._page_min[:pages],
        }

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray | list[np.ndarray]:
        """Rank pages by their score upper bound and take whole pages until the budget is met.

        Every kv head is bounded, ranked and expanded to tokens in one
        pass.  The rows are ragged only without ``include_last_page``, when
        some heads pick the partial last page and others do not.
        """
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        num_pages = self._num_pages
        if num_pages == 0:
            self.stats.num_selections += 1
            return np.zeros((self.n_kv_heads, 0), dtype=np.int64)

        size = self.config.page_size
        pages_needed = max(1, budget // size)
        bounds = np.maximum(
            merged * self._page_max[:num_pages], merged * self._page_min[:num_pages]
        ).sum(axis=2).T  # (H, num_pages)
        self.stats.score_flops += int(4 * num_pages * self.head_dim) * self.n_kv_heads

        # Stable: of two pages with equal bounds the earlier ranks first.
        chosen = np.argsort(-bounds, axis=1, kind="stable")[:, :pages_needed]
        last_page = num_pages - 1
        has_last = (chosen == last_page).any(axis=1)
        if self.config.include_last_page and not has_last.all():
            chosen[~has_last, -1] = last_page
            has_last[:] = True
        chosen.sort(axis=1)
        rows = (chosen[:, :, None] * size + np.arange(size)).reshape(self.n_kv_heads, -1)
        # The last page is the largest one in a row holding it, so trimming
        # it to its length drops that row's tail.
        cut = num_pages * size - self._num_tokens
        if cut and has_last.all():
            rows = rows[:, :-cut]
        elif cut and has_last.any():
            rows = [row[:-cut] if last else row for row, last in zip(rows, has_last)]
        self.stats.selected_tokens += int(
            self.n_kv_heads * chosen.shape[1] * size - cut * has_last.sum()
        )
        self.stats.num_selections += 1
        self.stats.aux_bytes = int(2 * num_pages * self.n_kv_heads * self.head_dim * 2)
        return rows

    @property
    def num_pages(self) -> int:
        """Number of pages currently summarised."""
        return self._num_pages


@register_policy("quest", summary="page-level selection by per-page min/max score bounds")
class QuestSelector(KVSelectorFactory):
    """Factory of the Quest baseline."""

    name = "quest"
    kv_residency = TierKind.GPU
    config_cls = QuestConfig
    state_cls = QuestLayerState
