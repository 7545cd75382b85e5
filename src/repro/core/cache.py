"""Cluster-granularity cache of selected KV entries (paper Sec. IV-D).

During decoding ClusterKV keeps the KV of the clusters selected in the last
``R`` decoding steps on the GPU.  At the current step, the labels of the
newly selected clusters are compared against the cached labels; only the KV
of clusters that are *not* cached needs to be loaded from CPU memory.

The cache works purely on cluster labels and token counts — the actual
tensors stay in the :class:`repro.model.kv_cache.KVCacheStore` — because the
quantity the experiments need is the hit rate and the number of bytes saved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterCacheLookup", "ClusterCache"]


@dataclass
class ClusterCacheLookup:
    """Outcome of probing the cache with the clusters selected at one step.

    Attributes
    ----------
    hit_labels / miss_labels:
        Selected cluster labels that were (respectively were not) present in
        the cache.
    hit_tokens / miss_tokens:
        The same split expressed in token counts, using the *selected* token
        counts per cluster (i.e. after budget trimming).
    """

    hit_labels: np.ndarray
    miss_labels: np.ndarray
    hit_tokens: int
    miss_tokens: int

    @property
    def hit_rate(self) -> float:
        """Token-level hit rate of this lookup."""
        total = self.hit_tokens + self.miss_tokens
        if total == 0:
            return 0.0
        return self.hit_tokens / total


class ClusterCache:
    """Per-head cache of the clusters selected during the last ``R`` steps."""

    def __init__(self, history: int = 1) -> None:
        if history < 0:
            raise ValueError("history must be non-negative")
        self.history = history
        self._recent: deque[set[int]] = deque(maxlen=max(history, 1))
        self._enabled = history > 0
        self.total_hit_tokens = 0
        self.total_miss_tokens = 0
        self.num_lookups = 0

    @property
    def cached_labels(self) -> set[int]:
        """Union of cluster labels cached from the retained steps."""
        if not self._enabled:
            return set()
        cached: set[int] = set()
        for step_labels in self._recent:
            cached |= step_labels
        return cached

    def lookup(
        self, selected_labels: np.ndarray, tokens_per_label: dict[int, int]
    ) -> ClusterCacheLookup:
        """Split the selected clusters into cache hits and misses.

        Parameters
        ----------
        selected_labels:
            Labels of the clusters selected at the current step.
        tokens_per_label:
            Number of selected tokens contributed by each label (after
            trimming), used for token-level accounting.
        """
        labels = np.asarray(selected_labels, dtype=np.int64).tolist()
        # Membership-only view of the cached labels; with a single retained
        # step (the common configuration) the set is used directly instead
        # of copying it through the ``cached_labels`` union.
        if not self._enabled:
            cached: set[int] = set()
        elif len(self._recent) == 1:
            cached = self._recent[0]
        else:
            cached = self.cached_labels
        hits: list[int] = []
        misses: list[int] = []
        hit_tokens = 0
        miss_tokens = 0
        for label in labels:
            tokens = tokens_per_label.get(label, 0)
            if label in cached:
                hits.append(label)
                hit_tokens += tokens
            else:
                misses.append(label)
                miss_tokens += tokens
        self.total_hit_tokens += hit_tokens
        self.total_miss_tokens += miss_tokens
        self.num_lookups += 1
        return ClusterCacheLookup(
            hit_labels=np.asarray(hits, dtype=np.int64),
            miss_labels=np.asarray(misses, dtype=np.int64),
            hit_tokens=hit_tokens,
            miss_tokens=miss_tokens,
        )

    def access_counts(
        self, selected_labels: np.ndarray, selected_sizes: list[int]
    ) -> tuple[int, int]:
        """Fused lookup-then-update for the decode hot path: ``(hit, miss)`` tokens.

        ``selected_sizes`` is the post-trim token count per label, aligned
        with ``selected_labels``.  Accounting is identical to
        :meth:`lookup` followed by :meth:`update`; the decode hot path
        needs nothing but the token split (the label arrays of
        :class:`ClusterCacheLookup` exist for tests and analyses), so this
        skips building them.
        """
        labels = selected_labels.tolist()
        if not self._enabled:
            cached: set[int] | tuple = ()
        elif len(self._recent) == 1:
            cached = self._recent[0]
        else:
            cached = self.cached_labels
        hit_tokens = 0
        miss_tokens = 0
        for label, tokens in zip(labels, selected_sizes):
            if label in cached:
                hit_tokens += tokens
            else:
                miss_tokens += tokens
        self.total_hit_tokens += hit_tokens
        self.total_miss_tokens += miss_tokens
        self.num_lookups += 1
        if self._enabled:
            self._recent.append(set(labels))
        return hit_tokens, miss_tokens

    def update(self, selected_labels: np.ndarray) -> None:
        """Record the clusters selected at the current step."""
        if not self._enabled:
            return
        self._recent.append({int(label) for label in np.asarray(selected_labels)})

    @property
    def hit_rate(self) -> float:
        """Token-level hit rate accumulated over all lookups."""
        total = self.total_hit_tokens + self.total_miss_tokens
        if total == 0:
            return 0.0
        return self.total_hit_tokens / total

    def reset(self) -> None:
        """Clear cached labels and statistics."""
        self._recent.clear()
        self.total_hit_tokens = 0
        self.total_miss_tokens = 0
        self.num_lookups = 0
