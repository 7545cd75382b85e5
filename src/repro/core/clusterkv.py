"""ClusterKV: recallable KV cache compression at semantic-cluster granularity.

This module ties together the pieces of the paper's contribution:

* clustering of prompt keys after prefill and of decoded keys every
  ``m`` steps (:mod:`repro.core.clustering`, paper Sec. III-B),
* per-head cluster metadata for constant-time indexing
  (:mod:`repro.core.metadata`, paper Sec. IV-C),
* selection of the closest clusters until the token budget is met
  (:mod:`repro.core.selection`, paper Sec. III-C), and
* the cluster-granularity GPU cache that avoids re-fetching recently
  selected clusters from CPU memory (:mod:`repro.core.cache`,
  paper Sec. IV-D).

The class implements the generic :class:`repro.baselines.base.LayerSelectorState`
interface so the inference engine treats ClusterKV exactly like any baseline.

As in the paper, the full KV cache lives once, in the request's
:class:`~repro.model.kv_cache.KVCacheStore` (host memory); a layer state
holds only compact cluster metadata plus two key-derived things: the keys
of the decode tokens not yet clustered (at most about ``decode_window``
of them — the paper keeps these on the GPU until their window is
clustered) and, under the non-default ``trim_policy="centroid"``, each
clustered token's centroid affinity.  Selection therefore never reads a
key, which is what lets it run while the store's cold pages sit on SSD.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..baselines.base import (
    KVSelectorFactory,
    LayerSelectorState,
    clip_budget,
    merge_group_queries,
)
from ..memory import TierKind
from ..perf import counters
from ..policies.registry import register_policy
from .cache import ClusterCache
from .clustering import ClusteringResult, clustering_flops, kmeans_cluster_batch
from .config import ClusterKVConfig
from .metadata import ClusterMetadata
from .selection import selection_from_order

__all__ = ["ClusterKVLayerState", "ClusterKVSelector"]


class ClusterKVLayerState(LayerSelectorState):
    """Per-layer ClusterKV state: clusters, metadata and cache for every kv head."""

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: ClusterKVConfig,
        num_sink_tokens: int | None = None,
    ) -> None:
        if num_sink_tokens is None:
            num_sink_tokens = config.num_sink_tokens
        super().__init__(layer_idx, n_kv_heads, head_dim, config, num_sink_tokens)
        self.metadata = [ClusterMetadata(head_dim) for _ in range(n_kv_heads)]
        self.caches = [ClusterCache(config.cache_history) for _ in range(n_kv_heads)]
        # Every head's metadata stacked along a head axis (see
        # _centroid_stack), rebuilt lazily after clustering appends; lets
        # select() score, sort, prefix-sum and assemble every head's
        # clusters in batched NumPy calls instead of per-head loops.
        self._stacked: tuple[np.ndarray, ...] | None = None
        self._sink_indices = np.zeros(0, dtype=np.int64)
        # (n_kv_heads, t, head_dim) key blocks of the decode tokens not yet
        # clustered; emptied each time their window is clustered.
        self._pending_keys: list[np.ndarray] = []
        self._num_sinks_held = 0
        self._pending_start = 0  # absolute index of the first unclustered decode token
        self._prefilled = False
        # Segmented-prefill bookkeeping for the cross-request prefix cache:
        # full segments clustered (or adopted) by this state, and segments
        # restored from a cached prefix ahead of observe_prefill.  Both map
        # absolute (seg_start, seg_end) to per-head ClusteringResult tuples.
        self._prefill_segments: dict[tuple[int, int], tuple] = {}
        self._restored_segments: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_prefill(self, keys: np.ndarray) -> None:
        """Cluster the prompt keys into semantic clusters (paper Sec. III-B)."""
        keys = self._validate_keys(keys)
        if self._prefilled:
            raise RuntimeError("observe_prefill called twice")
        length = keys.shape[1]
        self._num_tokens = length
        self._prefilled = True

        self._num_sinks_held = min(self.num_sink_tokens, length)
        self._sink_indices = np.arange(self._num_sinks_held, dtype=np.int64)
        if self.config.prefill_segment_tokens is not None:
            self._observe_prefill_segmented(keys, length)
        else:
            clusterable = keys[:, self._num_sinks_held :, :]
            n_clusters = self.config.num_prefill_clusters(clusterable.shape[1])
            if n_clusters > 0:
                # All heads in one batched k-means; head h runs under seed
                # base + h, matching the historical per-head calls bit for bit.
                results = kmeans_cluster_batch(
                    clusterable,
                    n_clusters,
                    metric=self.config.distance_metric,
                    max_iters=self.config.max_kmeans_iters,
                    seed=self.config.kmeans_seed + self.layer_idx * 131,
                )
                self._append_clusterings([(results, self._num_sinks_held, clusterable, True)])
        self._pending_start = length
        self._refresh_aux_bytes()

    def _observe_prefill_segmented(self, keys: np.ndarray, length: int) -> None:
        """Cluster the prompt in absolute-position segments (prefix-compositional).

        Each segment ``[sinks + i*S, sinks + (i+1)*S)`` is clustered
        independently under a seed derived from its absolute start, so a
        segment's clusters depend only on its own keys and position —
        never on what follows.  Segments restored from the prefix cache
        (via :meth:`restore_prefix_state`) are adopted verbatim, skipping
        their k-means entirely; the remaining segments are computed and
        are bit-identical to what a cache-off run produces.
        """
        segment = self.config.prefill_segment_tokens
        assert segment is not None
        runs = []
        for seg_start in range(self._num_sinks_held, length, segment):
            seg_end = min(seg_start + segment, length)
            window = seg_end - seg_start
            block = keys[:, seg_start:seg_end, :]
            results = self._restored_segments.get((seg_start, seg_end))
            built = results is None
            if built:
                n_clusters = self.config.num_prefill_clusters(window)
                if n_clusters <= 0:
                    continue
                results = tuple(
                    kmeans_cluster_batch(
                        block,
                        n_clusters,
                        metric=self.config.distance_metric,
                        max_iters=self.config.max_kmeans_iters,
                        seed=self.config.kmeans_seed
                        + self.layer_idx * 131
                        + 7919 * seg_start,
                    )
                )
            runs.append((results, seg_start, block, built))
            if window == segment:
                self._prefill_segments[(seg_start, seg_end)] = tuple(results)
        # Every segment, restored or computed, lands in one metadata append
        # per head: appending segment by segment re-concatenates the growing
        # metadata arrays once per segment.
        self._append_clusterings(runs)
        self._restored_segments = {}

    def _append_clusterings(
        self, runs: Sequence[tuple[Sequence[ClusteringResult], int, np.ndarray, bool]]
    ) -> None:
        """Append clustering runs, one metadata append per head for all of them.

        A run is ``(results, token_offset, keys, built)``: one clustering
        per head over the ``(n_kv_heads, t, head_dim)`` ``keys`` block
        starting at ``token_offset``.  ``built`` charges the run's k-means
        FLOPs (a segment adopted from the prefix cache cost nothing here).
        Under the "centroid" trim policy the block keys also go to the
        metadata, which records each member's centroid affinity once, so
        selection never reads a key.
        """
        centroid_trim = self.config.trim_policy == "centroid"
        for head, metadata in enumerate(self.metadata):
            metadata.append_clusterings(
                [
                    (results[head], offset, keys[head] if centroid_trim else None)
                    for results, offset, keys, _ in runs
                ]
            )
        for results, _, keys, built in runs:
            if built:
                for result in results:
                    self.stats.build_flops += clustering_flops(
                        keys.shape[1], result.centroids.shape[0], self.head_dim, result.n_iters
                    )
        self._stacked = None

    # ------------------------------------------------------------------
    # prefix-cache hooks
    # ------------------------------------------------------------------
    def export_prefix_state(self, prefix_len: int) -> dict[tuple[int, int], object]:
        """Full prefill segments ending within ``prefix_len``, for the cache.

        Only segmented-prefill states export anything: whole-prompt
        clustering depends on the suffix and cannot be reused.  Partial
        trailing segments are withheld — they would not recur at the same
        boundaries in a longer prompt.
        """
        if self.config.prefill_segment_tokens is None:
            return {}
        return {
            span: results
            for span, results in self._prefill_segments.items()
            if span[1] <= prefix_len
        }

    def restore_prefix_state(self, segments: dict[tuple[int, int], object]) -> None:
        """Adopt cached prefill segments; consumed by ``observe_prefill``."""
        if self._prefilled:
            raise RuntimeError("restore_prefix_state called after observe_prefill")
        if self.config.prefill_segment_tokens is None:
            return
        self._restored_segments = dict(segments)  # type: ignore[arg-type]

    def observe_decode(self, keys: np.ndarray) -> None:
        """Buffer decoded keys; cluster them every ``decode_window`` tokens."""
        keys = self._validate_keys(keys)
        if not self._prefilled:
            raise RuntimeError("observe_decode called before observe_prefill")
        self._pending_keys.append(keys.copy())
        self._num_tokens += keys.shape[1]
        if self._num_tokens - self._pending_start >= self.config.decode_window:
            self._cluster_pending_window()

    def _cluster_pending_window(self) -> None:
        """Cluster the buffered decode tokens into ``C+`` new clusters."""
        end = self._num_tokens
        keys = np.concatenate(self._pending_keys, axis=1)
        self._pending_keys = []
        results = kmeans_cluster_batch(
            keys,
            min(self.config.decode_clusters, keys.shape[1]),
            metric=self.config.distance_metric,
            max_iters=self.config.max_kmeans_iters,
            seed=self.config.kmeans_seed + self.layer_idx * 131 + 7919 * end,
        )
        self._append_clusterings([(results, self._pending_start, keys, True)])
        self._pending_start = end
        self._refresh_aux_bytes()

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Select the clusters closest to the query until the budget is met (paper Sec. III-C).

        Returns one ``(n_kv_heads, S)`` matrix: every head selects the same
        number of tokens.  ``keys`` is ignored: selection reads only cluster
        metadata.
        """
        merged = merge_group_queries(queries)
        if merged.shape != (self.n_kv_heads, self.head_dim):
            raise ValueError(
                f"expected merged queries of shape ({self.n_kv_heads}, {self.head_dim}),"
                f" got {merged.shape}"
            )
        budget = clip_budget(budget, self._num_tokens)

        # Tokens that are always attended: the attention sinks and the decode
        # tokens that have not been clustered yet (they still live on the GPU).
        # They come on top of the cluster budget, so once the pending tokens
        # exceed ``budget - sinks`` a selection holds more than ``budget``.
        num_sinks = self._sink_indices.shape[0]
        pending_start = self._pending_start
        cluster_budget = max(0, budget - num_sinks - (self._num_tokens - pending_start))

        clustered = self._select_all_heads(merged, cluster_budget)
        # Clusters only ever cover [num_sinks_held, pending_start) and every
        # row of cluster tokens is sorted, so sinks, clustered tokens and
        # pending tokens side by side make sorted, unique rows.
        width = clustered.shape[1]
        rows = np.empty(
            (self.n_kv_heads, num_sinks + width + self._num_tokens - pending_start),
            dtype=np.int64,
        )
        rows[:, :num_sinks] = self._sink_indices
        rows[:, num_sinks : num_sinks + width] = clustered
        rows[:, num_sinks + width :] = np.arange(pending_start, self._num_tokens)
        self.stats.selected_tokens += rows.size
        self.stats.num_selections += 1
        return rows

    def _account(self, labels: Sequence[np.ndarray], sizes: Sequence[list[int]]) -> None:
        """Charge every head's cluster cache with its selected labels and post-trim sizes."""
        hit_tokens = 0
        miss_tokens = 0
        for cache, head_labels, head_sizes in zip(self.caches, labels, sizes):
            hits, misses = cache.access_counts(head_labels, head_sizes)
            hit_tokens += hits
            miss_tokens += misses
        stats = self.stats
        stats.cache_hit_tokens += hit_tokens
        stats.cache_miss_tokens += miss_tokens
        stats.fetched_tokens += miss_tokens

    def _centroid_stack(self) -> tuple[np.ndarray, ...] | None:
        """Every head's cluster metadata stacked along a leading head axis.

        Returns ``(centroids, norms, spans, members)``: the ``(n_kv_heads,
        C, d)`` centroids, the ``(n_kv_heads, C)`` norms, the
        ``(n_kv_heads, N)`` token indices grouped by cluster, and ``spans``
        of shape ``(2, n_kv_heads, C)``: every cluster's size, and the
        offset of its members in the flattened ``members`` (head ``h``'s
        size prefix sum plus ``h * N``).  Every clustering run appends the
        same number of clusters over the same tokens to every head, so the
        per-head arrays always stack; the stack is rebuilt lazily after
        appends.  Returns ``None`` while no cluster exists.
        """
        if self._stacked is None:
            # Clustering appends null the cache, so a non-None stack is
            # current; the uniformity check runs only on rebuild.
            counts = {meta.num_clusters for meta in self.metadata}
            if len(counts) != 1:
                raise RuntimeError(f"kv heads hold different cluster counts {sorted(counts)}")
            if 0 in counts:
                return None
            centroids, norms, sizes, prefix, members = (
                np.stack([getattr(meta, name) for meta in self.metadata])
                for name in (
                    "centroids",
                    "centroid_norms",
                    "cluster_sizes",
                    "prefix_sum",
                    "sorted_indices",
                )
            )
            offsets = prefix + members.shape[1] * np.arange(self.n_kv_heads)[:, None]
            self._stacked = (centroids, norms, np.stack([sizes, offsets]), members)
        return self._stacked

    def _score_all_heads(
        self, merged: np.ndarray, centroids: np.ndarray, norms: np.ndarray
    ) -> np.ndarray:
        """Centroid scores of every kv head in one batched GEMM.

        ``merged`` is the ``(n_kv_heads, d)`` group-merged query.  The
        returned ``(n_kv_heads, C)`` rows equal the per-head
        :func:`~repro.core.selection.score_centroids` results; cosine reads
        the cached :attr:`~repro.core.ClusterMetadata.centroid_norms`
        instead of renormalising static centroids every step.
        """
        metric = self.config.score_metric
        if metric not in ("ip", "cosine"):
            raise ValueError(f"unknown score metric {metric!r}")
        scores = np.matmul(centroids, merged[:, :, None])[..., 0]
        counters.record("gemm.selection_score", 1)
        if metric == "ip":
            return scores
        q_norms = np.linalg.norm(merged, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms) * np.where(
            q_norms == 0.0, 1.0, q_norms
        )[:, None]
        return scores / safe

    def _select_all_heads(self, merged: np.ndarray, cluster_budget: int) -> np.ndarray:
        """Clustered tokens selected for every kv head, as ``(n_kv_heads, S)`` sorted rows.

        Scoring (one batched GEMM), the descending stable sort, the size
        prefix sums and, under the default "order" trim policy, the
        assembly of the token rows run for all heads in single NumPy calls.
        Every head takes ``min(cluster_budget, clustered tokens)`` tokens,
        so the rows have equal length.  The rows, the score FLOPs and the
        cluster-cache accounting are identical to per-head
        :func:`~repro.core.selection.select_clusters` calls; the "centroid"
        trim policy assembles each head through
        :func:`~repro.core.selection.selection_from_order`.
        """
        heads = self.n_kv_heads
        stack = self._centroid_stack() if cluster_budget > 0 else None
        if stack is None:
            # No budget left for clusters, or none built yet: every head
            # takes nothing, and its cache still records the empty step.
            empty = np.zeros(0, dtype=np.int64)
            self._account([empty] * heads, [[]] * heads)
            return np.zeros((heads, 0), dtype=np.int64)
        centroids, norms, spans, members = stack
        num_clusters = spans.shape[2]
        score_flops = int(2 * num_clusters * self.head_dim)
        self.stats.score_flops += score_flops * heads
        scores = self._score_all_heads(merged, centroids, norms)
        order = np.argsort(-scores, axis=1, kind="stable")
        # Sizes and member offsets in score order: take_along_axis without
        # its shape machinery.
        ordered_sizes, ordered_offsets = spans[:, np.arange(heads)[:, None], order]
        cumulative = np.cumsum(ordered_sizes, axis=1)
        if self.config.trim_policy != "order":
            # Per-head np.searchsorted(cumulative, budget, "left"),
            # vectorised: the count of prefix sums strictly below the budget.
            cutoffs = (cumulative < cluster_budget).sum(axis=1)
            outcomes = [
                selection_from_order(
                    self.metadata[head],
                    order[head],
                    cumulative[head],
                    int(cutoffs[head]),
                    cluster_budget,
                    self.config.trim_policy,
                    score_flops,
                )
                for head in range(heads)
            ]
            self._account(
                [outcome.selected_labels for outcome in outcomes],
                [outcome.selected_sizes for outcome in outcomes],
            )
            return np.stack([outcome.token_indices for outcome in outcomes])
        # Batched assembly for the default "order" trim policy, identical to
        # selection_from_order: each head takes clusters in score order while
        # fewer than the budget tokens precede them, cutting the last one to
        # what is left, and a taken cluster is a span of the head's members.
        # The spans of all heads flatten into one gather of the selected
        # tokens — no per-token work over the context.
        selected = min(cluster_budget, members.shape[1])
        preceding = cumulative - ordered_sizes
        taken = np.minimum(ordered_sizes, np.maximum(selected - preceding, 0))
        span_lengths = taken.ravel()
        positions = np.repeat(
            ordered_offsets.ravel() - np.cumsum(span_lengths) + span_lengths, span_lengths
        )
        positions += np.arange(positions.shape[0])
        rows = members.ravel()[positions].reshape(heads, selected)
        rows.sort(axis=1)
        counts = (preceding < cluster_budget).sum(axis=1).tolist()
        taken_sizes = taken.tolist()
        self._account(
            [order[head, :count] for head, count in enumerate(counts)],
            [taken_sizes[head][:count] for head, count in enumerate(counts)],
        )
        return rows

    # ------------------------------------------------------------------
    # helpers and introspection
    # ------------------------------------------------------------------
    @property
    def num_pending_decode_tokens(self) -> int:
        """Decode tokens buffered but not yet clustered."""
        return self._num_tokens - self._pending_start

    def num_clusters(self, head: int = 0) -> int:
        """Number of clusters currently tracked for a head."""
        return self.metadata[head].num_clusters

    def cache_hit_rate(self) -> float:
        """Token-level cluster-cache hit rate averaged over heads."""
        # Plain-Python mean: this is read per request per engine step by the
        # serving trace, so the numpy dispatch overhead is avoided (summing
        # a handful of floats left to right matches np.mean bit for bit
        # below the pairwise-summation threshold).
        rates = [cache.hit_rate for cache in self.caches]
        return sum(rates) / len(rates) if rates else 0.0

    def _refresh_aux_bytes(self) -> None:
        self.stats.aux_bytes = sum(meta.metadata_nbytes() for meta in self.metadata)

    def _export_fields(self) -> dict[str, object]:
        # The stack duplicates the metadata; the next select rebuilds it.
        return {**self.__dict__, "_stacked": None}


@register_policy(
    "clusterkv", summary="semantic-cluster recall (the paper's method), KV offloaded to CPU"
)
class ClusterKVSelector(KVSelectorFactory):
    """Factory creating :class:`ClusterKVLayerState` instances.

    ClusterKV offloads the bulk KV cache to CPU memory and stages only the
    selected clusters on the GPU, so ``kv_residency`` is the CPU tier.
    """

    name = "clusterkv"
    kv_residency = TierKind.CPU
    config_cls = ClusterKVConfig
    state_cls = ClusterKVLayerState
