"""Cluster metadata: sizes, prefix sums and sorted token indices.

After clustering, ClusterKV stores — per kv head — the cluster centroids
and the metadata needed for constant-time indexing at decode time
(paper Sec. IV-C and Fig. 8):

* the size of every cluster,
* the token indices sorted by cluster label (so that all members of one
  cluster are contiguous), and
* the exclusive prefix sum of cluster sizes giving every cluster's offset
  into the sorted index array.

The metadata supports appending new clusters created from decode windows
(paper Sec. III-B: every ``m`` generated tokens are clustered into ``C+``
new clusters); appended clusters get fresh labels so that labels remain
stable identifiers for the cluster-granularity cache.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .clustering import ClusteringResult

__all__ = ["ClusterMetadata"]


class ClusterMetadata:
    """Per-head cluster metadata with append support."""

    def __init__(self, head_dim: int) -> None:
        self.head_dim = head_dim
        self.centroids = np.zeros((0, head_dim))
        self._centroid_norms = np.zeros(0)
        self._cluster_sizes = np.zeros(0, dtype=np.int64)
        # Token indices grouped by cluster; cluster ``c`` occupies
        # ``sorted_indices[prefix_sum[c] : prefix_sum[c] + cluster_sizes[c]]``.
        self._sorted_indices = np.zeros(0, dtype=np.int64)
        self._prefix_sum = np.zeros(0, dtype=np.int64)
        self._num_tokens = 0
        # Affinity ``k·mu`` of every clustered token to its own centroid,
        # aligned with ``_sorted_indices``; built only when appends supply
        # the block keys (the "centroid" trim policy ranks members by it).
        # Key and centroid are both fixed once appended, so it never needs
        # recomputing — and trimming never reads a key.  Host-side
        # bookkeeping of a non-default policy: not in metadata_nbytes.
        self._affinity: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append_clustering(
        self,
        result: ClusteringResult,
        token_offset: int,
        keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Append the clusters of a new clustering run.

        Parameters
        ----------
        result:
            Clustering of a contiguous block of tokens.
        token_offset:
            Absolute position of the first token of that block.
        keys:
            The clustered block's ``(block_len, head_dim)`` keys, to record
            each member's centroid affinity (see :meth:`cluster_affinity`).
            Either every append of a metadata object passes them or none.

        Returns
        -------
        numpy.ndarray
            The global labels assigned to the appended clusters.
        """
        return self.append_clusterings(((result, token_offset, keys),))

    def append_clusterings(
        self, runs: Sequence[tuple[ClusteringResult, int, np.ndarray | None]]
    ) -> np.ndarray:
        """Append several clustering runs, in order, as one append.

        Each run is ``(result, token_offset, keys)`` as taken by
        :meth:`append_clustering`, and the arrays come out exactly as one
        :meth:`append_clustering` per run would leave them — but each
        growing array is concatenated once, not once per run.  Returns the
        global labels of every appended cluster.
        """
        label_offset = self.num_clusters
        # Whether earlier appends recorded affinities (None: nothing yet).
        with_keys = None if label_offset == 0 else self._affinity is not None
        centroids, norms, sizes, members, affinity = [], [], [], [], []
        tokens = 0
        for result, token_offset, keys in runs:
            if result.n_clusters == 0:
                continue
            if result.centroids.shape[1] != self.head_dim:
                raise ValueError(
                    f"centroid dimension {result.centroids.shape[1]} does not match "
                    f"metadata head_dim {self.head_dim}"
                )
            if with_keys is not None and with_keys != (keys is not None):
                raise ValueError("every append must pass keys, or none may")
            with_keys = keys is not None
            local_sizes = result.cluster_sizes()
            # Sort the block's token indices by local label so that members
            # of a cluster are contiguous (paper Fig. 8, "Sort" step).
            order = np.argsort(result.labels, kind="stable")
            members.append(order.astype(np.int64) + token_offset)
            if keys is not None:
                groups = np.split(order, np.cumsum(local_sizes)[:-1])
                affinity += [keys[group] @ mu for group, mu in zip(groups, result.centroids)]
            centroids.append(result.centroids)
            # Norms are maintained incrementally: centroids are immutable
            # once appended, so cosine scoring at decode time reads this
            # cache instead of renormalising the same (mostly prefill-static)
            # centroids at every step.
            norms.append(np.linalg.norm(result.centroids, axis=1))
            sizes.append(local_sizes.astype(np.int64))
            tokens += int(result.labels.shape[0])
        if not centroids:
            return np.zeros(0, dtype=np.int64)
        if affinity:
            previous = [] if self._affinity is None else [self._affinity]
            self._affinity = np.concatenate(previous + affinity)
        self.centroids = np.concatenate([self.centroids, *centroids], axis=0)
        self._centroid_norms = np.concatenate([self._centroid_norms, *norms])
        self._cluster_sizes = np.concatenate([self._cluster_sizes, *sizes])
        self._sorted_indices = np.concatenate([self._sorted_indices, *members])
        self._prefix_sum = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self._cluster_sizes)]
        )[:-1]
        self._num_tokens += tokens
        return np.arange(label_offset, self.num_clusters, dtype=np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Total number of clusters recorded so far."""
        return int(self._cluster_sizes.shape[0])

    @property
    def num_tokens(self) -> int:
        """Total number of clustered tokens."""
        return self._num_tokens

    @property
    def centroid_norms(self) -> np.ndarray:
        """Cached L2 norms of all centroids, shape ``(num_clusters,)``.

        Maintained incrementally by :meth:`append_clustering`; cosine
        scoring (:func:`repro.core.selection.score_centroids`,
        :func:`repro.core.clustering.pairwise_scores`) passes this cache so
        static prefill centroids are not renormalised every decode step.
        """
        return self._centroid_norms

    @property
    def cluster_sizes(self) -> np.ndarray:
        """Sizes of all clusters, shape ``(num_clusters,)``."""
        return self._cluster_sizes

    @property
    def prefix_sum(self) -> np.ndarray:
        """Exclusive prefix sum of cluster sizes (offsets into the index array)."""
        return self._prefix_sum

    @property
    def sorted_indices(self) -> np.ndarray:
        """Token indices grouped by cluster."""
        return self._sorted_indices

    def cluster_tokens(self, label: int) -> np.ndarray:
        """Token indices belonging to cluster ``label``."""
        if label < 0 or label >= self.num_clusters:
            raise IndexError(f"cluster label {label} out of range")
        start = self._prefix_sum[label]
        return self._sorted_indices[start : start + self._cluster_sizes[label]]

    def cluster_affinity(self, label: int) -> np.ndarray | None:
        """Centroid affinity ``k·mu`` of each token of :meth:`cluster_tokens`.

        ``None`` unless the clusterings were appended with their keys.
        """
        if self._affinity is None:
            return None
        start = self._prefix_sum[label]
        return self._affinity[start : start + self._cluster_sizes[label]]

    def tokens_of_clusters(self, labels: np.ndarray) -> np.ndarray:
        """Concatenated token indices of several clusters, in label order."""
        labels = np.asarray(labels, dtype=np.int64)
        pieces = [self.cluster_tokens(int(label)) for label in labels]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def metadata_nbytes(self, bytes_per_element: int = 2) -> int:
        """Approximate GPU footprint of centroids plus indexing metadata."""
        # Centroid norms are device-resident alongside the centroids (the
        # cosine scoring fast path reads them every step), so they count.
        centroid_bytes = (
            self.centroids.size + self._centroid_norms.size
        ) * bytes_per_element
        index_bytes = (
            self._cluster_sizes.size + self._prefix_sum.size + self._sorted_indices.size
        ) * 4  # int32 on device
        return int(centroid_bytes + index_bytes)
