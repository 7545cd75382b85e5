"""Semantic clustering of key vectors (paper Sec. III-B).

Tokens are clustered in the "semantic space" of their key vectors using
K-means.  The paper motivates cosine similarity as the distance metric
because key vectors have outlier channels with large magnitudes that distort
L2 and inner-product distances; both alternatives are implemented as well to
support the Fig. 11b ablation.

The clustering is performed independently per attention (kv) head — the
batched helper :func:`cluster_heads` mirrors the batched GPU kernels of the
paper's implementation (Sec. IV-B) at the functional level.  Since this
PR's hot-path overhaul it does so *literally*: :func:`kmeans_cluster_batch`
runs the assignment step of every head in one broadcast GEMM + argmax over
a ``(n_kv_heads, L, C)`` score tensor (heads that converge early are frozen
and skipped), producing labels and centroids bit-identical to the per-head
:func:`kmeans_cluster` loop — pinned by ``tests/test_hotpath_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf import counters

__all__ = [
    "ClusteringResult",
    "pairwise_scores",
    "kmeans_cluster",
    "kmeans_cluster_batch",
    "cluster_heads",
]


@dataclass
class ClusteringResult:
    """Outcome of clustering one head's key vectors.

    Attributes
    ----------
    labels:
        Cluster label of every input key, shape ``(L,)``, values in
        ``[0, n_clusters)``.
    centroids:
        Cluster representations, shape ``(n_clusters, d)``.
    n_iters:
        Number of K-means iterations performed.
    converged:
        Whether the assignment stabilised before the iteration cap.
    """

    labels: np.ndarray
    centroids: np.ndarray
    n_iters: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        """Number of clusters in this result."""
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """Number of tokens per cluster, shape ``(n_clusters,)``."""
        return np.bincount(self.labels, minlength=self.n_clusters)


def _normalise(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return vectors / safe


def pairwise_scores(
    keys: np.ndarray,
    centroids: np.ndarray,
    metric: str,
    centroid_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Similarity of every key to every centroid; larger is closer.

    Parameters
    ----------
    keys:
        ``(L, d)`` key vectors.
    centroids:
        ``(C, d)`` centroids.
    metric:
        ``"cosine"``, ``"l2"`` or ``"ip"``.
    centroid_norms:
        Optional precomputed ``(C,)`` L2 norms of ``centroids`` for the
        cosine metric.  Scoring against *static* centroids (the prefill
        clusters queried at every decode step) should pass the cached norms
        from :attr:`repro.core.ClusterMetadata.centroid_norms` instead of
        renormalising the same centroids on every call.

    Returns
    -------
    numpy.ndarray
        ``(L, C)`` similarity matrix.  For ``"l2"`` the *negative* squared
        distance is returned so that ``argmax`` picks the nearest centroid
        under every metric.
    """
    keys = np.asarray(keys, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if metric == "cosine":
        if centroid_norms is None:
            normed_centroids = _normalise(centroids)
        else:
            safe = np.where(centroid_norms == 0.0, 1.0, centroid_norms)
            normed_centroids = centroids / safe[:, None]
        return _normalise(keys) @ normed_centroids.T
    if metric == "ip":
        return keys @ centroids.T
    if metric == "l2":
        # -(|k|^2 - 2 k·c + |c|^2); constant |k|^2 kept for exactness in tests.
        sq_keys = np.sum(keys**2, axis=1, keepdims=True)
        sq_centroids = np.sum(centroids**2, axis=1)[None, :]
        return -(sq_keys - 2.0 * keys @ centroids.T + sq_centroids)
    raise ValueError(f"unknown clustering metric {metric!r}")


def _init_centroids(
    keys: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample initial centroids from the keys without replacement."""
    num_keys = keys.shape[0]
    chosen = rng.choice(num_keys, size=n_clusters, replace=False)
    return keys[chosen].copy()


def _label_sums(columns: np.ndarray, labels: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-label sums of ``d`` columns (``(d, N)``), shape ``(n_bins, d)``.

    One weighted ``np.bincount`` per column: it accumulates in input order
    like ``np.add.at(sums, labels, rows)`` — the same bits — without that
    call's per-element dispatch.  Contiguous columns are read at unit
    stride.
    """
    sums = np.empty((n_bins, columns.shape[0]))
    for column in range(columns.shape[0]):
        sums[:, column] = np.bincount(labels, weights=columns[column], minlength=n_bins)
    return sums


def _update_centroids(
    keys: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    previous: np.ndarray,
) -> np.ndarray:
    """Mean of the keys assigned to each cluster (paper's update step).

    Empty clusters keep their previous centroid; they are repaired by
    :func:`_repair_empty_clusters` before the next assignment.
    """
    sums = _label_sums(keys.T, labels, n_clusters)
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    centroids = previous.copy()
    non_empty = counts > 0
    centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
    return centroids


def _repair_empty_clusters(
    keys: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Reassign each empty cluster to the key farthest from its centroid.

    A deterministic variant of the standard empty-cluster fix: the key with
    the lowest similarity to its own centroid is split off to seed the empty
    cluster.
    """
    n_clusters = centroids.shape[0]
    counts = np.bincount(labels, minlength=n_clusters)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return labels, centroids
    labels = labels.copy()
    centroids = centroids.copy()
    scores = pairwise_scores(keys, centroids, metric)
    own_scores = scores[np.arange(keys.shape[0]), labels]
    order = np.argsort(own_scores)  # ascending: worst-fitting keys first
    cursor = 0
    for cluster in empty:
        while cursor < order.size:
            candidate = int(order[cursor])
            cursor += 1
            # Do not steal the only member of another cluster.
            if counts[labels[candidate]] > 1:
                counts[labels[candidate]] -= 1
                labels[candidate] = cluster
                counts[cluster] += 1
                centroids[cluster] = keys[candidate]
                break
        else:
            break
    return labels, centroids


def kmeans_cluster(
    keys: np.ndarray,
    n_clusters: int,
    metric: str = "cosine",
    max_iters: int = 20,
    seed: int = 0,
) -> ClusteringResult:
    """Cluster one head's key vectors with K-means (paper Fig. 4).

    The algorithm follows the paper: centroids are initialised by randomly
    sampling key vectors; the assignment step assigns every key to the most
    similar centroid under ``metric``; the update step replaces each centroid
    with the mean of its assigned keys; iteration stops when the assignment
    no longer changes or ``max_iters`` is reached.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 2:
        raise ValueError(f"expected (L, d) keys, got shape {keys.shape}")
    num_keys = keys.shape[0]
    if num_keys == 0:
        return ClusteringResult(
            labels=np.zeros(0, dtype=np.int64),
            centroids=np.zeros((0, keys.shape[1])),
            n_iters=0,
            converged=True,
        )
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    n_clusters = min(n_clusters, num_keys)

    rng = np.random.default_rng(seed)
    centroids = _init_centroids(keys, n_clusters, rng)
    labels = np.full(num_keys, -1, dtype=np.int64)
    converged = False
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        scores = pairwise_scores(keys, centroids, metric)
        new_labels = np.argmax(scores, axis=1).astype(np.int64)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        centroids = _update_centroids(keys, labels, n_clusters, centroids)
        labels, centroids = _repair_empty_clusters(keys, labels, centroids, metric)
    return ClusteringResult(
        labels=labels, centroids=centroids, n_iters=n_iters, converged=converged
    )


def _batched_assignment_scores(
    keys: np.ndarray,
    centroids: np.ndarray,
    metric: str,
    normed_keys: np.ndarray | None,
    sq_keys: np.ndarray | None,
) -> np.ndarray:
    """Scores of every key against its head's centroids, all heads at once.

    ``keys``/``centroids`` are ``(H, L, d)``/``(H, C, d)``; the result is
    ``(H, L, C)``.  ``normed_keys``/``sq_keys`` are the loop-invariant key
    terms, precomputed once per clustering run instead of per iteration.
    Each head's slice equals :func:`pairwise_scores` of that head bit for
    bit (a broadcast ``matmul`` runs the same BLAS kernel per slice).
    """
    if metric == "cosine":
        assert normed_keys is not None
        return np.matmul(normed_keys, np.swapaxes(_normalise(centroids), 1, 2))
    if metric == "ip":
        return np.matmul(keys, np.swapaxes(centroids, 1, 2))
    if metric == "l2":
        assert sq_keys is not None
        sq_centroids = np.sum(centroids**2, axis=2)[:, None, :]
        cross = np.matmul(keys, np.swapaxes(centroids, 1, 2))
        return -(sq_keys - 2.0 * cross + sq_centroids)
    raise ValueError(f"unknown clustering metric {metric!r}")


def kmeans_cluster_batch(
    keys: np.ndarray,
    n_clusters: int,
    metric: str = "cosine",
    max_iters: int = 20,
    seed: int = 0,
) -> list[ClusteringResult]:
    """K-means over every kv head of a layer, assignment step batched.

    ``keys`` has shape ``(n_kv_heads, L, d)``; head ``h`` is clustered with
    seed ``seed + h`` exactly like a :func:`kmeans_cluster` call on that
    head alone.  The O(L·C·d) assignment scoring of all still-running heads
    is fused into one broadcast GEMM + argmax per iteration; the cheap
    update/repair steps reuse the per-head helpers unchanged, and heads
    that converge early are frozen (their labels, centroids and iteration
    counts match the solo runs).  Returns one :class:`ClusteringResult` per
    head, bit-identical to the per-head loop.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 3:
        raise ValueError(f"expected (n_kv_heads, L, d) keys, got shape {keys.shape}")
    n_heads, num_keys, dim = keys.shape
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if num_keys == 0 or n_heads == 0:
        return [
            ClusteringResult(
                labels=np.zeros(0, dtype=np.int64),
                centroids=np.zeros((0, dim)),
                n_iters=0,
                converged=True,
            )
            for _ in range(n_heads)
        ]
    n_clusters = min(n_clusters, num_keys)

    # Loop-invariant key terms, computed once instead of per iteration;
    # ``columns`` holds each key dimension of every head contiguously, for
    # the update step's weighted bincounts.
    normed_keys = _normalise(keys) if metric == "cosine" else None
    sq_keys = (
        np.sum(keys**2, axis=2, keepdims=True) if metric == "l2" else None
    )
    columns = np.ascontiguousarray(keys.transpose(2, 0, 1))

    centroids = np.empty((n_heads, n_clusters, dim))
    for head in range(n_heads):
        rng = np.random.default_rng(seed + head)
        centroids[head] = _init_centroids(keys[head], n_clusters, rng)
    labels = np.full((n_heads, num_keys), -1, dtype=np.int64)
    converged = np.zeros(n_heads, dtype=bool)
    n_iters = np.zeros(n_heads, dtype=np.int64)

    for iteration in range(1, max_iters + 1):
        active = np.flatnonzero(~converged)
        if active.size == 0:
            break
        whole = active.size == n_heads
        scores = _batched_assignment_scores(
            keys if whole else keys[active],
            centroids if whole else centroids[active],
            metric,
            normed_keys if whole or normed_keys is None else normed_keys[active],
            sq_keys if whole or sq_keys is None else sq_keys[active],
        )
        counters.record("gemm.kmeans_assign", 1)
        new_labels = np.argmax(scores, axis=2).astype(np.int64)
        n_iters[active] = iteration
        unchanged = (new_labels == labels[active]).all(axis=1)
        converged[active[unchanged]] = True
        live = active[~unchanged]
        if live.size == 0:
            continue
        live_labels = new_labels[~unchanged]
        labels[live] = live_labels

        # Batched update step: one pass of per-label sums / counts over all
        # still-moving heads (per-(head, cluster) accumulation order equals
        # the per-head _update_centroids call, so centroids are bit-identical),
        # then one masked divide: empty clusters keep their centroid.
        every = live.size == n_heads
        offsets = np.arange(live.size, dtype=np.int64)[:, None] * n_clusters
        flat = (live_labels + offsets).ravel()
        sums = _label_sums(
            (columns if every else columns[:, live]).reshape(dim, -1),
            flat,
            live.size * n_clusters,
        ).reshape(live.size, n_clusters, dim)
        counts = np.bincount(flat, minlength=live.size * n_clusters).reshape(
            live.size, n_clusters, 1
        )
        non_empty = counts > 0
        updated = centroids if every else centroids[live]
        np.divide(sums, counts, out=updated, where=non_empty)
        if not every:
            centroids[live] = updated
        for slot in np.flatnonzero(~non_empty.all(axis=(1, 2))):
            head = live[slot]
            labels[head], centroids[head] = _repair_empty_clusters(
                keys[head], labels[head], centroids[head], metric
            )
    return [
        ClusteringResult(
            labels=labels[head].copy(),
            centroids=centroids[head].copy(),
            n_iters=int(n_iters[head]),
            converged=bool(converged[head]),
        )
        for head in range(n_heads)
    ]


def cluster_heads(
    keys: np.ndarray,
    n_clusters: int,
    metric: str = "cosine",
    max_iters: int = 20,
    seed: int = 0,
) -> list[ClusteringResult]:
    """Cluster every kv head of a layer independently.

    ``keys`` has shape ``(n_kv_heads, L, d)``.  Heads are processed with
    distinct seeds derived from ``seed`` so that centroid initialisation does
    not accidentally correlate across heads.  Delegates to
    :func:`kmeans_cluster_batch`, whose per-head results are bit-identical
    to calling :func:`kmeans_cluster` head by head.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 3:
        raise ValueError(f"expected (n_kv_heads, L, d) keys, got shape {keys.shape}")
    return kmeans_cluster_batch(
        keys, n_clusters, metric=metric, max_iters=max_iters, seed=seed
    )


def clustering_flops(
    num_tokens: int, n_clusters: int, head_dim: int, n_iters: int
) -> int:
    """FLOPs of the K-means loop: ``O(n_iters * C * L * d)`` (paper Sec. III-D)."""
    return int(2 * num_tokens * n_clusters * head_dim * max(1, n_iters))
