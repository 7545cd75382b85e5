"""Selection at the granularity of semantic clusters (paper Sec. III-C, IV-C).

Given the query vector of the current decoding step and the per-head cluster
metadata, the selection procedure:

1. scores every cluster centroid against the query (inner product, matching
   the attention-weight computation),
2. sorts clusters by score in descending order,
3. gathers cluster sizes in that order and computes their prefix sum,
4. selects clusters until the cumulative size reaches the token budget, and
5. trims the last selected cluster when the cumulative size overshoots.

The output is the set of selected token indices ``I_T`` together with the
labels of the selected clusters (needed by the cluster-granularity cache) and
the bookkeeping the performance model uses to charge the selection overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metadata import ClusterMetadata

__all__ = [
    "ClusterSelection",
    "select_clusters",
    "selection_from_order",
    "score_centroids",
]


@dataclass
class ClusterSelection:
    """Result of one per-head cluster selection.

    Attributes
    ----------
    token_indices:
        Sorted absolute indices of the selected tokens.
    selected_labels:
        Labels of the selected clusters, in descending score order.
    trimmed_label:
        Label of the cluster that was trimmed to fit the budget, or ``None``.
    num_trimmed:
        Number of tokens dropped from the trimmed cluster.
    score_flops:
        FLOPs spent scoring centroids (``2 * C * d``).
    selected_sizes:
        Post-trim token count contributed by each selected label, aligned
        with ``selected_labels`` (what the cluster cache charges per label).
    """

    token_indices: np.ndarray
    selected_labels: np.ndarray
    trimmed_label: int | None
    num_trimmed: int
    score_flops: int
    selected_sizes: list[int] | None = None


def score_centroids(
    query: np.ndarray,
    centroids: np.ndarray,
    metric: str = "ip",
    centroid_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Score cluster centroids against the query.

    The paper scores with the inner product ``q·mu`` because it aligns with
    attention-weight computation (Sec. III-C); cosine scoring is available
    for ablations.  ``centroid_norms`` optionally supplies precomputed L2
    norms for the cosine metric (``ClusterMetadata.centroid_norms``), so
    static prefill centroids are not renormalised on every decode step.
    """
    query = np.asarray(query, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.size == 0:
        return np.zeros(0)
    if metric == "ip":
        return centroids @ query
    if metric == "cosine":
        q_norm = np.linalg.norm(query)
        c_norms = (
            np.linalg.norm(centroids, axis=1)
            if centroid_norms is None
            else np.asarray(centroid_norms, dtype=np.float64)
        )
        safe = np.where(c_norms == 0.0, 1.0, c_norms) * (q_norm if q_norm else 1.0)
        return (centroids @ query) / safe
    raise ValueError(f"unknown score metric {metric!r}")


def _trim_cluster(
    tokens: np.ndarray,
    keep: int,
    affinity: np.ndarray | None,
    policy: str,
) -> np.ndarray:
    """Keep ``keep`` tokens of a cluster according to the trim policy.

    ``affinity`` is the members' centroid affinity
    (:meth:`~repro.core.ClusterMetadata.cluster_affinity`), aligned with
    ``tokens``; without it the "centroid" policy keeps stored order.
    """
    if keep >= tokens.shape[0]:
        return tokens
    if keep <= 0:
        return tokens[:0]
    if policy == "centroid" and affinity is not None:
        order = np.argsort(-affinity, kind="stable")[:keep]
        return tokens[np.sort(order)]
    return tokens[:keep]


def select_clusters(
    query: np.ndarray,
    metadata: ClusterMetadata,
    budget: int,
    score_metric: str = "ip",
    trim_policy: str = "order",
    scores: np.ndarray | None = None,
) -> ClusterSelection:
    """Select clusters for one head until the token budget is met.

    Parameters
    ----------
    query:
        Query vector of shape ``(d,)`` (grouped query heads are merged by the
        caller).
    metadata:
        Cluster metadata of this head.
    budget:
        Maximum number of tokens to select from clustered tokens.
    score_metric:
        Metric for scoring centroids (``"ip"`` by default).
    trim_policy:
        ``"order"`` or ``"centroid"`` (see :class:`ClusterKVConfig`); the
        latter ranks by the affinities ``metadata`` recorded at append.
    scores:
        Optional precomputed centroid scores of shape ``(num_clusters,)``.
        The ClusterKV layer state scores all kv heads in one batched GEMM
        and hands each head its slice here, skipping the per-head
        :func:`score_centroids` call (the charged ``score_flops`` are
        identical — the same products are computed either way).

    Returns
    -------
    ClusterSelection
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    num_clusters = metadata.num_clusters
    if num_clusters == 0 or budget == 0:
        return ClusterSelection(
            token_indices=np.zeros(0, dtype=np.int64),
            selected_labels=np.zeros(0, dtype=np.int64),
            trimmed_label=None,
            num_trimmed=0,
            score_flops=0,
        )

    if scores is None:
        scores = score_centroids(
            query, metadata.centroids, score_metric, metadata.centroid_norms
        )
    score_flops = int(2 * num_clusters * metadata.head_dim)

    # Sort clusters from the closest to the farthest (descending score).
    order = np.argsort(-scores, kind="stable")
    ordered_sizes = metadata.cluster_sizes[order]
    cumulative = np.cumsum(ordered_sizes)
    # Number of clusters needed to reach the budget.
    cutoff = int(np.searchsorted(cumulative, budget, side="left"))
    return selection_from_order(
        metadata, order, cumulative, cutoff, budget, trim_policy, score_flops
    )


def selection_from_order(
    metadata: ClusterMetadata,
    order: np.ndarray,
    cumulative: np.ndarray,
    cutoff: int,
    budget: int,
    trim_policy: str,
    score_flops: int,
) -> ClusterSelection:
    """Assemble a :class:`ClusterSelection` from a precomputed cluster order.

    The tail of :func:`select_clusters`, split out so the ClusterKV layer
    state can run the scoring/sorting/prefix-sum front half for *all* kv
    heads in batched NumPy calls and hand each head's ``order``/
    ``cumulative`` row here — the outputs are identical to per-head
    :func:`select_clusters` calls by construction.
    """
    num_clusters = order.shape[0]
    if cutoff >= num_clusters:
        selected_order = order
        overshoot = 0
    else:
        selected_order = order[: cutoff + 1]
        overshoot = int(cumulative[cutoff] - budget)

    selected_labels = selected_order.astype(np.int64)
    num_selected = len(selected_labels)
    pieces: list[np.ndarray] = []
    selected_sizes: list[int] = []
    trimmed_label: int | None = None
    num_trimmed = 0
    for rank, label in enumerate(selected_labels):
        tokens = metadata.cluster_tokens(int(label))
        if rank == num_selected - 1 and overshoot > 0:
            keep = tokens.shape[0] - overshoot
            tokens = _trim_cluster(
                tokens, keep, metadata.cluster_affinity(int(label)), trim_policy
            )
            trimmed_label = int(label)
            num_trimmed = overshoot
        pieces.append(tokens)
        selected_sizes.append(tokens.shape[0])

    if not pieces:
        token_indices = np.zeros(0, dtype=np.int64)
    elif len(pieces) == 1:
        # A cluster's token list is already sorted (append order within the
        # block is preserved by the stable label sort), so a single-cluster
        # selection needs neither the concatenate nor the sort.
        token_indices = pieces[0]
    else:
        token_indices = np.sort(np.concatenate(pieces))
    return ClusterSelection(
        token_indices=token_indices,
        selected_labels=selected_labels,
        trimmed_label=trimmed_label,
        num_trimmed=num_trimmed,
        score_flops=score_flops,
        selected_sizes=selected_sizes,
    )
