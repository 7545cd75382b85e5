"""Configuration of the ClusterKV method."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterKVConfig", "DistanceMetric"]

# Supported semantic-distance metrics for clustering (paper Fig. 11b ablation).
DistanceMetric = str
_VALID_METRICS = ("cosine", "l2", "ip")
_VALID_TRIM = ("order", "centroid")


@dataclass(frozen=True)
class ClusterKVConfig:
    """Hyper-parameters of ClusterKV (paper Sec. III and IV).

    Attributes
    ----------
    tokens_per_cluster:
        Average number of tokens per prefill cluster; the paper sets the
        number of prefill clusters to ``C0 = L / 80`` (Sec. III-B), i.e.
        ``tokens_per_cluster = 80``.
    min_clusters:
        Lower bound on the number of prefill clusters (guards very short
        prompts).
    max_clusters:
        Optional upper bound on the number of prefill clusters.
    decode_window:
        ``m``: decoded tokens are clustered in groups of this size
        (paper uses 320).  Until its window is clustered a decoded token
        is attended at every step *on top of* the cluster budget, as the
        sinks are: a selection holds ``max(B, sinks + pending)`` tokens,
        so it exceeds the budget ``B`` once more than ``B - sinks``
        decoded tokens are pending (``chat_mixed`` — ``B`` 48, 8 sinks,
        ``m`` 320 — crosses at decode token 41).
    decode_clusters:
        ``C+``: number of clusters created per decode window (paper uses 4).
    num_sink_tokens:
        Number of initial attention-sink tokens always retained and excluded
        from clustering (paper uses 16).
    distance_metric:
        Metric used during clustering: ``"cosine"`` (paper default),
        ``"l2"`` or ``"ip"`` (inner product), for the Fig. 11b ablation.
    max_kmeans_iters:
        Iteration cap of the K-means loop (converges earlier when the
        assignment stabilises).
    kmeans_seed:
        Seed of the centroid initialisation.
    cache_history:
        ``R``: number of recent decoding steps whose selected clusters are
        kept in the GPU-side cluster cache (paper uses 1).
    trim_policy:
        How the last selected cluster is trimmed to the budget:
        ``"order"`` keeps tokens in stored order (cheapest, the default) and
        ``"centroid"`` keeps the tokens closest to the cluster centroid.
    score_metric:
        Metric used to score centroids against the query at selection time;
        the paper uses the inner product (Sec. III-C).
    prefill_segment_tokens:
        When set, prompt keys are clustered in independent segments of
        this many tokens (each seeded by its absolute position) instead of
        one whole-prompt k-means.  Segmented clustering is
        *prefix-compositional*: the clusters of a shared prompt prefix do
        not depend on the suffix, which is what lets the cross-request
        prefix cache (:mod:`repro.prefixcache`) restore a cached prefix's
        cluster assignments and centroids and re-cluster only the suffix.
        ``None`` (the default) keeps the paper's whole-prompt clustering.
    """

    tokens_per_cluster: int = 80
    min_clusters: int = 1
    max_clusters: int | None = None
    decode_window: int = 320
    decode_clusters: int = 4
    num_sink_tokens: int = 16
    distance_metric: DistanceMetric = "cosine"
    max_kmeans_iters: int = 20
    kmeans_seed: int = 0
    cache_history: int = 1
    trim_policy: str = "order"
    score_metric: str = "ip"
    prefill_segment_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.tokens_per_cluster <= 0:
            raise ValueError("tokens_per_cluster must be positive")
        if self.min_clusters <= 0:
            raise ValueError("min_clusters must be positive")
        if self.max_clusters is not None and self.max_clusters < self.min_clusters:
            raise ValueError("max_clusters must be >= min_clusters")
        if self.decode_window <= 0:
            raise ValueError("decode_window must be positive")
        if self.decode_clusters <= 0:
            raise ValueError("decode_clusters must be positive")
        if self.num_sink_tokens < 0:
            raise ValueError("num_sink_tokens must be non-negative")
        if self.distance_metric not in _VALID_METRICS:
            raise ValueError(
                f"distance_metric must be one of {_VALID_METRICS}, "
                f"got {self.distance_metric!r}"
            )
        if self.score_metric not in ("ip", "cosine"):
            raise ValueError("score_metric must be 'ip' or 'cosine'")
        if self.max_kmeans_iters <= 0:
            raise ValueError("max_kmeans_iters must be positive")
        if self.cache_history < 0:
            raise ValueError("cache_history must be non-negative")
        if self.trim_policy not in _VALID_TRIM:
            raise ValueError(f"trim_policy must be one of {_VALID_TRIM}")
        if self.prefill_segment_tokens is not None and self.prefill_segment_tokens <= 0:
            raise ValueError("prefill_segment_tokens must be positive when set")

    def num_prefill_clusters(self, num_clusterable_tokens: int) -> int:
        """Number of prefill clusters ``C0`` for the given token count.

        Implements the paper's ``C0 = L / 80`` rule, clamped to
        ``[min_clusters, max_clusters]`` and never more than the number of
        tokens to cluster.
        """
        if num_clusterable_tokens <= 0:
            return 0
        c0 = max(self.min_clusters, num_clusterable_tokens // self.tokens_per_cluster)
        if self.max_clusters is not None:
            c0 = min(c0, self.max_clusters)
        return min(c0, num_clusterable_tokens)
