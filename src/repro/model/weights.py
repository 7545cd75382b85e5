"""Deterministic weight construction for the NumPy transformer substrate.

The reproduction cannot download trained checkpoints (offline environment),
so model weights are constructed synthetically but *structured* so that the
attention behaviour relevant to the paper emerges:

* attention is sparse — a small subset of context tokens receives most of the
  softmax mass for a given query (paper Sec. II-B), and
* tokens that are close in key space receive similar attention weights
  (paper Sec. III-A), which is what ClusterKV exploits.

Both properties follow from giving every head's query and key projections a
shared "retrieval" component (a common random semi-orthogonal projection of
the residual stream) plus an independent per-head noise component.  With unit
norm, topic-structured token embeddings, the resulting ``q·k`` scores are
dominated by embedding similarity: queries attend to context tokens carrying
similar content, and similar context tokens form tight groups in key space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig

__all__ = ["LayerWeights", "ModelWeights", "init_weights"]


@dataclass
class LayerWeights:
    """Weights of a single transformer layer.

    Shapes:

    * ``wq``: ``(n_heads, d_model, head_dim)``
    * ``wk``/``wv``: ``(n_kv_heads, d_model, head_dim)``
    * ``wo``: ``(n_heads * head_dim, d_model)``
    * feed-forward: ``w_gate``/``w_up``: ``(d_model, d_ff)``, ``w_down``:
      ``(d_ff, d_model)``
    * RMSNorm weights: ``(d_model,)`` vectors.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    attn_norm_weight: np.ndarray
    ffn_norm_weight: np.ndarray


@dataclass
class ModelWeights:
    """Full parameter set of the model."""

    config: ModelConfig
    embedding: np.ndarray  # (vocab_size, d_model)
    layers: list[LayerWeights] = field(default_factory=list)
    final_norm_weight: np.ndarray | None = None
    lm_head: np.ndarray | None = None  # (d_model, vocab_size)
    copy_query_proj: np.ndarray | None = None  # (d_model, d_model)
    copy_key_proj: np.ndarray | None = None  # (d_model, d_model)
    copy_prev_proj: np.ndarray | None = None  # (d_model, d_model)

    def num_parameters(self) -> int:
        """Total number of scalar parameters (for reporting)."""
        total = self.embedding.size
        for layer in self.layers:
            total += (
                layer.wq.size
                + layer.wk.size
                + layer.wv.size
                + layer.wo.size
                + layer.w_gate.size
                + layer.w_up.size
                + layer.w_down.size
                + layer.attn_norm_weight.size
                + layer.ffn_norm_weight.size
            )
        if self.final_norm_weight is not None:
            total += self.final_norm_weight.size
        if self.lm_head is not None:
            total += self.lm_head.size
        if self.copy_query_proj is not None:
            total += self.copy_query_proj.size
        if self.copy_key_proj is not None:
            total += self.copy_key_proj.size
        if self.copy_prev_proj is not None:
            total += self.copy_prev_proj.size
        return total


def _random_semi_orthogonal(
    rng: np.random.Generator, rows: int, cols: int
) -> np.ndarray:
    """Random matrix with (approximately) orthonormal columns."""
    raw = rng.normal(size=(rows, max(rows, cols)))
    q, _ = np.linalg.qr(raw)
    return q[:, :cols]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def init_weights(config: ModelConfig) -> ModelWeights:
    """Build a deterministic, structured weight set for ``config``.

    The construction is fully determined by ``config.seed`` so that every
    experiment in the reproduction is repeatable bit-for-bit.
    """
    rng = np.random.default_rng(config.seed)
    d_model = config.d_model
    head_dim = config.head_dim

    # Token embeddings: unit-norm directions with topical cluster structure.
    # Token ids are partitioned into contiguous blocks; tokens in a block
    # share a cluster centre plus an individual component.  This is what
    # gives keys of semantically related tokens similar directions — the
    # property ClusterKV exploits (paper Sec. III-A) — and what the
    # synthetic workloads' topic model aligns with.
    num_clusters = min(config.num_embedding_clusters, config.vocab_size)
    centres = _unit_rows(rng.normal(size=(num_clusters, d_model)))
    individual = _unit_rows(rng.normal(size=(config.vocab_size, d_model)))
    cluster_ids = (
        np.arange(config.vocab_size) * num_clusters // config.vocab_size
    ).astype(np.int64)
    weight = config.embedding_cluster_weight
    embedding = _unit_rows(
        weight * centres[cluster_ids] + (1.0 - weight) * individual
    )

    layers: list[LayerWeights] = []
    for _layer_idx in range(config.n_layers):
        # Shared retrieval projection for this layer: queries and keys of all
        # heads share it, so q·k tracks embedding similarity.
        shared = _random_semi_orthogonal(rng, d_model, head_dim)

        wq = np.empty((config.n_heads, d_model, head_dim))
        for h in range(config.n_heads):
            noise = rng.normal(size=(d_model, head_dim)) / np.sqrt(d_model)
            wq[h] = config.retrieval_strength * shared + config.noise_strength * noise

        wk = np.empty((config.n_kv_heads, d_model, head_dim))
        wv = np.empty((config.n_kv_heads, d_model, head_dim))
        for h in range(config.n_kv_heads):
            noise = rng.normal(size=(d_model, head_dim)) / np.sqrt(d_model)
            wk[h] = config.retrieval_strength * shared + config.noise_strength * noise
            wv[h] = rng.normal(size=(d_model, head_dim)) / np.sqrt(d_model)

        wo = rng.normal(size=(config.n_heads * head_dim, d_model)) / np.sqrt(
            config.n_heads * head_dim
        )

        w_gate = rng.normal(size=(d_model, config.d_ff)) / np.sqrt(d_model)
        w_up = rng.normal(size=(d_model, config.d_ff)) / np.sqrt(d_model)
        w_down = rng.normal(size=(config.d_ff, d_model)) / np.sqrt(config.d_ff)

        layers.append(
            LayerWeights(
                wq=wq,
                wk=wk,
                wv=wv,
                wo=wo,
                w_gate=w_gate,
                w_up=w_up,
                w_down=w_down,
                attn_norm_weight=np.ones(d_model),
                ffn_norm_weight=np.ones(d_model),
            )
        )

    lm_head = embedding.T.copy()  # weight tying, (d_model, vocab)

    copy_query_proj = None
    copy_key_proj = None
    copy_prev_proj = None
    if config.use_copy_head:
        # The copy head scores a bigram signature of the current step
        # (current token plus its predecessor) against the same signature of
        # every context position; shared projections keep the match
        # content-based, and the predecessor component disambiguates
        # different occurrences of the same word by their local context.
        shared_copy = _random_semi_orthogonal(rng, d_model, d_model)
        copy_query_proj = shared_copy
        copy_key_proj = shared_copy.copy()
        copy_prev_proj = _random_semi_orthogonal(rng, d_model, d_model)

    return ModelWeights(
        config=config,
        embedding=embedding,
        layers=layers,
        final_norm_weight=np.ones(d_model),
        lm_head=lm_head,
        copy_query_proj=copy_query_proj,
        copy_key_proj=copy_key_proj,
        copy_prev_proj=copy_prev_proj,
    )
