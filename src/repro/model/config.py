"""Model configuration for the NumPy transformer inference substrate."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a decoder-only transformer.

    Every substrate model is one architecture family, the one the paper's
    accuracy and serving results use (Llama-3.x and GLM4): RMSNorm, SwiGLU
    feed-forward, rotary position embeddings (RoPE) and grouped-query
    attention when ``n_kv_heads < n_heads``.  The OPT-6.7B comparison of
    paper Fig. 13a is priced on the latency model's reference
    architecture, not on this substrate.

    Attributes
    ----------
    vocab_size:
        Number of entries in the token embedding table.
    d_model:
        Hidden size of the residual stream.
    n_layers:
        Number of transformer layers.
    n_heads:
        Number of query heads.
    n_kv_heads:
        Number of key/value heads (grouped-query attention when smaller than
        ``n_heads``).
    d_ff:
        Feed-forward inner dimension.
    rope_base:
        RoPE frequency base.
    use_copy_head:
        Whether the model includes a pointer/copy head over the context
        (used by the retrieval-flavoured synthetic workloads; see
        DESIGN.md section 2).
    copy_gate:
        Mixing weight of the copy distribution against the vocabulary
        softmax when the copy head is enabled.
    copy_bigram_weight:
        Weight of the predecessor-token component of the copy head's bigram
        signature (0 makes the pointer purely unigram).
    copy_sharpness:
        Inverse temperature of the pointer attention.  Values around 20 make
        an exact bigram match dominate thousands of unrelated positions
        while leaving partial matches clearly weaker.
    num_embedding_clusters:
        Number of semantic clusters in the token embedding table.  Token
        ids are partitioned into contiguous blocks sharing a cluster centre,
        which gives key vectors the topical structure in semantic space that
        the paper's clustering exploits (paper Sec. III-A).
    embedding_cluster_weight:
        Weight of the shared cluster centre in each token embedding
        (0 removes the structure, 1 collapses tokens onto their centre).
    retrieval_strength:
        Scale of the shared (retrieval-aligned) component of the query/key
        projections.  Larger values concentrate attention on semantically
        matching tokens; the default produces realistic sparse attention.
    noise_strength:
        Scale of the per-head random component of the projections.
    seed:
        Seed used for deterministic weight initialisation.
    name:
        Human-readable identifier of the configuration.
    """

    vocab_size: int = 512
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 8
    n_kv_heads: int = 4
    d_ff: int = 256
    rope_base: float = 10000.0
    attention_scale: float | None = None
    use_copy_head: bool = True
    copy_gate: float = 0.85
    copy_bigram_weight: float = 0.6
    copy_sharpness: float = 20.0
    num_embedding_clusters: int = 32
    embedding_cluster_weight: float = 0.6
    retrieval_strength: float = 4.0
    noise_strength: float = 0.4
    seed: int = 0
    name: str = "tiny"

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads "
                f"({self.n_heads})"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads "
                f"({self.n_kv_heads})"
            )
        if not 0.0 <= self.copy_gate <= 1.0:
            raise ValueError("copy_gate must lie in [0, 1]")
        if self.num_embedding_clusters <= 0:
            raise ValueError("num_embedding_clusters must be positive")
        if not 0.0 <= self.embedding_cluster_weight < 1.0:
            raise ValueError("embedding_cluster_weight must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        """Per-head hidden dimension."""
        return self.d_model // self.n_heads

    @property
    def group_size(self) -> int:
        """Number of query heads sharing one key/value head."""
        return self.n_heads // self.n_kv_heads

    @property
    def softmax_scale(self) -> float:
        """Scale applied to attention logits (``1/sqrt(d_head)`` by default)."""
        if self.attention_scale is not None:
            return self.attention_scale
        return 1.0 / (self.head_dim ** 0.5)

    def kv_bytes_per_token(self, bytes_per_element: int = 2) -> int:
        """Size in bytes of the K and V vectors of one token across all layers.

        Used by the memory-tier accounting and the performance model.  The
        default of two bytes per element corresponds to fp16 storage, which
        is what the paper's implementation uses.
        """
        per_layer = 2 * self.n_kv_heads * self.head_dim * bytes_per_element
        return per_layer * self.n_layers


@dataclass(frozen=True)
class GenerationConfig:
    """Inference-time configuration shared by all KV compression methods.

    Attributes
    ----------
    budget:
        KV cache budget ``B`` (number of tokens selected per decoding step).
        ``None`` disables compression (full KV attention).
    num_full_layers:
        Number of leading layers that always use the full KV cache.  The
        paper follows Quest and keeps the first two layers uncompressed.
    num_sink_tokens:
        Number of initial tokens (attention sinks) that are always retained.
    max_new_tokens:
        Decoding length ``D``.
    greedy:
        Whether decoding is greedy (argmax) or samples from the output
        distribution.
    temperature:
        Sampling temperature when ``greedy`` is False.
    record_true_scores:
        When True, the engine additionally computes exact attention scores
        over the full context at every decoding step so that recall-rate
        metrics (paper Fig. 11) can be evaluated.
    record_attention_trace:
        When True, the engine stores per-step per-head selected indices and
        attention weights for offline analysis (paper Fig. 3).
    seed:
        Seed for stochastic sampling.
    """

    budget: int | None = None
    num_full_layers: int = 2
    num_sink_tokens: int = 16
    max_new_tokens: int = 32
    greedy: bool = True
    temperature: float = 1.0
    record_true_scores: bool = False
    record_attention_trace: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive when set")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.num_full_layers < 0:
            raise ValueError("num_full_layers must be non-negative")
        if self.num_sink_tokens < 0:
            raise ValueError("num_sink_tokens must be non-negative")
