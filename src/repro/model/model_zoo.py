"""Model zoo: scaled-down simulation configs and full-size reference shapes.

Two kinds of model descriptions live here:

* **Simulation configs** (:func:`get_model_config`): small, deterministic
  :class:`~repro.model.config.ModelConfig` instances that run quickly on a
  CPU with NumPy.  They all share the architecture family of the models
  the paper's accuracy and serving results use (Llama/GLM: GQA + RoPE +
  RMSNorm + SwiGLU), so the KV-compression code paths exercised are the
  same, only the width/depth is reduced.
* **Reference architectures** (:func:`get_reference_architecture`): the
  full-size shapes of GLM4-9B-Chat, Llama-3.1-8B and OPT-6.7B.  These feed
  the analytical performance model, which reproduces the latency and
  throughput experiments (paper Fig. 12/13) at the paper's true scale; the
  OPT-6.7B comparison of Fig. 13a runs on this model only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ModelConfig

__all__ = [
    "ReferenceArchitecture",
    "get_model_config",
    "get_reference_architecture",
    "list_model_configs",
    "list_reference_architectures",
]


@dataclass(frozen=True)
class ReferenceArchitecture:
    """Full-size architecture shape used by the performance model.

    Attributes mirror the published model cards; ``bytes_per_element`` is 2
    (fp16), matching the paper's inference setup.
    """

    name: str
    d_model: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_ff: int
    vocab_size: int
    bytes_per_element: int = 2

    @property
    def head_dim(self) -> int:
        """Per-head hidden dimension."""
        return self.d_model // self.n_heads

    @property
    def num_parameters(self) -> int:
        """Approximate parameter count (embeddings + attention + FFN)."""
        attn = self.n_layers * (
            self.d_model * self.n_heads * self.head_dim  # Wq
            + 2 * self.d_model * self.n_kv_heads * self.head_dim  # Wk, Wv
            + self.n_heads * self.head_dim * self.d_model  # Wo
        )
        # Llama-style FFN has three projections; OPT-style has two.  Use
        # three as a uniform upper bound — the perf model is dominated by
        # memory traffic, not by this constant.
        ffn = self.n_layers * 3 * self.d_model * self.d_ff
        embed = 2 * self.vocab_size * self.d_model
        return attn + ffn + embed

    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache per token across all layers."""
        return (
            2 * self.n_layers * self.n_kv_heads * self.head_dim * self.bytes_per_element
        )


_SIM_CONFIGS: dict[str, ModelConfig] = {
    # Small config for unit tests.
    "tiny": ModelConfig(
        name="tiny",
        vocab_size=256,
        d_model=64,
        n_layers=3,
        n_heads=4,
        n_kv_heads=2,
        d_ff=128,
        seed=0,
    ),
    # Llama-3.1-8B analogue: GQA, RoPE, RMSNorm, SwiGLU.
    "llama-sim": ModelConfig(
        name="llama-sim",
        vocab_size=1024,
        d_model=128,
        n_layers=4,
        n_heads=8,
        n_kv_heads=4,
        d_ff=256,
        seed=1,
    ),
    # GLM4-9B-Chat analogue: the long-context accuracy model of the paper.
    "glm-sim": ModelConfig(
        name="glm-sim",
        vocab_size=1024,
        d_model=128,
        n_layers=4,
        n_heads=8,
        n_kv_heads=2,
        d_ff=256,
        seed=2,
    ),
    # Serving-benchmark analogue: keeps the Llama-style family but with the
    # FFN/vocab proportions of real 8-9B models (d_ff = 4 * d_model, larger
    # vocabulary), so that decode cost is dominated by the batchable
    # per-token matmuls rather than Python overhead — the regime in which
    # continuous batching pays off on real hardware.  The pointer head is
    # disabled: serving throughput experiments do not need retrieval
    # workloads and its per-token host-side work is per-request.
    "serve-sim": ModelConfig(
        name="serve-sim",
        vocab_size=2048,
        d_model=128,
        n_layers=4,
        n_heads=8,
        n_kv_heads=4,
        d_ff=512,
        use_copy_head=False,
        seed=11,
    ),
}


_REFERENCE_ARCHS: dict[str, ReferenceArchitecture] = {
    "llama-3.1-8b": ReferenceArchitecture(
        name="llama-3.1-8b",
        d_model=4096,
        n_layers=32,
        n_heads=32,
        n_kv_heads=8,
        d_ff=14336,
        vocab_size=128256,
    ),
    "glm4-9b": ReferenceArchitecture(
        name="glm4-9b",
        d_model=4096,
        n_layers=40,
        n_heads=32,
        n_kv_heads=4,
        d_ff=13696,
        vocab_size=151552,
    ),
    "opt-6.7b": ReferenceArchitecture(
        name="opt-6.7b",
        d_model=4096,
        n_layers=32,
        n_heads=32,
        n_kv_heads=32,
        d_ff=16384,
        vocab_size=50272,
    ),
}


def get_model_config(name: str) -> ModelConfig:
    """Return the simulation :class:`ModelConfig` registered under ``name``."""
    if name not in _SIM_CONFIGS:
        raise KeyError(
            f"unknown model config {name!r}; available: {sorted(_SIM_CONFIGS)}"
        )
    return _SIM_CONFIGS[name]


def get_reference_architecture(name: str) -> ReferenceArchitecture:
    """Return the full-size reference architecture registered under ``name``."""
    if name not in _REFERENCE_ARCHS:
        raise KeyError(
            f"unknown reference architecture {name!r}; "
            f"available: {sorted(_REFERENCE_ARCHS)}"
        )
    return _REFERENCE_ARCHS[name]


def list_model_configs() -> list[str]:
    """Names of all registered simulation configs."""
    return sorted(_SIM_CONFIGS)


def list_reference_architectures() -> list[str]:
    """Names of all registered reference architectures."""
    return sorted(_REFERENCE_ARCHS)
