"""NumPy transformer inference substrate.

The substrate provides everything the paper's system needs from "the LLM":
a decoder-only transformer (RMSNorm, SwiGLU, RoPE and grouped-query
attention), a KV cache with memory-tier accounting, and an inference engine
whose decoding loop delegates token selection to a pluggable KV compression
method.
"""

from .attention import (
    AttentionOutput,
    full_causal_attention,
    selected_attention_batch,
)
from .config import GenerationConfig, ModelConfig
from .generation import (
    EngineCore,
    GenerationResult,
    InferenceEngine,
    RecallRecord,
    SequenceState,
    StepAttentionRecord,
)
from .kv_cache import KVCacheStore, LayerKVCache
from .model_zoo import (
    ReferenceArchitecture,
    get_model_config,
    get_reference_architecture,
    list_model_configs,
    list_reference_architectures,
)
from .pointer import CopyHead
from .sampling import (
    DegenerateDistributionError,
    apply_temperature,
    greedy_sample,
    mix_distributions,
    temperature_sample,
)
from .tokenizer import SyntheticTokenizer
from .transformer import TransformerModel
from .weights import LayerWeights, ModelWeights, init_weights

__all__ = [
    "ModelConfig",
    "GenerationConfig",
    "TransformerModel",
    "InferenceEngine",
    "EngineCore",
    "SequenceState",
    "GenerationResult",
    "RecallRecord",
    "StepAttentionRecord",
    "KVCacheStore",
    "LayerKVCache",
    "CopyHead",
    "SyntheticTokenizer",
    "ModelWeights",
    "LayerWeights",
    "init_weights",
    "AttentionOutput",
    "full_causal_attention",
    "selected_attention_batch",
    "greedy_sample",
    "temperature_sample",
    "apply_temperature",
    "mix_distributions",
    "DegenerateDistributionError",
    "ReferenceArchitecture",
    "get_model_config",
    "get_reference_architecture",
    "list_model_configs",
    "list_reference_architectures",
]
