"""Reproduction of *ClusterKV: Manipulating LLM KV Cache in Semantic Space
for Recallable Compression* (DAC 2025).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.api` — the public session facade: :class:`Session` built
  from one :class:`EngineSpec`, with ``generate()``, ``submit()/step()``
  and a ``stream()`` iterator of per-token events.
* :mod:`repro.policies` — the policy registry: every compression method
  self-registers by name; :class:`PolicySpec` describes a configured
  method declaratively (dict/JSON/CLI round-trips) and every request can
  carry its own policy.
* :mod:`repro.core` — the ClusterKV method (clustering, selection, caching).
* :mod:`repro.baselines` — Full KV, Quest, InfiniGen, H2O, StreamingLLM and
  the exact top-k oracle.
* :mod:`repro.model` — the NumPy transformer inference substrate.
* :mod:`repro.memory` — GPU/CPU memory tiers and transfer accounting.
* :mod:`repro.perfmodel` — the analytical latency/throughput model.
* :mod:`repro.workloads` — synthetic long-context workloads (LongBench and
  PG19 analogues).
* :mod:`repro.metrics` — F1, ROUGE-L, perplexity, recall rate.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.serving` — batched multi-request serving with continuous
  scheduling over any of the above compression methods.
* :mod:`repro.prefixcache` — the cross-request prefix/KV cache: a radix
  tree over prompt token blocks with refcounted LRU eviction; the serving
  engine attaches requests to the longest cached prefix and prefills only
  the suffix.
* :mod:`repro.traffic` — trace-driven open-loop traffic simulation:
  seeded arrival processes, multi-replica routing and TTFT/TPOT/goodput
  SLO metrics on a virtual perfmodel clock.
* :mod:`repro.cluster` — the one fleet simulator (a static fleet is its
  degenerate case) and its elastic control plane: autoscaler and
  admission-control registries, seeded failure injection with
  deterministic retries, and the ``repro cluster-bench`` scenario
  harness.
"""

from .baselines import (
    FullKVSelector,
    H2OSelector,
    InfiniGenSelector,
    OracleTopKSelector,
    QuestSelector,
    StreamingLLMSelector,
)
from .core import ClusterKVConfig, ClusterKVSelector
from .model import (
    GenerationConfig,
    InferenceEngine,
    ModelConfig,
    SyntheticTokenizer,
    TransformerModel,
    get_model_config,
    get_reference_architecture,
)
from .policies import (
    PolicySpec,
    UnknownPolicyError,
    available_policies,
    build_policy,
    policy_spec_of,
    register_policy,
)
from .serving import (
    BatchedEngine,
    ContinuousBatchingScheduler,
    RequestQueue,
    SchedulerConfig,
    ServeReport,
    ServeRequest,
    serve_prompts,
)
from .api import EngineSpec, Session, TokenEvent, simulate
from .cluster import ClusterConfig, FailurePlan
from .prefixcache import PrefixCacheConfig, RadixPrefixCache
from .traffic import SLOSpec, TrafficConfig, TrafficReport

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Session",
    "EngineSpec",
    "TokenEvent",
    "simulate",
    "TrafficConfig",
    "TrafficReport",
    "SLOSpec",
    "ClusterConfig",
    "FailurePlan",
    "PolicySpec",
    "UnknownPolicyError",
    "register_policy",
    "build_policy",
    "available_policies",
    "policy_spec_of",
    "ClusterKVConfig",
    "ClusterKVSelector",
    "FullKVSelector",
    "QuestSelector",
    "InfiniGenSelector",
    "H2OSelector",
    "StreamingLLMSelector",
    "OracleTopKSelector",
    "ModelConfig",
    "GenerationConfig",
    "TransformerModel",
    "InferenceEngine",
    "SyntheticTokenizer",
    "get_model_config",
    "get_reference_architecture",
    "BatchedEngine",
    "ServeReport",
    "ServeRequest",
    "RequestQueue",
    "ContinuousBatchingScheduler",
    "SchedulerConfig",
    "serve_prompts",
    "PrefixCacheConfig",
    "RadixPrefixCache",
]
