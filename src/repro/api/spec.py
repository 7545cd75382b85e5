"""Declarative engine configuration for the public session API.

An :class:`EngineSpec` gathers everything needed to stand up a serving
session — model name, default compression policy, KV budget, decoding and
scheduler knobs — in one frozen, JSON-round-trippable object.  It is the
config-file / service-deployment counterpart of the imperative
constructors: ``Session(spec)`` (or ``Session(model=..., policy=...,
budget=...)``, which builds a spec internally) is the single entry point
the README quick-start uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping

from ..knobs import knob
from ..memory import TierBudgets
from ..model import GenerationConfig, TransformerModel, get_model_config
from ..policies import PolicySpec, available_policies, build_policy, resolve_policy_spec
from ..serving import SchedulerConfig
from ..specdec import DRAFTERS, SpeculationConfig

__all__ = ["EngineSpec"]


@dataclass(frozen=True)
class EngineSpec:
    """One serialisable description of a complete serving engine.

    The one declaration of every engine knob: the
    :class:`GenerationConfig` / :class:`SchedulerConfig` slices are
    derived by field name, the benchmark configs *hold* a spec instead of
    repeating its fields, and every bench CLI generates its flags from
    the fields declared with :func:`repro.knobs.knob`.  A new knob is a
    field here plus the config class that consumes it.

    Attributes
    ----------
    model:
        Name of the model configuration
        (:func:`repro.model.get_model_config`).
    policy:
        Default KV compression policy of the session; requests can still
        override it individually.  Accepts a :class:`PolicySpec` or a
        policy string (``"quest"``, ``"clusterkv:tokens_per_cluster=32"``),
        normalised to a spec at construction; a registered policy's keys
        and value types are checked then too.
    budget:
        KV cache budget ``B`` in tokens per head; ``None`` disables
        compression.
    max_new_tokens / num_full_layers / num_sink_tokens / greedy /
    temperature / seed:
        Decoding configuration, see
        :class:`~repro.model.config.GenerationConfig`.
    max_batch_size / max_prefills_per_step / kv_budget_bytes /
    prefill_chunk_tokens:
        Scheduler configuration, see
        :class:`~repro.serving.SchedulerConfig`; ``prefill_chunk_tokens``
        enables chunked prefill (per-step prompt-token budget).
    prefix_cache_tokens / prefix_block_tokens / prefix_semantic_reuse:
        Cross-request prefix-cache configuration, also part of
        :class:`~repro.serving.SchedulerConfig`.  ``prefix_cache_tokens``
        sets the replica-local cache capacity in cached prompt tokens
        (``None`` disables prefix caching); ``prefix_block_tokens`` is the
        block granularity of sharing; ``prefix_semantic_reuse`` also
        restores per-policy semantic state (ClusterKV cluster segments)
        for cached prefixes.
    kv_capacity_tokens:
        Declared per-replica serving capacity in projected KV tokens
        (prompt plus decode length summed over admitted requests), read
        by the cluster layer's admission control
        (:class:`repro.cluster.TokenBudgetAdmission`).  ``None`` lets the
        cluster derive a capacity from ``kv_budget_bytes`` (when set) or
        a batch-slot heuristic; the serving engine itself never reads
        this field.
    preemption:
        Whether replicas may checkpoint-preempt ``batch``-class requests
        to unblock an ``interactive``-class queue head, also part of
        :class:`~repro.serving.SchedulerConfig`.
    tiers:
        Optional :class:`~repro.memory.TierBudgets` bounding the
        GPU/host/SSD memory hierarchy of every engine built from this
        spec (capacity mode — see :class:`repro.serving.BatchedEngine`).
        Accepts a budgets object, its dict form, or the CLI string
        ``"gpu=320KiB,host=448KiB,ssd=4MiB"``; ``None`` keeps all tiers
        unbounded.
    backend:
        Execution backend engines built from this spec run on:
        ``"serial"`` (in-process, the default) or ``"multiprocess"``
        (persistent worker pool sharing one read-only weight arena, see
        :mod:`repro.execbackend`).  Virtual-clock results are
        byte-identical across backends; only wall-clock changes.
    speculate_k:
        Speculative-decoding draft length ``k``: each engine step the
        drafter proposes up to ``k`` candidate tokens per decoding
        request and one batched verify round scores them
        (:mod:`repro.specdec`).  ``0`` (the default) decodes plainly;
        greedy outputs are bit-identical either way.
    drafter:
        Registered name of the drafter used when ``speculate_k > 0``
        (:data:`repro.specdec.DRAFTERS`); the default ``"ngram"``
        self-drafter needs no second model.
    """

    model: str = knob("serve-sim", "model configuration name")
    # No flag: every bench sets the policy itself, from its own --policy list.
    policy: PolicySpec | str = field(default_factory=lambda: PolicySpec("full"))
    budget: int | None = knob(
        None, "KV budget in tokens per head (<= 0: no compression)", none_if="<=0"
    )
    max_new_tokens: int = knob(32, "decode tokens per request", "--new-tokens")
    num_full_layers: int = knob(2, "leading layers that attend over the full KV cache")
    num_sink_tokens: int = knob(16, "initial attention-sink tokens always retained")
    greedy: bool = knob(True, "greedy (argmax) decoding")
    temperature: float = knob(1.0, "sampling temperature under --no-greedy")
    seed: int = knob(
        0,
        "seed of stochastic token sampling (--seed is the workload seed)",
        flag="--sampling-seed",
    )
    max_batch_size: int = knob(8, "max concurrently decoding requests", "--batch")
    max_prefills_per_step: int = knob(2, "max requests prefilled in one engine step")
    kv_budget_bytes: int | None = knob(
        None, "scheduler KV memory gate in bytes (<= 0: slots only)", none_if="<=0"
    )
    prefill_chunk_tokens: int | None = knob(
        None,
        "chunked-prefill token budget per engine step (<= 0 keeps monolithic prefill)",
        "--prefill-chunk",
        none_if="<=0",
    )
    prefix_cache_tokens: int | None = knob(
        None,
        "per-replica cross-request prefix-cache capacity in KV tokens "
        "(<= 0 disables; pair with --router prefix_affine)",
        "--prefix-cache",
        none_if="<=0",
    )
    prefix_block_tokens: int = knob(
        32, "radix-block size of the prefix cache, in tokens", "--prefix-block"
    )
    prefix_semantic_reuse: bool = knob(
        True, "prefix cache also restores ClusterKV cluster state"
    )
    kv_capacity_tokens: int | None = knob(
        None,
        "declared per-replica capacity in projected KV tokens, read by "
        "--admission token_budget (<= 0 derives it)",
        none_if="<=0",
    )
    preemption: bool = knob(
        False,
        "let replicas checkpoint-preempt batch-class work for an interactive "
        "queue head (repro.seqstate)",
        "--preempt",
    )
    tiers: TierBudgets | None = knob(
        None,
        "per-tier capacity budgets (binary/decimal size suffixes; 'none' leaves "
        "a tier unbounded)",
        metavar="gpu=SIZE,host=SIZE,ssd=SIZE",
    )
    backend: str = knob(
        "serial",
        "execution backend replicas run on: serial (in-process) or multiprocess "
        "(worker pool with shared read-only weights); reports are byte-identical "
        "either way",
        choices=("serial", "multiprocess"),
    )
    speculate_k: int = knob(
        0,
        "speculative decoding: draft up to K tokens per request per engine step "
        "and verify them in one batched pass (0 disables; greedy outputs are "
        "identical either way)",
        "--speculate",
        metavar="K",
    )
    drafter: str = knob("ngram", "registered drafter used with --speculate")

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "multiprocess"):
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                "expected 'serial' or 'multiprocess'"
            )
        if self.speculate_k < 0:
            raise ValueError("speculate_k must be >= 0 (0 disables speculation)")
        if self.speculate_k > 0:
            DRAFTERS.check(self.drafter)
        object.__setattr__(self, "policy", resolve_policy_spec(self.policy))
        entry = available_policies().get(self.policy.name)
        if entry is not None:  # an unknown name fails where the policy is built
            entry.check(self.policy.kwargs)
        if isinstance(self.tiers, str):
            object.__setattr__(self, "tiers", TierBudgets.parse(self.tiers))
        elif isinstance(self.tiers, Mapping):
            object.__setattr__(self, "tiers", TierBudgets.from_dict(self.tiers))

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_model(self) -> TransformerModel:
        """Instantiate the transformer this spec names."""
        return TransformerModel(get_model_config(self.model))

    def build_policy(self):
        """Instantiate the default selector factory through the registry."""
        return build_policy(self.policy)

    def _slice(self, config_cls):
        """``config_cls`` built from this spec's same-named fields."""
        names = {item.name for item in fields(config_cls)} & {item.name for item in fields(self)}
        return config_cls(**{name: getattr(self, name) for name in names})

    def generation_config(self) -> GenerationConfig:
        """The :class:`GenerationConfig` slice of this spec."""
        return self._slice(GenerationConfig)

    def scheduler_config(self) -> SchedulerConfig:
        """The :class:`SchedulerConfig` slice of this spec."""
        return self._slice(SchedulerConfig)

    def speculation_config(self) -> SpeculationConfig | None:
        """The :class:`~repro.specdec.SpeculationConfig` slice of this spec.

        ``None`` when ``speculate_k == 0``, which is what keeps engines
        built from a default spec on the plain (non-speculative) decode
        path, bit for bit.
        """
        if self.speculate_k <= 0:
            return None
        return SpeculationConfig(drafter=self.drafter, k=self.speculate_k)

    # ------------------------------------------------------------------
    # dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Plain-dict form; the policy is embedded as its flat dict."""
        payload: dict[str, object] = {
            spec_field.name: getattr(self, spec_field.name) for spec_field in fields(self)
        }
        payload["policy"] = self.policy.to_dict()  # type: ignore[union-attr]
        if self.tiers is not None:
            payload["tiers"] = self.tiers.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(payload)
        policy = data.get("policy")
        if isinstance(policy, Mapping):
            data["policy"] = PolicySpec.from_dict(policy)
        return cls(**data)

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("engine spec JSON must be an object")
        return cls.from_dict(payload)
