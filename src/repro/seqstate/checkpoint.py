"""Versioned, policy-aware checkpoints of live sequence state.

A :class:`SequenceCheckpoint` captures everything one in-flight generation
request owns — the per-layer KV buffers, the selector states of the active
compression policy (via the :meth:`~repro.baselines.base.
LayerSelectorState.export_state` hook, the generalisation of PR 6's
prefix-cache export to arbitrary decode positions), the pointer-head
history, the sampler RNG and the partially built
:class:`~repro.model.generation.GenerationResult` — plus the request's
identity and scheduling progress.  Restoring a checkpoint onto a fresh
:class:`~repro.model.generation.SequenceState` (same model, same
generation configuration, same policy configuration) reproduces the
remaining decode **bit for bit**: every restored run emits exactly the
tokens and log-probabilities the uninterrupted run would have.

Why this is exact
-----------------
The engine's mutable per-request state is *closed*: a decode step reads
only (a) the KV cache, (b) the selector states, (c) the pointer-head
history, (d) the RNG (for sampled decoding) and (e) the scheduling
progress counters — all of which the checkpoint copies verbatim (float64
KV entries, deep-copied selector ``__dict__`` less what a selector
rebuilds on demand and the spare capacity of its growable buffers, the
RNG bit-generator state).  Each key is captured exactly once, from its one owner: layer
keys from the KV store, pointer keys from the copy head.  Selector
snapshots carry no key history — a selector is handed the owner's keys
when it selects (:meth:`~repro.baselines.base.LayerSelectorState.select`)
— so restoring the owners restores everything a selector can read.  The
engine-level work buffers are stateless scratch space whose stale
contents are masked every step, so they need no capture.  The same
closure argument underlies the serving engine's batch-1 ≡ single-sequence
bit-identity; checkpointing just snapshots the closure at an arbitrary
point.

Checkpoints are the unit of mobility in the cluster layer: scale-downs
*migrate* in-flight requests instead of draining run-to-completion,
failure victims resume from their last periodic checkpoint instead of
re-prefilling, and a preempting scheduler parks low-priority requests
under KV pressure.  Creating a checkpoint is free on the virtual clock
(ClusterKV keeps the full KV host-resident already); moving one between
replicas is priced as a host-to-host KV transfer by
:meth:`repro.perfmodel.StepCostModel.migration_seconds`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from ..baselines.base import KVSelectorFactory
from ..memory import OffloadManager
from ..model.config import GenerationConfig, ModelConfig
from ..model.generation import GenerationResult, SequenceState
from ..model.transformer import TransformerModel
from ..perf import counters
from ..policies import PolicySpec

__all__ = [
    "SEQSTATE_VERSION",
    "SequenceCheckpoint",
    "policy_signature",
    "checkpoint_sequence",
    "restore_sequence",
]

# Format version of SequenceCheckpoint; bumped whenever the captured
# fields change incompatibly.  Restore refuses mismatched versions.
# Version 3: Quest, InfiniGen and H2O states hold head-stacked arrays.
SEQSTATE_VERSION = 3


def policy_signature(selector: KVSelectorFactory) -> str:
    """Canonical signature of a selector's full configuration.

    Checkpoints may only be restored under a selector with the *same*
    signature: two ClusterKV configurations with different segment sizes
    build incompatible cluster structures, so state never crosses policy
    configurations.  This is the same keying the prefix cache uses for
    semantic-state reuse.
    """
    return json.dumps(selector.describe(), sort_keys=True, default=str)


@dataclass(frozen=True)
class SequenceCheckpoint:
    """One versioned snapshot of a live request's complete decoding state.

    The numerical payload (``kv_keys``/``kv_values``, ``layer_states``,
    ``rng_state``, the pointer-head history, ``result``) is captured by
    :func:`checkpoint_sequence`; the request identity and scheduling
    progress fields are filled by the serving layer
    (:meth:`repro.serving.BatchedEngine.checkpoint_request`).  Instances
    are immutable and self-contained — every array is an owned copy, so a
    checkpoint stays valid after its source sequence keeps decoding or is
    released.

    Attributes
    ----------
    version:
        Checkpoint format version (:data:`SEQSTATE_VERSION`).
    policy_signature / policy_name:
        Canonical configuration signature and name of the selector the
        sequence decodes under; restore validates the signature.
    generation_config / model_config:
        The exact configurations the sequence ran under; restore requires
        equality (bit-identity is only defined against the same model and
        decoding configuration).
    position / prefilled:
        Sequence progress: KV context length in tokens, and whether the
        first prefill chunk has landed.
    rng_state:
        The sampler's ``bit_generator.state`` dict (exact for sampled
        decoding; irrelevant but still carried for greedy runs).
    kv_keys / kv_values:
        Per-layer float64 KV copies, shape ``(n_kv_heads, L, head_dim)``.
    layer_states:
        Per-layer selector snapshots from
        :meth:`~repro.baselines.base.LayerSelectorState.export_state`
        (``None`` for the leading uncompressed layers).  They hold the
        selectors' derived structures only, never the key history.
    copy_token_ids / copy_keys / copy_state:
        Pointer-head history (token ids and their ``(len, d_model)``
        signature array) and its selector state; ``None`` for models
        without a copy head.  Mid-prefill, the history already covers
        every prompt token prefilled or attached so far.
    result:
        Deep copy of the in-progress generation result (tokens and
        log-probabilities emitted so far, live statistics).
    request_id / prompt_ids / max_new_tokens / seed / policy /
    arrival_order / arrival_time_s / slo_class:
        Request identity, as submitted (``max_new_tokens`` is stored
        *resolved* against the engine default).
    current_token / decode_step / prefill_pos / first_token_step / status:
        Serving-engine progress: the token to feed back next, the decode
        step index, prompt tokens prefilled so far, the engine step of the
        first emitted token (``-1`` while still prefilling), and the
        lifecycle stage (``"prefilling"`` or ``"decoding"``) at capture.
    """

    version: int
    policy_signature: str
    policy_name: str
    generation_config: GenerationConfig
    model_config: ModelConfig
    position: int
    prefilled: bool
    rng_state: dict
    kv_keys: tuple[np.ndarray, ...]
    kv_values: tuple[np.ndarray, ...]
    layer_states: tuple[dict | None, ...]
    copy_token_ids: tuple[int, ...] | None
    copy_keys: np.ndarray | None
    copy_state: dict | None
    result: GenerationResult
    request_id: str = ""
    prompt_ids: np.ndarray | None = None
    max_new_tokens: int | None = None
    seed: int | None = None
    policy: PolicySpec | None = None
    arrival_order: int = 0
    arrival_time_s: float = 0.0
    slo_class: str = "interactive"
    current_token: int = -1
    decode_step: int = 0
    prefill_pos: int = 0
    first_token_step: int = -1
    status: str = "decoding"

    @property
    def num_tokens(self) -> int:
        """KV context length in tokens — what a migration must transfer."""
        return self.position

    @property
    def tokens_generated(self) -> int:
        """Tokens the request had emitted at capture time."""
        return len(self.result.output_ids)

    def describe(self) -> dict[str, object]:
        """Compact identifying summary (for logs and reports)."""
        return {
            "version": self.version,
            "request_id": self.request_id,
            "policy": self.policy_name,
            "position": self.position,
            "tokens_generated": self.tokens_generated,
            "status": self.status,
            "slo_class": self.slo_class,
        }


def checkpoint_sequence(
    model: TransformerModel,
    generation_config: GenerationConfig,
    seq: SequenceState,
) -> SequenceCheckpoint:
    """Capture the complete decoding state of one live sequence.

    The sequence keeps running unaffected — every captured array is a
    copy.  Engine-level progress fields (request identity, decode step)
    are left at their defaults; the serving layer fills them in.
    """
    config = model.config
    kv_keys: list[np.ndarray] = []
    kv_values: list[np.ndarray] = []
    for layer_idx in range(config.n_layers):
        kv_keys.append(seq.kv_store.keys(layer_idx).copy())
        kv_values.append(seq.kv_store.values(layer_idx).copy())
    layer_states = tuple(
        state.export_state() if state is not None else None
        for state in seq.layer_states
    )
    copy_token_ids: tuple[int, ...] | None = None
    copy_keys: np.ndarray | None = None
    if seq.copy_head is not None:
        head_state = seq.copy_head.export_state()
        copy_token_ids = tuple(head_state["token_ids"])  # type: ignore[arg-type]
        copy_keys = head_state["copy_keys"]  # type: ignore[assignment]
    counters.record("seqstate.checkpointed_tokens", seq.position)
    return SequenceCheckpoint(
        version=SEQSTATE_VERSION,
        policy_signature=policy_signature(seq.selector),
        policy_name=seq.selector.name,
        generation_config=generation_config,
        model_config=config,
        position=seq.position,
        prefilled=seq.prefilled,
        rng_state=copy.deepcopy(seq.rng.bit_generator.state),
        kv_keys=tuple(kv_keys),
        kv_values=tuple(kv_values),
        layer_states=layer_states,
        copy_token_ids=copy_token_ids,
        copy_keys=copy_keys,
        copy_state=(
            seq.copy_state.export_state() if seq.copy_state is not None else None
        ),
        result=copy.deepcopy(seq.result),
    )


def restore_sequence(
    model: TransformerModel,
    generation_config: GenerationConfig,
    checkpoint: SequenceCheckpoint,
    selector: KVSelectorFactory,
    offload: OffloadManager,
    buffer_prefix: str = "",
) -> SequenceState:
    """Rebuild a live sequence from a checkpoint, bit-identical.

    A fresh :class:`SequenceState` is created (registering new KV buffers
    on ``offload``, which may belong to a different replica than the
    source — that is what makes checkpoints migratable) and every captured
    field is written back.  Raises :class:`ValueError` when the
    checkpoint's version, model configuration, generation configuration or
    policy signature do not match the restore target: exactness is only
    defined within one configuration, so mismatches are refused rather
    than silently degraded.
    """
    if checkpoint.version != SEQSTATE_VERSION:
        raise ValueError(
            f"checkpoint version {checkpoint.version} does not match "
            f"the supported version {SEQSTATE_VERSION}"
        )
    if checkpoint.model_config != model.config:
        raise ValueError(
            f"checkpoint was captured on model {checkpoint.model_config.name!r} "
            f"and cannot restore onto {model.config.name!r}"
        )
    if checkpoint.generation_config != generation_config:
        raise ValueError(
            "checkpoint generation configuration does not match the restore target"
        )
    signature = policy_signature(selector)
    if signature != checkpoint.policy_signature:
        raise ValueError(
            f"checkpoint policy signature {checkpoint.policy_signature} does not "
            f"match the restore selector's {signature}"
        )
    seq = SequenceState(
        model,
        selector,
        generation_config,
        offload,
        buffer_prefix=buffer_prefix,
        seed=checkpoint.seed,
    )
    for layer_idx in range(model.config.n_layers):
        keys = checkpoint.kv_keys[layer_idx]
        if keys.shape[1] > 0:
            seq.kv_store.append(
                layer_idx, keys, checkpoint.kv_values[layer_idx], step=-1
            )
    for state, payload in zip(seq.layer_states, checkpoint.layer_states):
        if (state is None) != (payload is None):
            raise ValueError(
                "checkpoint layer-state layout does not match the restore target"
            )
        if state is not None and payload is not None:
            state.restore_state(payload)
    if seq.copy_head is not None:
        if checkpoint.copy_token_ids is None or checkpoint.copy_keys is None:
            raise ValueError(
                "restore target has a copy head but the checkpoint captured none"
            )
        seq.copy_head.restore_state(
            {
                "token_ids": list(checkpoint.copy_token_ids),
                "copy_keys": checkpoint.copy_keys,
            }
        )
        if seq.copy_state is not None and checkpoint.copy_state is not None:
            seq.copy_state.restore_state(checkpoint.copy_state)
    seq.rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
    seq.prefilled = checkpoint.prefilled
    seq.position = checkpoint.position
    seq.result = copy.deepcopy(checkpoint.result)
    counters.record("seqstate.restored_tokens", checkpoint.position)
    return seq
