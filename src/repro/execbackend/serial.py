"""In-process execution backend: the serial reference path.

Every handle wraps a live :class:`~repro.serving.BatchedEngine` in the
simulator's own process.  Steps never run ahead: the engine steps once
inside :meth:`LocalReplicaHandle.finish_step`, at exactly the moment the
simulator processes the outcome, so the simulator opens no step windows
on this backend and every router and control-plane observation reads the
live engine.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..serving import BatchedEngine
from .base import (
    ExecutionBackend,
    ReplicaHandle,
    StepOutcome,
    StepWindow,
    engine_offload_stats,
)

if TYPE_CHECKING:
    import numpy as np

    from ..api import EngineSpec
    from ..model import TransformerModel
    from ..policies import PolicySpec
    from ..seqstate import SequenceCheckpoint
    from ..serving import EngineSnapshot

__all__ = ["LocalReplicaHandle", "SerialBackend"]


class LocalReplicaHandle(ReplicaHandle):
    """Handle over an engine living in the simulator's process.

    All state accessors read the engine live, so there is no cached view
    to keep coherent.
    """

    def __init__(self, engine: BatchedEngine) -> None:
        self._engine = engine

    @property
    def engine(self) -> BatchedEngine:
        """The wrapped live engine (serial-backend only)."""
        return self._engine

    # ------------------------------------------------------------------
    # live state
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Requests waiting in the engine's admission queue."""
        return len(self._engine.queue)

    @property
    def active(self) -> int:
        """Requests currently decoding in the engine."""
        return self._engine.num_active

    @property
    def num_preempted(self) -> int:
        """Checkpointed-out requests awaiting resumption."""
        return self._engine.num_preempted

    @property
    def reserved_kv_bytes(self) -> int:
        """KV bytes reserved by active sequences."""
        return self._engine.reserved_kv_bytes()

    @property
    def queued_kv_bytes(self) -> int:
        """KV bytes the queued requests will reserve."""
        return self._engine.queued_kv_bytes()

    @property
    def num_preemptions_total(self) -> int:
        """Total preemptions the engine has performed."""
        return self._engine.num_preemptions_total

    @property
    def is_draining(self) -> bool:
        """Whether the engine is refusing new admissions."""
        return self._engine.is_draining

    @property
    def active_request_ids(self) -> tuple[str, ...]:
        """Ids of the requests currently decoding."""
        return tuple(self._engine.active_request_ids)

    @property
    def preempted_request_ids(self) -> tuple[str, ...]:
        """Ids of the checkpointed-out requests."""
        return tuple(self._engine.preempted_request_ids)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_ids: "np.ndarray",
        request_id: str,
        max_new_tokens: int,
        policy: "PolicySpec | str | None",
        arrival_time_s: float,
        slo_class: str,
    ) -> None:
        """Enqueue one request on the engine."""
        self._engine.submit(
            prompt_ids,
            request_id=request_id,
            max_new_tokens=max_new_tokens,
            policy=policy,
            arrival_time_s=arrival_time_s,
            slo_class=slo_class,
        )

    def start_step(self, window: StepWindow | None = None) -> None:
        """Nothing to start: the engine steps in :meth:`finish_step`."""

    def finish_step(self) -> StepOutcome:
        """Run one engine step and time it."""
        t0 = time.perf_counter()
        finished = self._engine.step()
        wall_s = time.perf_counter() - t0
        trace = self._engine.last_step_trace
        assert trace is not None
        return StepOutcome(finished=finished, trace=trace, wall_s=wall_s)

    def drain(self) -> None:
        """Stop admitting new requests on the engine."""
        self._engine.drain()

    def snapshot(self) -> "EngineSnapshot":
        """Queue/active snapshot of the engine."""
        return self._engine.snapshot()

    def pop_preempted(self) -> "list[SequenceCheckpoint]":
        """Take the engine's preempted-request checkpoints."""
        return self._engine.pop_preempted()

    def checkpoint_request(
        self, request_id: str, keep: bool = True
    ) -> "SequenceCheckpoint":
        """Checkpoint one request's live sequence state."""
        return self._engine.checkpoint_request(request_id, keep=keep)

    def restore_request(self, checkpoint: "SequenceCheckpoint") -> None:
        """Restore a checkpointed request into the engine."""
        self._engine.restore_request(checkpoint)

    def prefix_cache_stats(self) -> dict[str, object]:
        """Prefix-cache counters of the engine."""
        return self._engine.prefix_cache_stats()

    def offload_stats(self) -> dict[str, dict[str, int]]:
        """Tier transfer/peak accounting of the engine."""
        return engine_offload_stats(self._engine)


def build_engine(model: "TransformerModel", spec: "EngineSpec") -> BatchedEngine:
    """One replica engine from its spec (the single construction recipe).

    Shared by both backends — the multiprocess worker runs exactly this
    against its shared-memory model, which is what makes worker engines
    byte-equivalent to in-process ones.
    """
    return BatchedEngine(
        model,
        selector=spec.build_policy(),
        generation_config=spec.generation_config(),
        scheduler_config=spec.scheduler_config(),
        tiers=spec.tiers,
        speculation=spec.speculation_config(),
    )


class SerialBackend(ExecutionBackend):
    """All replica engines in-process, stepping one at a time."""

    name = "serial"

    def __init__(self, model: "TransformerModel", spec: "EngineSpec") -> None:
        self._model = model
        self._spec = spec

    def create_handle(self) -> LocalReplicaHandle:
        """A fresh in-process engine behind a local handle."""
        return LocalReplicaHandle(build_engine(self._model, self._spec))

    def describe(self) -> dict[str, object]:
        """Identity of this backend (for reports)."""
        return {"name": self.name, "workers": 0}
