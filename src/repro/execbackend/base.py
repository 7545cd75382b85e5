"""Execution-backend interface: where replica engines live and step.

The fleet simulator (:class:`~repro.cluster.ClusterSimulator`) drives
its replicas exclusively through this layer.  A :class:`ReplicaHandle` is
the simulator-facing surface of one :class:`~repro.serving.BatchedEngine`.
It is one concrete class: every command is written once, as a call of
the module's command table :func:`serve_command`, and the handle keeps
the :class:`ReplicaStateView` those replies carry.  A backend supplies
only the transport, :meth:`ReplicaHandle._call`: the engine lives
in-process (:class:`~repro.execbackend.SerialBackend`, bit-for-bit
today's behaviour) or in a persistent worker process
(:class:`~repro.execbackend.MultiprocessBackend`), where the same table
runs on the far side of a command pipe.

Determinism contract
--------------------
The simulator processes events (ready < failure < arrival < step at equal
instants) in exactly the serial order regardless of backend; only the
*compute* of engine steps may run ahead on workers, inside a
:class:`StepWindow` (see :meth:`ReplicaHandle.start_step`).  A window
lets a worker step one replica again and again without a parent
round-trip for as long as the simulator's own soundness rule holds: the
replica has work, its clock is strictly below the window's *gate* — the
earliest pending ready, failure or arrival event when the window opened
— and its next periodic checkpoint is not yet due.  The worker re-applies
that test after every step, pricing the step on the simulator's own
:class:`~repro.traffic.clock.StepClock` with the simulator's predicates
verbatim, so a window ends exactly where the serial loop would next let
another event touch the replica.

Windows are sound because engines are fully isolated per replica: a
replica's next step depends only on its own engine state, and every
event that can change that state (an arrival's submit, a failure's kill
and retries, a periodic checkpoint) lies at or past the gate, by which
time the simulator has consumed every step before it.  Events created
mid-window (a replica booted by the autoscaler becoming ready) can only
flip another replica's drain flag, which does not change how it steps.
The simulator opens no window in the narrow cases where the control
plane may mutate a replica between steps (drain-migration, parked work);
those runs post one step at a time through the same handles.  Handles
refuse state-changing commands while a window is open
(:class:`StepWindowOpen`) — the rule says that cannot happen, so a
violation fails loudly instead of silently diverging.

On both backends a handle's state view is refreshed only when the
corresponding outcome is *processed* by the simulator (submit, restore,
checkpoint, pop-preempted responses, and :meth:`ReplicaHandle.finish_step`),
never when a step inside a window merely finishes computing — so routers,
admission control and autoscalers observe the same replica state on
either backend at the same event.  The simulator still
prices every outcome itself, in the serial order: the worker's prices are
only an ordering and stopping key, and the report has one source of
truth.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to keep this module dependency-light
    import numpy as np

    from ..policies import PolicySpec
    from ..seqstate import SequenceCheckpoint
    from ..serving import BatchedEngine, CompletedRequest, EngineSnapshot
    from ..serving.engine import StepTrace
    from ..traffic.clock import StepClock

__all__ = [
    "ReplicaStateView",
    "StepOutcome",
    "StepWindow",
    "StepWindowOpen",
    "ReplicaHandle",
    "ExecutionBackend",
    "WorkerCrashed",
    "engine_state_view",
    "engine_offload_stats",
]


class WorkerCrashed(RuntimeError):
    """A backend worker process died (or its pipe broke) mid-conversation.

    Raised instead of hanging on a dead pipe; carries which worker and
    which command was in flight so the failure is attributable, plus an
    optional ``detail`` string — the parent-side cause (the pipe error
    and the worker's exit code) or the worker's own traceback when one
    made it across the pipe before death.
    """

    def __init__(self, worker: int, command: str, detail: str | None = None) -> None:
        message = (
            f"execution-backend worker {worker} crashed "
            f"while serving command {command!r}"
        )
        if detail:
            message = f"{message}\n{detail}"
        super().__init__(message)
        self.worker = worker
        self.command = command
        self.detail = detail


class StepWindowOpen(RuntimeError):
    """A state-changing command reached a replica whose step window is open.

    The simulator only opens a window while no event can touch the
    replica before the window's gate, so this signals a broken soundness
    rule; it is raised instead of letting the command see (or change) an
    engine that may already have stepped past the simulator.
    """

    def __init__(self, replica: str, command: str) -> None:
        super().__init__(
            f"replica {replica} has an open step window; {command!r} would "
            f"act on engine state the simulator has not consumed yet"
        )
        self.replica = replica
        self.command = command


@dataclass(frozen=True)
class StepWindow:
    """How far a worker may step one replica without the simulator.

    Attributes
    ----------
    index:
        The replica's simulator index, which breaks clock ties when a
        worker orders its open windows (the simulator's own step order).
    clock_s:
        The replica's clock when the window opened: the start instant of
        its first step.
    gate_s:
        The earliest pending ready, failure or arrival instant, or
        ``None`` when no such event is pending.
    last_checkpoint_s / checkpoint_interval_s:
        The replica's last periodic checkpoint instant and the interval
        (``None`` when periodic checkpoints are off).
    """

    index: int
    clock_s: float
    gate_s: float | None = None
    last_checkpoint_s: float = 0.0
    checkpoint_interval_s: float | None = None

    def admits(self, clock_s: float) -> bool:
        """Whether a step that would start at ``clock_s`` stays in the window.

        ``clock_s`` is the end of the step just run.  The window ends when
        the next step would start at or past the gate, or when the step
        just run made a periodic checkpoint due — the simulator takes it
        on exactly this post-step state.  Both tests are the simulator's
        own expressions, verbatim: algebraically equal forms can round
        differently.
        """
        if self.gate_s is not None and not clock_s < self.gate_s:
            return False
        interval = self.checkpoint_interval_s
        return interval is None or not clock_s - self.last_checkpoint_s >= interval


@dataclass(frozen=True)
class ReplicaStateView:
    """Snapshot of the scheduler-visible state of one replica engine.

    This is everything the simulator, routers and control-plane policies
    read between steps.  :func:`serve_command` builds it after every
    state-changing command, and the handle keeps the latest one as
    ``view`` on either backend.
    """

    queued: int = 0
    active: int = 0
    num_preempted: int = 0
    reserved_kv_bytes: int = 0
    queued_kv_bytes: int = 0
    num_preemptions_total: int = 0
    active_request_ids: tuple[str, ...] = ()

    def has_work(self) -> bool:
        """Queued, in-flight or preempted requests present."""
        return bool(self.queued or self.active or self.num_preempted)


@dataclass
class StepOutcome:
    """Result of one engine step, however it was computed.

    ``wall_s`` is the host wall time the step's compute took (in the
    worker for the multiprocess backend) — observability only, never part
    of the byte-reproducible report body.
    """

    finished: "list[CompletedRequest]"
    trace: "StepTrace"
    wall_s: float


def engine_state_view(engine: "BatchedEngine") -> ReplicaStateView:
    """Freeze a live engine's scheduler-visible state into a view."""
    return ReplicaStateView(
        queued=len(engine.queue),
        active=engine.num_active,
        num_preempted=engine.num_preempted,
        reserved_kv_bytes=engine.reserved_kv_bytes(),
        queued_kv_bytes=engine.queued_kv_bytes(),
        num_preemptions_total=engine.num_preemptions_total,
        active_request_ids=tuple(engine.active_request_ids),
    )


def engine_offload_stats(engine: "BatchedEngine") -> dict[str, dict[str, int]]:
    """Tier-transfer and peak-residency accounting of one engine.

    The capacity harness reads this after a run (or after a
    :class:`~repro.memory.CapacityExceeded` abort) — through the handle,
    so it works identically for worker-resident engines.
    """
    from ..memory import TransferDirection

    ledger = engine.offload.ledger
    return {
        "transfers": {
            direction.value: ledger.total_bytes(direction)
            for direction in TransferDirection
        },
        "peak_bytes": {
            "gpu": engine.offload.gpu.peak_bytes,
            "cpu": engine.offload.cpu.peak_bytes,
            "ssd": engine.offload.ssd.peak_bytes,
        },
    }


def step_engine(engine: "BatchedEngine") -> tuple:
    """One engine step: (finished, trace, post-step view, compute wall seconds)."""
    t0 = time.perf_counter()
    finished = engine.step()
    wall_s = time.perf_counter() - t0
    return finished, engine.last_step_trace, engine_state_view(engine), wall_s


def serve_command(engine: "BatchedEngine", command: str, args: tuple):
    """Run one replica command against an engine; the reply both backends send.

    The one command table: the serial handle calls it in the simulator's
    process, a multiprocess worker calls it on the far side of the pipe,
    so both refresh their :class:`ReplicaStateView` from the same
    replies.  A ``step`` reply says its window does not continue; only a
    worker's window loop replies otherwise.
    """
    if command == "submit":
        engine.submit(**args[0])
        return engine_state_view(engine)
    if command == "step":
        return (*step_engine(engine), False)
    if command == "drain":
        engine.drain()
        return None
    if command == "snapshot":
        return engine.snapshot()
    if command == "pop_preempted":
        return (engine.pop_preempted(), engine_state_view(engine))
    if command == "checkpoint":
        request_id, keep = args
        checkpoint = engine.checkpoint_request(request_id, keep=keep)
        return (checkpoint, engine_state_view(engine))
    if command == "restore":
        engine.restore_request(args[0])
        return engine_state_view(engine)
    if command == "prefix_stats":
        return engine.prefix_cache_stats()
    if command == "offload_stats":
        return engine_offload_stats(engine)
    raise ValueError(f"unknown backend command {command!r}")


class ReplicaHandle(ABC):
    """Simulator-facing surface of one replica engine.

    Every command is one :meth:`_call` of :func:`serve_command` — the
    backend decides only where the engine lives — and ``view`` is the
    state the last processed command returned.  Routers, admission
    control and autoscalers read ``view``, never the engine, so they see
    the same state on every backend.  The split ``start_step`` /
    ``finish_step`` pair lets a backend overlap step compute across
    replicas.
    """

    # A step or window is in flight.  Only a run-ahead handle sets it,
    # and such a handle names its replica in ``rid``.
    _stepping = False

    def __init__(self, view: ReplicaStateView) -> None:
        self.view = view

    @abstractmethod
    def _call(self, command: str, *args: object):
        """Run ``serve_command(engine, command, args)`` wherever the engine lives."""

    def has_work(self) -> bool:
        """Whether the replica has queued, in-flight or preempted requests."""
        return self.view.has_work()

    @property
    def engine(self) -> "BatchedEngine":
        """The wrapped in-process engine (serial backend only)."""
        raise RuntimeError(
            "this replica's engine is worker-resident; drive it through the "
            "handle methods instead of touching the engine directly"
        )

    def _require_settled(self, command: str) -> None:
        """Refuse a state-changing command while a step window is open."""
        if self._stepping:
            raise StepWindowOpen(self.rid, command)

    # ------------------------------------------------------------------
    # engine commands
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_ids: "np.ndarray",
        request_id: str,
        max_new_tokens: int | None,
        policy: "PolicySpec | str | None",
        arrival_time_s: float,
        slo_class: str,
        seed: int | None = None,
    ) -> None:
        """Enqueue one request on the replica engine."""
        self._require_settled("submit")
        self.view = self._call(
            "submit",
            {
                "prompt_ids": prompt_ids,
                "request_id": request_id,
                "max_new_tokens": max_new_tokens,
                "policy": policy,
                "arrival_time_s": arrival_time_s,
                "slo_class": slo_class,
                "seed": seed,
            },
        )

    def start_step(self, window: StepWindow | None = None) -> None:
        """Begin computing the replica's next engine step.

        A no-op here: the engine steps inside :meth:`finish_step`, so its
        state never runs ahead of the simulator.  A run-ahead backend
        posts the step (opening ``window``) and returns immediately.
        """

    def finish_step(self) -> StepOutcome:
        """Return the replica's next step outcome (computing it if needed).

        Outcomes come back one per engine step, in step order; an
        exception a step raised is re-raised here, at that step, and
        leaves ``view`` at the last outcome processed.
        """
        finished, trace, self.view, wall_s, _ = self._call("step", None)
        return StepOutcome(finished=finished, trace=trace, wall_s=wall_s)

    def drain(self) -> None:
        """Flip the engine's submission gate (work in flight continues).

        Allowed mid-window: draining only gates submissions, so it does
        not change how the engine steps.  Its reply carries no view, which
        would show steps the simulator has not consumed yet.
        """
        self._call("drain")

    def snapshot(self) -> "EngineSnapshot":
        """Inventory queued and in-flight work (read-only)."""
        self._require_settled("snapshot")
        return self._call("snapshot")

    def pop_preempted(self) -> "list[SequenceCheckpoint]":
        """Take ownership of the parked preempted checkpoints."""
        self._require_settled("pop_preempted")
        checkpoints, self.view = self._call("pop_preempted")
        return checkpoints

    def checkpoint_request(
        self, request_id: str, keep: bool = True
    ) -> "SequenceCheckpoint":
        """Checkpoint one in-flight request (evicting it when not kept)."""
        self._require_settled("checkpoint_request")
        checkpoint, self.view = self._call("checkpoint", request_id, keep)
        return checkpoint

    def restore_request(self, checkpoint: "SequenceCheckpoint") -> None:
        """Restore a checkpointed request onto this replica."""
        self._require_settled("restore_request")
        self.view = self._call("restore", checkpoint)

    def prefix_cache_stats(self) -> dict[str, object]:
        """The engine's prefix-cache counters (empty when disabled)."""
        return self._call("prefix_stats")

    def offload_stats(self) -> dict[str, dict[str, int]]:
        """Tier-transfer/peak accounting (see :func:`engine_offload_stats`)."""
        return self._call("offload_stats")


class ExecutionBackend(ABC):
    """Factory and lifecycle owner of a set of replica handles."""

    name: str = "?"
    # Whether engine steps may compute ahead of the simulator consuming
    # them; the simulator opens step windows only on such a backend.
    runs_ahead: bool = False

    def use_clock(self, clock: "StepClock") -> None:
        """Adopt the simulator's step clock as the key that bounds windows."""

    @abstractmethod
    def create_handle(self) -> ReplicaHandle:
        """Build one fresh replica engine and return its handle."""

    def reset(self) -> None:
        """Discard all engines (handles become dead); keep the substrate."""

    def drain_counters(self) -> None:
        """Fold worker-side perf counters into the caller's active counter.

        No-op for the serial backend, whose engines record straight into
        the process-local counter.  Summation is order-independent, so
        the merged counts are byte-identical to a serial run.
        """

    def describe(self) -> dict[str, object]:
        """Identifying configuration (observability only, never reported)."""
        return {"name": self.name}

    def close(self) -> None:
        """Release all backend resources (processes, shared memory)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
