"""Multiprocess execution backend: persistent replica workers.

One worker process per replica group hosts full
:class:`~repro.serving.BatchedEngine` instances; replicas are assigned to
workers round-robin at handle creation.  Model weights are materialised
**once** into a :mod:`multiprocessing.shared_memory` block by the parent
and every worker reconstructs its :class:`~repro.model.TransformerModel`
from read-only views into that block — N workers cost one copy of the
float64 parameter arrays, not N.

Command protocol
----------------
The parent talks to each worker over a pipe with self-identifying frames:
requests are ``(command, replica_id, args)`` and replies
``(replica_id, command, status, payload)``.  Because replies carry their
identity, the parent can post several ``step`` commands speculatively
(see :mod:`repro.execbackend.base`), interleave synchronous control
commands (drain / snapshot / checkpoint / restore) on the same pipe, and
still match every reply to its call — replies arriving out of turn are
parked in a buffer until asked for.

Failure semantics
-----------------
An exception raised inside a worker (for example
:class:`~repro.memory.CapacityExceeded` during a sweep-to-failure probe)
is re-raised in the parent with its original type and attributes, so
``except`` clauses behave identically across backends.  A worker that
*dies* surfaces as a typed :class:`~repro.execbackend.WorkerCrashed`
instead of a hang.

Fork safety
-----------
Module-level caches in the model substrate (the RoPE cos/sin table cache
in :mod:`repro.model.tensor_ops`) and instance-level derived weights (the
fused QKV / gate-up projections built in ``TransformerModel.__init__``)
are deterministic functions of the model configuration: a forked worker
inherits bit-identical tables, a spawned worker rebuilds bit-identical
ones, so outputs never drift across processes (pinned by the backend
parity tests, and re-checkable at runtime via
:meth:`MultiprocessBackend.model_digests`).  The prefill lanes of
:mod:`repro.model._lanes` are threads that live only inside one call, so
a parent that has prefilled before the pool forks hands its workers no
thread state.

Worker-side perf counters are folded back into the parent's active
:func:`repro.perf.count_ops` counter when the simulator finishes a run —
addition is order-independent, so merged GEMM counts are byte-identical
to a serial run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import multiprocessing
import os
import pickle
import time
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..model import TransformerModel, get_model_config
from ..model._lanes import available_cpus, set_lane_cap
from ..model.weights import LayerWeights, ModelWeights
from ..perf import count_ops
from ..perf.counters import record
from .base import (
    ExecutionBackend,
    ReplicaHandle,
    ReplicaStateView,
    StepOutcome,
    WorkerCrashed,
    engine_offload_stats,
    engine_state_view,
)
from .serial import build_engine

if TYPE_CHECKING:
    from ..api import EngineSpec
    from ..policies import PolicySpec
    from ..seqstate import SequenceCheckpoint
    from ..serving import EngineSnapshot

__all__ = ["MultiprocessBackend"]

_ALIGN = 64  # byte alignment of each parameter array in the arena


# ----------------------------------------------------------------------
# shared-memory weight arena
# ----------------------------------------------------------------------
def _named_arrays(weights: ModelWeights) -> Iterator[tuple[str, np.ndarray]]:
    """All parameter arrays of a weight set, in a fixed deterministic order."""
    for spec_field in dataclasses.fields(ModelWeights):
        name = spec_field.name
        if name in ("config", "layers"):
            continue
        value = getattr(weights, name)
        if value is not None:
            yield name, value
    for index, layer in enumerate(weights.layers):
        for layer_field in dataclasses.fields(LayerWeights):
            yield f"layers.{index}.{layer_field.name}", getattr(layer, layer_field.name)


class _WeightArena:
    """The float64 parameter arrays of one model, in one shared block.

    The manifest (name, shape, dtype, offset) travels to the workers,
    which map read-only NumPy views at the same offsets — byte-identical
    weights with zero per-worker copies.
    """

    def __init__(self, weights: ModelWeights) -> None:
        entries: list[tuple[str, tuple[int, ...], str, int]] = []
        arrays: list[np.ndarray] = []
        offset = 0
        for name, array in _named_arrays(weights):
            array = np.ascontiguousarray(array)
            offset = -(-offset // _ALIGN) * _ALIGN
            entries.append((name, array.shape, array.dtype.str, offset))
            arrays.append(array)
            offset += array.nbytes
        self.manifest = entries
        self.num_layers = len(weights.layers)
        self.shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (name, shape, dtype, start), array in zip(entries, arrays):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf, offset=start)
            view[...] = array

    def close(self) -> None:
        """Shut down every worker and release the weight arena."""
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _attach_views(
    shm: shared_memory.SharedMemory,
    manifest: list[tuple[str, tuple[int, ...], str, int]],
) -> dict[str, np.ndarray]:
    """Read-only array views into an attached arena, keyed by name."""
    views: dict[str, np.ndarray] = {}
    for name, shape, dtype, offset in manifest:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    return views


def _rebuild_weights(
    model_name: str,
    shm: shared_memory.SharedMemory,
    manifest: list[tuple[str, tuple[int, ...], str, int]],
    num_layers: int,
) -> ModelWeights:
    """A :class:`ModelWeights` whose arrays are views into the arena."""
    views = _attach_views(shm, manifest)
    layers = [
        LayerWeights(
            **{
                layer_field.name: views[f"layers.{index}.{layer_field.name}"]
                for layer_field in dataclasses.fields(LayerWeights)
            }
        )
        for index in range(num_layers)
    ]
    top = {
        spec_field.name: views.get(spec_field.name)
        for spec_field in dataclasses.fields(ModelWeights)
        if spec_field.name not in ("config", "layers")
    }
    return ModelWeights(config=get_model_config(model_name), layers=layers, **top)


def _model_digest(model: TransformerModel) -> str:
    """SHA-256 over raw weights and the derived fused projections.

    Equal digests across processes prove the shared-memory views and the
    per-process derived caches (fused QKV / gate-up) carry identical bits.
    """
    digest = hashlib.sha256()
    for name, array in _named_arrays(model.weights):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    for fused in model._wqkv:
        digest.update(np.ascontiguousarray(fused).tobytes())
    if model._w_gate_up is not None:
        for fused in model._w_gate_up:
            digest.update(np.ascontiguousarray(fused).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# exception transport
# ----------------------------------------------------------------------
def _encode_error(exc: BaseException) -> tuple[str, str, tuple, dict, str]:
    """Flatten an exception so the parent can re-raise the original type.

    ``(cls, *args)`` reconstruction breaks on keyword-only constructors
    (e.g. :class:`~repro.memory.CapacityExceeded`), so the instance state
    travels separately and is re-applied over ``cls.__new__``.
    """
    payload = (
        type(exc).__module__,
        type(exc).__qualname__,
        tuple(exc.args),
        dict(getattr(exc, "__dict__", {})),
        traceback.format_exc(),
    )
    try:
        pickle.dumps(payload)
        return payload
    except (pickle.PicklingError, TypeError, AttributeError, ValueError):
        # Exactly the failures CPython's pickle raises for unpicklable
        # objects (reduce errors, unpicklable closures/locks, recursive
        # state); anything else is a real bug that should surface.
        return (
            "builtins",
            "RuntimeError",
            (f"{type(exc).__name__}: {exc}",),
            {},
            traceback.format_exc(),
        )


def _decode_error(payload: tuple[str, str, tuple, dict, str]) -> BaseException:
    """Rebuild the worker's exception (falling back to RuntimeError).

    The fallback covers exactly the ways reconstruction can fail — the
    type's module is missing here, the attribute path is gone, the name
    no longer refers to an exception type, or its ``__new__`` refuses the
    bare call — and carries the worker's full traceback text so the
    original failure is never lost.
    """
    module_name, qualname, args, state, tb = payload
    try:
        obj: object = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert isinstance(obj, type) and issubclass(obj, BaseException)
        exc = obj.__new__(obj)
        exc.args = args
        exc.__dict__.update(state)
        return exc
    except (ImportError, AttributeError, AssertionError, TypeError):
        return RuntimeError(
            f"worker raised {module_name}.{qualname}{args}\n--- worker traceback ---\n{tb}"
        )


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    model_name: str,
    shm_name: str,
    manifest: list[tuple[str, tuple[int, ...], str, int]],
    num_layers: int,
    spec_blob: bytes,
    workers: int,
) -> None:
    """Serve engine commands until ``close`` or pipe EOF.

    Runs with a process-local op counter permanently installed so every
    GEMM/k-means event is tallied; the parent drains the tallies at the
    end of each simulation run.
    """
    # A worker sees the whole machine in its affinity mask; its prefill
    # lanes take only this worker's share so the pool does not
    # oversubscribe the box on long prompts.
    set_lane_cap(max(1, available_cpus() // workers))
    # Attaching registers the segment with the process tree's (shared)
    # resource tracker; registrations dedupe, and the parent's unlink at
    # close() retires the single entry — no per-worker unregister needed.
    shm = shared_memory.SharedMemory(name=shm_name)
    spec = pickle.loads(spec_blob)
    weights = _rebuild_weights(model_name, shm, manifest, num_layers)
    model = TransformerModel(get_model_config(model_name), weights=weights)
    engines: dict[str, object] = {}
    try:
        with count_ops() as counter:
            while True:
                try:
                    command, rid, args = conn.recv()
                except (EOFError, OSError):
                    break
                if command == "close":
                    try:
                        conn.send((rid, command, "ok", None))
                    except OSError:
                        # Parent already gone; the ack is best-effort.
                        pass
                    break
                try:
                    payload = _serve(command, rid, args, engines, model, spec, counter)
                    reply = (rid, command, "ok", payload)
                except BaseException as exc:  # noqa: BLE001 — forwarded typed
                    reply = (rid, command, "exc", _encode_error(exc))
                try:
                    conn.send(reply)
                except OSError:
                    # Pipe to the parent broke mid-reply; nothing left to
                    # serve, so exit and let the parent raise WorkerCrashed.
                    break
    finally:
        shm.close()


def _serve(command, rid, args, engines, model, spec, counter):
    """Execute one protocol command against the worker's engine table."""
    if command == "create":
        engines[rid] = build_engine(model, spec)
        return engine_state_view(engines[rid])
    if command == "reset":
        engines.clear()
        return None
    if command == "counters":
        counts = counter.as_dict()
        counter.counts.clear()
        return counts
    if command == "model_digest":
        return _model_digest(model)
    if command == "ping":
        return "pong"
    engine = engines[rid]
    if command == "submit":
        engine.submit(**args[0])
        return engine_state_view(engine)
    if command == "step":
        t0 = time.perf_counter()
        finished = engine.step()
        wall_s = time.perf_counter() - t0
        return (finished, engine.last_step_trace, engine_state_view(engine), wall_s)
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


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _WorkerClient:
    """Parent endpoint of one worker: pipe, process, and reply buffer."""

    def __init__(self, ctx, index: int, worker_args: tuple) -> None:
        self.index = index
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, *worker_args), daemon=True
        )
        self.process.start()
        child_conn.close()
        # Replies that arrived while waiting for a different call, keyed
        # by (replica_id, command) — at most one in flight per key.
        self._parked: dict[tuple[object, str], tuple] = {}

    def post(self, rid: object, command: str, *args: object) -> None:
        """Send one command without waiting for its reply."""
        try:
            self.conn.send((command, rid, args))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(self.index, command, detail=self._crash_detail(exc)) from exc

    def wait(self, rid: object, command: str):
        """Receive the reply of a posted command, parking strangers."""
        key = (rid, command)
        reply = self._parked.pop(key, None)
        while reply is None:
            try:
                frame = self.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(
                    self.index, command, detail=self._crash_detail(exc)
                ) from exc
            frame_key = (frame[0], frame[1])
            if frame_key == key:
                reply = frame
            else:
                self._parked[frame_key] = frame
        _, _, status, payload = reply
        if status == "exc":
            raise _decode_error(payload)
        return payload

    def call(self, rid: object, command: str, *args: object):
        """Round-trip one command."""
        self.post(rid, command, *args)
        return self.wait(rid, command)

    def _crash_detail(self, exc: BaseException) -> str:
        """Attributable cause for a :class:`WorkerCrashed`: pipe error + exit code.

        The exit code distinguishes a worker the kernel killed (negative:
        signal number, e.g. the OOM killer's -9) from one that exited
        cleanly after its pipe broke, and ``None`` means the process is
        somehow still alive — three very different debugging stories.
        """
        return f"pipe error: {exc!r}; worker exitcode={self.process.exitcode}"

    def shutdown(self) -> None:
        """Best-effort orderly close, then force."""
        try:
            self.conn.send(("close", None, ()))
        except OSError:
            # Worker already dead; terminate/join below still reaps it.
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass


class RemoteReplicaHandle(ReplicaHandle):
    """Proxy to a worker-resident engine with a cached state view.

    The view refreshes only from replies the simulator has actually
    processed — a speculated step that already ran in the worker stays
    invisible until :meth:`finish_step` — so every parent-side observer
    sees serial-equivalent state (see :mod:`repro.execbackend.base`).
    """

    def __init__(self, client: _WorkerClient, rid: str) -> None:
        self._client = client
        self.rid = rid
        self._view: ReplicaStateView = client.call(rid, "create")
        self._draining = False
        self._step_posted = False

    # ------------------------------------------------------------------
    # cached state
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Requests waiting in the worker engine's queue (cached view)."""
        return self._view.queued

    @property
    def active(self) -> int:
        """Requests decoding in the worker engine (cached view)."""
        return self._view.active

    @property
    def num_preempted(self) -> int:
        """Checkpointed-out requests in the worker (cached view)."""
        return self._view.num_preempted

    @property
    def reserved_kv_bytes(self) -> int:
        """KV bytes reserved by active sequences (cached view)."""
        return self._view.reserved_kv_bytes

    @property
    def queued_kv_bytes(self) -> int:
        """KV bytes the queued requests will reserve (cached view)."""
        return self._view.queued_kv_bytes

    @property
    def num_preemptions_total(self) -> int:
        """Total preemptions performed (cached view)."""
        return self._view.num_preemptions_total

    @property
    def is_draining(self) -> bool:
        """Whether the replica is draining (local flag OR view)."""
        return self._draining or self._view.is_draining

    @property
    def active_request_ids(self) -> tuple[str, ...]:
        """Ids of the decoding requests (cached view)."""
        return self._view.active_request_ids

    @property
    def preempted_request_ids(self) -> tuple[str, ...]:
        """Ids of checkpointed-out requests (cached view)."""
        return self._view.preempted_request_ids

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_ids,
        request_id: str,
        max_new_tokens: int,
        policy: "PolicySpec | str | None",
        arrival_time_s: float,
        slo_class: str,
    ) -> None:
        """Send one request to the worker engine; refresh the view."""
        self._view = self._client.call(
            self.rid,
            "submit",
            {
                "prompt_ids": prompt_ids,
                "request_id": request_id,
                "max_new_tokens": max_new_tokens,
                "policy": policy,
                "arrival_time_s": arrival_time_s,
                "slo_class": slo_class,
            },
        )

    def start_step(self) -> None:
        """Post the step command to the worker without waiting."""
        if not self._step_posted:
            self._client.post(self.rid, "step")
            self._step_posted = True

    def finish_step(self) -> StepOutcome:
        """Receive the step outcome, refreshing the cached view."""
        if not self._step_posted:
            self.start_step()
        finished, trace, view, wall_s = self._client.wait(self.rid, "step")
        self._step_posted = False
        self._view = view
        return StepOutcome(finished=finished, trace=trace, wall_s=wall_s)

    def drain(self) -> None:
        """Tell the worker engine to stop admitting (reply view dropped)."""
        # The returned view is deliberately dropped: a speculated step may
        # already have run in the worker, and the drain reply would leak
        # its post-step state ahead of the simulator processing it.
        self._client.call(self.rid, "drain")
        self._draining = True

    def snapshot(self) -> "EngineSnapshot":
        """Queue/active snapshot fetched from the worker."""
        return self._client.call(self.rid, "snapshot")

    def pop_preempted(self) -> "list[SequenceCheckpoint]":
        """Take the worker's preempted checkpoints; refresh the view."""
        checkpoints, self._view = self._client.call(self.rid, "pop_preempted")
        return checkpoints

    def checkpoint_request(
        self, request_id: str, keep: bool = True
    ) -> "SequenceCheckpoint":
        """Checkpoint one request in the worker; refresh the view."""
        checkpoint, self._view = self._client.call(
            self.rid, "checkpoint", request_id, keep
        )
        return checkpoint

    def restore_request(self, checkpoint: "SequenceCheckpoint") -> None:
        """Restore a checkpoint into the worker; refresh the view."""
        self._view = self._client.call(self.rid, "restore", checkpoint)

    def prefix_cache_stats(self) -> dict[str, object]:
        """Prefix-cache counters fetched from the worker."""
        return self._client.call(self.rid, "prefix_stats")

    def offload_stats(self) -> dict[str, dict[str, int]]:
        """Tier transfer/peak accounting fetched from the worker."""
        return self._client.call(self.rid, "offload_stats")


class MultiprocessBackend(ExecutionBackend):
    """Persistent worker pool sharing one read-only weight arena."""

    name = "multiprocess"

    def __init__(
        self,
        model: TransformerModel,
        spec: "EngineSpec",
        workers: int,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.start_method = start_method
        self.workers = workers
        ctx = multiprocessing.get_context(start_method)
        self._arena = _WeightArena(model.weights)
        worker_args = (
            spec.model,
            self._arena.shm.name,
            self._arena.manifest,
            self._arena.num_layers,
            pickle.dumps(spec),
            workers,
        )
        self._clients = [_WorkerClient(ctx, i, worker_args) for i in range(workers)]
        self._next_handle = 0
        self._closed = False

    def create_handle(self) -> RemoteReplicaHandle:
        """A handle over a fresh engine in the next worker (round-robin)."""
        client = self._clients[self._next_handle % len(self._clients)]
        # Replica ids stay unique across reset() so stale parked replies
        # from an aborted run can never alias a new replica.
        rid = f"r{self._next_handle}"
        self._next_handle += 1
        return RemoteReplicaHandle(client, rid)

    def reset(self) -> None:
        """Discard every worker engine and stale parked replies."""
        for client in self._clients:
            client.call(None, "reset")
            client._parked.clear()

    def drain_counters(self) -> None:
        """Merge each worker's op counters into the parent's."""
        for client in self._clients:
            counts = client.call(None, "counters")
            for name in sorted(counts):
                record(name, counts[name])

    def model_digests(self) -> dict[str, str]:
        """Weight digests of the parent model and every worker's copy."""
        digests = {
            f"worker{client.index}": client.call(None, "model_digest")
            for client in self._clients
        }
        return digests

    def describe(self) -> dict[str, object]:
        """Identity of this backend (for reports)."""
        return {
            "name": self.name,
            "workers": self.workers,
            "start_method": self.start_method,
            "cpu_count": os.cpu_count() or 1,
        }

    def close(self) -> None:
        """Shut down every worker and release the weight arena."""
        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            client.shutdown()
        self._arena.close()

    def __del__(self) -> None:  # pragma: no cover — GC safety net
        try:
            self.close()
        except Exception:
            pass
