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
``(replica_id, command, status, payload)``.  A ``step`` command may carry
a :class:`~repro.execbackend.StepWindow` (see
:mod:`repro.execbackend.base`): the worker then keeps stepping that
replica without further commands while the window admits it, sending one
reply per step that says whether the window continues.  Between steps
the worker serves whatever command has arrived, and it steps its open
windows lowest ``(clock_s, replica index)`` first — the order the
simulator consumes them — pricing each step on the simulator's
:class:`~repro.traffic.clock.StepClock`, shipped to it once.  Because
replies carry their identity, the parent can interleave synchronous
control commands (drain / snapshot / checkpoint / restore) on the same
pipe and still match every reply to its call: replies arriving out of
turn are parked, first in first out per ``(replica, command)``, until
asked for.

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
import traceback
from multiprocessing import shared_memory
from collections import defaultdict, deque
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
    StepOutcome,
    StepWindow,
    WorkerCrashed,
    engine_state_view,
    serve_command,
    step_engine,
)
from .serial import build_engine

if TYPE_CHECKING:
    from ..api import EngineSpec
    from ..serving import BatchedEngine
    from ..traffic.clock import StepClock

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
        """Unmap the weight arena in this process and unlink its block."""
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


class _WorkerTraceback(Exception):
    """The worker-side traceback text of an exception re-raised in the parent."""

    def __str__(self) -> str:
        return self.args[0]


def _decode_error(payload: tuple[str, str, tuple, dict, str]) -> BaseException:
    """Rebuild the worker's exception (falling back to RuntimeError).

    A rebuilt exception carries the worker's traceback text as its
    ``__cause__`` (as :mod:`concurrent.futures.process` does), so the
    parent's traceback shows the worker frames that raised it.  The
    fallback covers exactly the ways reconstruction can fail — the type's
    module is missing here, the attribute path is gone, the name no longer
    refers to an exception type, or its ``__new__`` refuses the bare call
    — and carries the same text in its message.
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
        exc.__cause__ = _WorkerTraceback(f'\n"""\n{tb}"""')
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
    """Serve engine commands until ``close`` or pipe EOF, stepping open windows in between.

    Before every window step the worker polls the pipe, so a command
    (``create``, ``drain``, ...) never waits behind a window.  Runs with a
    process-local op counter permanently installed so every GEMM/k-means
    event is tallied; the parent drains the tallies at the end of each
    simulation run.
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
    try:
        with count_ops() as counter:
            worker = _Worker(model, spec, counter)
            while True:
                if worker.windows and not conn.poll():
                    reply = worker.step_next_window()
                else:
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
                    if command == "step" and args[0] is not None:
                        # The window's steps reply one by one from the
                        # branch above.
                        worker.windows[rid] = (args[0], args[0].clock_s)
                        continue
                    try:
                        payload = worker.serve(command, rid, args)
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


class _Worker:
    """One worker's engine table, open step windows and step clock."""

    def __init__(self, model: TransformerModel, spec: "EngineSpec", counter) -> None:
        self.model = model
        self.spec = spec
        self.counter = counter
        self.engines: dict[str, BatchedEngine] = {}
        # Open windows: replica id -> (window, start instant of its next step).
        self.windows: dict[str, tuple[StepWindow, float]] = {}
        self.clock: StepClock | None = None

    def step_next_window(self) -> tuple:
        """Step the open window the simulator will consume first; its reply frame.

        Ordered by ``(clock_s, replica index)``, the simulator's own step
        order.  The step is priced on the simulator's clock with the
        simulator's expression (start + price); the window stays open
        while the replica has work and the window admits the new clock.
        A step that raises closes its window and becomes that step's
        reply.
        """
        rid = min(self.windows, key=lambda r: (self.windows[r][1], self.windows[r][0].index))
        window, clock_s = self.windows.pop(rid)
        try:
            finished, trace, view, wall_s = step_engine(self.engines[rid])
            clock_s = clock_s + self.clock.step_seconds(trace)
        except BaseException as exc:  # noqa: BLE001 — forwarded typed
            return (rid, "step", "exc", _encode_error(exc))
        continues = view.has_work() and window.admits(clock_s)
        if continues:
            self.windows[rid] = (window, clock_s)
        return (rid, "step", "ok", (finished, trace, view, wall_s, continues))

    def serve(self, command: str, rid, args: tuple):
        """Execute one protocol command: worker-level here, the rest per engine."""
        if command == "create":
            self.engines[rid] = build_engine(self.model, self.spec)
            return engine_state_view(self.engines[rid])
        if command == "reset":
            self.engines.clear()
            self.windows.clear()
            return None
        if command == "clock":
            self.clock = args[0]
            return None
        if command == "counters":
            counts = self.counter.as_dict()
            self.counter.counts.clear()
            return counts
        if command == "model_digest":
            return _model_digest(self.model)
        if command == "ping":
            return "pong"
        return serve_command(self.engines[rid], command, args)


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
        # Replies that arrived while waiting for a different call, first
        # in first out per (replica_id, command): a window sends one step
        # reply after another.
        self._parked: defaultdict[tuple[object, str], deque] = defaultdict(deque)
        # Per run: windows posted, and steps the worker ran inside a
        # window without a command of their own.
        self.windows_opened = 0
        self.steps_run_ahead = 0

    def post(self, rid: object, command: str, *args: object) -> None:
        """Send one command without waiting for its reply."""
        try:
            self.conn.send((command, rid, args))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(self.index, command, detail=self._crash_detail(exc)) from exc

    def wait(self, rid: object, command: str):
        """Receive the reply of a posted command, parking strangers."""
        key = (rid, command)
        parked = self._parked.get(key)
        reply = parked.popleft() if parked else None
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
                self._parked[frame_key].append(frame)
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
    """Proxy to a worker-resident engine, holding the view its replies carry.

    The view refreshes only from replies the simulator has actually
    processed — a step that already ran in the worker's window stays
    invisible until :meth:`finish_step` returns it — so every parent-side
    observer sees serial-equivalent state (see
    :mod:`repro.execbackend.base`).
    """

    def __init__(self, client: _WorkerClient, rid: str) -> None:
        self._client = client
        self.rid = rid
        super().__init__(client.call(rid, "create"))
        # A step is in flight: posted and not yet consumed, or the last
        # consumed step said its window continues.
        self._stepping = False
        # The in-flight step was posted by a command of its own.
        self._posted = False

    def _call(self, command: str, *args: object):
        """Round-trip the command to the worker's engine."""
        return self._client.call(self.rid, command, *args)

    def start_step(self, window: StepWindow | None = None) -> None:
        """Post the step command (opening ``window``) without waiting.

        A no-op while a step or window is in flight.  A window needs the
        simulator's clock in the worker (:meth:`MultiprocessBackend.use_clock`).
        """
        if self._stepping:
            return
        self._client.post(self.rid, "step", window)
        self._stepping = self._posted = True
        self._client.windows_opened += window is not None

    def finish_step(self) -> StepOutcome:
        """Receive the next step outcome, refreshing the view."""
        if not self._stepping:
            self.start_step()
        ran_ahead = not self._posted
        # Cleared first: a step that raised closed its window in the worker.
        self._stepping = self._posted = False
        finished, trace, self.view, wall_s, self._stepping = self._client.wait(
            self.rid, "step"
        )
        self._client.steps_run_ahead += ran_ahead
        return StepOutcome(finished=finished, trace=trace, wall_s=wall_s)


class MultiprocessBackend(ExecutionBackend):
    """Persistent worker pool sharing one read-only weight arena."""

    name = "multiprocess"
    runs_ahead = True

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

    def use_clock(self, clock: "StepClock") -> None:
        """Ship the simulator's step clock to every worker, once."""
        for client in self._clients:
            client.call(None, "clock", clock)

    def reset(self) -> None:
        """Close every window; discard every worker engine and stale parked reply."""
        for client in self._clients:
            # The worker answers after every step reply it already sent,
            # so the parked buffer holds them all once this returns.
            client.call(None, "reset")
            client._parked.clear()
            client.windows_opened = client.steps_run_ahead = 0

    def drain_counters(self) -> None:
        """Merge each worker's op counters into the parent's."""
        for client in self._clients:
            counts = client.call(None, "counters")
            for name in sorted(counts):
                record(name, counts[name])

    def model_digests(self) -> dict[str, str]:
        """Weight digests of every worker's model copy, keyed ``worker<i>``.

        Compare them with :func:`_model_digest` of the parent's model.
        """
        return {
            f"worker{client.index}": client.call(None, "model_digest")
            for client in self._clients
        }

    def describe(self) -> dict[str, object]:
        """Identity of this backend plus the last run's window counts (for reports)."""
        return {
            "name": self.name,
            "workers": self.workers,
            "start_method": self.start_method,
            "cpu_count": os.cpu_count() or 1,
            "windows_opened": sum(client.windows_opened for client in self._clients),
            "steps_run_ahead": sum(client.steps_run_ahead for client in self._clients),
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
