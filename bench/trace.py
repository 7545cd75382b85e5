"""Outside-in tracing: spans around the calls into each layer of ``repro``.

Nothing under ``src/`` is instrumented.  ``install`` replaces the
callables listed in ``TARGETS`` — module attributes at their use site and
methods on their class — with recording wrappers, in this process only,
and ``uninstall`` puts the originals back.  A span is ``{name, start, end,
parent, request_id}``; spans stay in memory until ``Tracer.write`` dumps
them when the run ends.  A layer's self time is its span's duration minus
what its child spans cover.

This file is named after the issue that asked for it; it shadows the
standard library's ``trace`` module for scripts started from ``bench/``,
none of which (nor ``numpy``/``repro``) import that module.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


def _sequence_request_id(core, seq, *args, **kwargs) -> str | None:
    """Request id of an ``EngineCore`` call, from the sequence's KV buffers."""
    return seq.kv_store.buffer_prefix.rstrip("/") or None


def _checkpoint_request_id(engine, request_id, *args, **kwargs) -> str:
    return request_id


def _restore_request_id(engine, checkpoint, *args, **kwargs) -> str:
    return checkpoint.request_id


# (module the callable is looked up in, attribute path, span name, request id of a call)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.api.spec", "EngineSpec.build_model", "model.build", None),
    ("repro.model.generation", "EngineCore.prefill_chunk", "model.prefill", _sequence_request_id),
    ("repro.model.generation", "full_causal_attention", "model.prefill_attention", None),
    ("repro.model.generation", "EngineCore.decode_step_batch", "model.decode", None),
    ("repro.model.generation", "selected_attention_batch", "model.decode_attention", None),
    ("repro.model.generation", "EngineCore._attend_stacked", "model.decode_attention", None),
    ("repro.model.generation", "KVCacheStore.gather_many", "model.kv_gather", None),
    ("repro.core.clusterkv", "kmeans_cluster_batch", "core.cluster_build", None),
    ("repro.core.clusterkv", "ClusterKVLayerState.select", "core.select", None),
    ("repro.baselines.quest", "QuestLayerState.select", "baselines.select", None),
    ("repro.baselines.streaming_llm", "StreamingLLMLayerState.select", "baselines.select", None),
    ("repro.baselines.h2o", "H2OLayerState.select", "baselines.select", None),
    ("repro.baselines.infinigen", "InfiniGenLayerState.select", "baselines.select", None),
    ("repro.baselines.full", "FullKVLayerState.select", "baselines.select", None),
    ("repro.serving.engine", "BatchedEngine.step", "serving.step", None),
    ("repro.serving.engine", "RadixPrefixCache.match", "prefixcache.match", None),
    ("repro.serving.engine", "RadixPrefixCache.insert", "prefixcache.insert", None),
    ("repro.model.generation", "EngineCore.attach_prefix", "prefixcache.attach", _sequence_request_id),
    ("repro.serving.engine", "BatchedEngine.checkpoint_request", "seqstate.checkpoint", _checkpoint_request_id),
    ("repro.serving.engine", "BatchedEngine.restore_request", "seqstate.restore", _restore_request_id),
    ("repro.cluster.autoscaler", "QueueDepthAutoscaler.decide", "cluster.autoscaler", None),
    ("repro.cluster.admission", "TokenBudgetAdmission.consider", "cluster.admission", None),
    ("repro.traffic.router", "PrefixAffineRouter.choose", "traffic.route", None),
    ("repro.traffic.router", "JoinShortestQueueRouter.choose", "traffic.route", None),
    ("repro.traffic.clock", "PerfModelClock.step_seconds", "perfmodel.price", None),
    ("repro.execbackend.mp", "MultiprocessBackend.__init__", "execbackend.pool_start", None),
    ("repro.execbackend.mp", "RemoteReplicaHandle.finish_step", "execbackend.parent_wait", None),
]


class Tracer:
    """In-memory span recorder; one instance per process (``TRACER``)."""

    def __init__(self) -> None:
        self.enabled = False
        # Parallel lists, one entry per span, in opening order.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.request_ids: list[str | None] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # A forked worker inherits the wrappers; its spans could never
        # reach the parent, so it records none.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str, request_id: str | None) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if request_id is None and parent >= 0:
            request_id = self.request_ids[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.request_ids.append(request_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the span opened as ``index``."""
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, request_id_of: Callable | None) -> Callable:
        """``fn`` recording one span per call while the tracer is enabled."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rid = request_id_of(*args, **kwargs) if request_id_of is not None else None
            index = tracer.open(name, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every target; returns the ones that could not be wrapped.

        A non-empty return means a callable was renamed or moved in
        ``src/`` and its layer would silently vanish from the trace — the
        traced run fails on it.
        """
        missing: list[str] = []
        for module_name, path, span_name, request_id_of in TARGETS:
            try:
                owner: object = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attribute, self.wrap(original, span_name, request_id_of))
            self._installed.append((owner, attribute, original))
        return missing

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def roots_under(self, root_name: str) -> set[int]:
        """Indices of every span inside a root span named ``root_name``."""
        inside: set[int] = set()
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            if (parent < 0 and name == root_name) or parent in inside:
                inside.add(index)
        return inside

    def totals(self, within: set[int]) -> dict[str, dict[str, float]]:
        """Per span name inside ``within``: calls, total and self seconds."""
        durations, own = self.durations(), self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index in within:
            row = table[self.names[index]]
            row["calls"] += 1
            row["total_s"] += durations[index]
            row["self_s"] += own[index]
        return table

    def conservation(self, root_name: str) -> dict[str, float]:
        """Check sum(children) + self == parent and measure what no span covers.

        Children are recorded strictly nested (a stack), so a parent whose
        children sum to more than itself means the clock or the recorder is
        broken: ``violations`` counts those.  ``unaccounted_share`` is the
        part of the root spans not inside any layer span — the benchmark's
        own driver code.
        """
        durations, own = self.durations(), self.self_times()
        within = self.roots_under(root_name)
        violations = sum(1 for index in within if own[index] < -1e-6)
        roots = [i for i in within if self.parents[i] < 0]
        root_s = sum(durations[i] for i in roots)
        unaccounted_s = sum(own[i] for i in roots)
        return {
            "root_s": root_s,
            "unaccounted_s": unaccounted_s,
            "unaccounted_share": unaccounted_s / root_s if root_s else 0.0,
            "violations": float(violations),
        }

    def tree(self, root_name: str) -> str:
        """The call tree under ``root_name``, spans merged by name path."""
        durations, own = self.durations(), self.self_times()
        within = self.roots_under(root_name)
        paths: dict[int, tuple[str, ...]] = {}
        rows: dict[tuple[str, ...], list[float]] = {}
        for index in sorted(within):
            parent = self.parents[index]
            path = (*paths[parent], self.names[index]) if parent >= 0 else (self.names[index],)
            paths[index] = path
            row = rows.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += durations[index]
            row[2] += own[index]
        root_s = sum(row[1] for path, row in rows.items() if len(path) == 1) or 1.0
        lines = [f"{'span':<46} {'calls':>8} {'total s':>9} {'self s':>9} {'share':>7}"]
        for path in sorted(rows):
            calls, total_s, self_s = rows[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{label:<46} {int(calls):>8} {total_s:>9.3f} {self_s:>9.3f} "
                f"{100.0 * total_s / root_s:>6.1f}%"
            )
        return "\n".join(lines)

    def write(self, path: str, header: dict[str, object]) -> None:
        """Dump every span as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "request_id": r}
            for n, s, e, p, r in zip(
                self.names, self.starts, self.ends, self.parents, self.request_ids
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle)


TRACER = Tracer()


def span_cost_s() -> float:
    """Wall seconds one recorded span adds to the call it wraps.

    Measured on a throwaway tracer; multiplied by a pass's span count it
    gives the tracing overhead without comparing two noisy pass times.
    """
    samples = 5000
    probe = Tracer()

    def noop() -> None:
        return None

    traced_noop = probe.wrap(noop, "probe", None)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare_s = time.perf_counter() - start
    probe.enabled = True
    start = time.perf_counter()
    for _ in range(samples):
        traced_noop()
    return max(time.perf_counter() - start - bare_s, 0.0) / samples


@contextmanager
def span(name: str) -> Iterator[None]:
    """A span recorded from the benchmark's own code (free when disabled)."""
    if not TRACER.enabled:
        yield
        return
    index = TRACER.open(name, None)
    try:
        yield
    finally:
        TRACER.close(index)
