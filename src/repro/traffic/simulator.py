"""Virtual-clock, multi-replica, open-loop traffic simulation.

The simulator drives one or more :class:`~repro.serving.BatchedEngine`
replicas open-loop: requests arrive at externally given instants (an
:class:`~repro.traffic.arrivals.ArrivalProcess` or a replayed trace), a
:class:`~repro.traffic.router.Router` picks the replica, and every engine
step is charged simulation time through a
:class:`~repro.traffic.clock.StepClock`.  Event order is fully
deterministic:

* an arrival is delivered before any replica steps past it (arrivals at
  exactly a step boundary are enqueued first);
* among replicas with work, the one with the smallest clock steps next
  (ties break toward the lowest index);
* routing sees replica state *at the arrival instant*, so
  join-shortest-queue reacts to the queues as they were when the request
  arrived.

Requests decode on the real NumPy engines — outputs are exactly what the
serving engine produces (a single replica at batch capacity 1 reproduces
``BatchedEngine.run()`` token for token) — while time is virtual: with the
default :class:`~repro.traffic.clock.PerfModelClock` the whole run is
machine-independent and two runs with equal seeds emit byte-identical
:class:`~repro.traffic.report.TrafficReport` JSON.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..api import EngineSpec
from ..knobs import knob
from ..execbackend import (
    ExecutionBackend,
    LocalReplicaHandle,
    ReplicaHandle,
    SerialBackend,
    StepOutcome,
)
from ..serving import BatchedEngine, CompletedRequest
from .clock import StepClock, build_clock
from .report import RequestMetrics, SLOSpec, TrafficReport
from .router import Router, build_router
from .workload import TrafficRequest

__all__ = ["FleetConfig", "TrafficConfig", "Replica", "TrafficSimulator", "simulate"]


@dataclass(frozen=True)
class FleetConfig:
    """What a static and an elastic fleet have in common, declared once.

    The base of :class:`TrafficConfig` and
    :class:`repro.cluster.ClusterConfig`; each adds only how its fleet
    is sized.  Not a runnable configuration on its own: the simulators
    read the subclasses' ``num_replicas``.

    Attributes
    ----------
    engine:
        Replica engine description (model, default policy, budget,
        decoding and scheduler knobs); every replica is built from this
        one spec.
    router:
        Routing strategy name (see :func:`repro.traffic.build_router`).
    clock:
        ``"perfmodel"`` (virtual, reproducible — the default) or
        ``"wall"`` (measured host time).
    arch / context_scale:
        Perfmodel-clock parameters: reference architecture priced, and
        the factor mapping simulated token counts to paper scale (matches
        :class:`repro.experiments.ContextScale` down-scaling).
    slo:
        TTFT/TPOT deadlines goodput is evaluated under.
    workers:
        Worker-process count for the ``multiprocess`` execution backend.
        Setting it implies ``backend="multiprocess"`` even when the
        engine spec says ``"serial"``; leaving it ``None`` with a
        multiprocess spec defaults to ``min(num_replicas, cpu_count)``.
        Virtual-clock results are byte-identical either way.
    """

    engine: EngineSpec = field(default_factory=EngineSpec)
    router: str = knob(
        "round_robin", "routing strategy (see `repro list` for registered routers)"
    )
    clock: str = knob(
        "perfmodel",
        "step clock: perfmodel (virtual, bit-reproducible) or wall",
        choices=("perfmodel", "wall"),
    )
    arch: str = knob("llama-3.1-8b", "reference architecture priced by the perfmodel clock")
    context_scale: int = knob(64, "factor mapping simulated token counts to paper scale")
    slo: SLOSpec = field(default_factory=SLOSpec)
    workers: int | None = knob(
        None,
        "worker-process count for the multiprocess backend (implies "
        "--backend multiprocess; <= 0 derives min(replicas, cpu_count))",
        none_if="<=0",
    )

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1 when set")


@dataclass(frozen=True)
class TrafficConfig(FleetConfig):
    """Configuration of one traffic simulation over a static fleet.

    A :class:`FleetConfig` plus ``num_replicas`` identical replicas
    behind the router.
    """

    num_replicas: int = knob(1, "engine replicas", "--replicas")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")


class Replica:
    """One serving engine plus its position on the simulation clock.

    The engine is driven through an execution-backend
    :class:`~repro.execbackend.ReplicaHandle` — in-process for the
    serial backend, worker-resident for the multiprocess one.  A bare
    :class:`~repro.serving.BatchedEngine` is wrapped on the spot for
    callers constructing replicas directly.
    """

    def __init__(self, index: int, engine: BatchedEngine | ReplicaHandle) -> None:
        self.index = index
        self.handle: ReplicaHandle = (
            engine if isinstance(engine, ReplicaHandle) else LocalReplicaHandle(engine)
        )
        self.clock_s = 0.0
        self.steps = 0
        self.occupancy: list[int] = []
        # Host wall time spent computing this replica's steps (virtual
        # clock time lives in clock_s) — observability only.
        self.step_wall_s = 0.0

    @property
    def engine(self) -> BatchedEngine:
        """The in-process engine (raises on worker-resident replicas)."""
        return self.handle.engine

    @property
    def queued(self) -> int:
        """Requests waiting in this replica's admission queue."""
        return self.handle.queued

    @property
    def active(self) -> int:
        """Requests currently decoding on this replica."""
        return self.handle.active

    @property
    def reserved_kv_bytes(self) -> int:
        """Projected KV bytes of this replica's in-flight *and queued* requests.

        Queued requests count too: during a burst, arrivals are routed
        before any replica steps, so a size-aware router must see the KV
        demand already committed to each queue, not just what has been
        admitted.
        """
        return self.handle.reserved_kv_bytes + self.handle.queued_kv_bytes

    def has_work(self) -> bool:
        """Whether the replica has queued, in-flight or preempted requests."""
        return self.handle.has_work()


class TrafficSimulator:
    """Open-loop simulation of routed traffic over engine replicas.

    Parameters
    ----------
    config:
        The simulation description; replicas, router and clock are built
        from it (a :class:`~repro.traffic.router.Router` or
        :class:`~repro.traffic.clock.StepClock` instance can be injected
        through ``router``/``clock`` for custom strategies).
        :class:`~repro.cluster.ClusterSimulator` passes its own
        :class:`~repro.cluster.ClusterConfig` through: the shared
        :class:`FleetConfig` fields plus ``num_replicas`` are all this
        class reads.
    """

    def __init__(
        self,
        config: TrafficConfig | None = None,
        router: Router | None = None,
        clock: StepClock | None = None,
    ) -> None:
        self.config = config or TrafficConfig()
        self.model = self.config.engine.build_model()
        # The fleet is built fresh at the start of every run(); between
        # runs this holds the replicas of the last one (for inspection).
        self.replicas: list[Replica] = []
        self.router = router if router is not None else build_router(self.config.router)
        self.clock = (
            clock
            if clock is not None
            else build_clock(
                self.config.clock,
                arch=self.config.arch,
                context_scale=self.config.context_scale,
            )
        )
        # Retained outcomes of the last run() call.
        self.completed: dict[str, CompletedRequest] = {}
        # Per-run bookkeeping (reset by _reset_run_state at every run()).
        self._replica_of: dict[str, int] = {}
        self._admitted_at_s: dict[str, float] = {}
        self._first_token_at_s: dict[str, float] = {}
        self._metrics: list[RequestMetrics] = []
        self._duration_s = 0.0
        self._run_wall_s = 0.0
        self._backend = self._build_backend()

    def _build_backend(self) -> ExecutionBackend:
        """The execution backend replicas run on, from the config.

        ``config.workers`` set implies the multiprocess backend even when
        the engine spec says serial; a multiprocess spec with no worker
        count defaults to ``min(num_replicas, cpu_count)``.
        """
        spec = self.config.engine
        workers = self.config.workers
        if spec.backend == "multiprocess" or workers is not None:
            from ..execbackend import MultiprocessBackend

            if workers is None:
                workers = max(1, min(self.config.num_replicas, os.cpu_count() or 1))
            return MultiprocessBackend(self.model, spec, workers)
        return SerialBackend(self.model, spec)

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory)."""
        self._backend.close()

    def __enter__(self) -> "TrafficSimulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _build_replicas(self) -> list[Replica]:
        """Fresh replicas from the engine spec (the model is shared)."""
        return [
            Replica(index, self._backend.create_handle())
            for index in range(self.config.num_replicas)
        ]

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _reset_run_state(self) -> None:
        """Clear the per-run bookkeeping at the start of every run()."""
        self.completed = {}
        self._replica_of = {}
        self._admitted_at_s = {}
        self._first_token_at_s = {}
        self._metrics = []
        self._duration_s = 0.0

    def _submit_to(self, replica: Replica, request: TrafficRequest) -> None:
        """Hand one arrived request to a replica's engine queue."""
        # An idle replica fast-forwards to the arrival instant; a working
        # one already sits at or past it (the arrival gate guarantees
        # arrival <= every working clock).
        replica.clock_s = max(replica.clock_s, request.arrival_time_s)
        replica.handle.submit(
            request.prompt_ids,
            request_id=request.request_id,
            max_new_tokens=request.max_new_tokens,
            policy=request.policy,
            arrival_time_s=request.arrival_time_s,
            slo_class=request.slo_class,
        )
        self._replica_of[request.request_id] = replica.index

    def _step_replica(self, replica: Replica) -> tuple[list[RequestMetrics], float]:
        """Run one engine step on ``replica`` and charge it clock time.

        Returns the metrics of the requests that retired during the step
        and the step's end instant on the replica clock.  The step may
        already be computing in a backend worker (speculation); this
        collects its outcome at exactly the serial processing point.
        """
        replica.handle.start_step()
        outcome = replica.handle.finish_step()
        return self._apply_step_outcome(replica, outcome)

    def _apply_step_outcome(
        self, replica: Replica, outcome: StepOutcome
    ) -> tuple[list[RequestMetrics], float]:
        """Charge one step outcome to the virtual clock and bookkeeping."""
        finished = outcome.finished
        trace = outcome.trace
        step_start_s = replica.clock_s
        step_end_s = step_start_s + self.clock.step_seconds(trace)
        replica.clock_s = step_end_s
        replica.steps += 1
        replica.occupancy.append(len(trace.decodes))
        replica.step_wall_s += outcome.wall_s
        for entry in trace.attaches:
            # A prefix-cache attach admits the request before any prefill
            # chunk of it runs; it never produces the first token itself.
            self._admitted_at_s.setdefault(entry.request_id, step_start_s)
        for entry in trace.prefills:
            # Under chunked prefill a request emits one prefill entry
            # per chunk: admission is the FIRST chunk's step start
            # (setdefault), while the first token lands at the end of
            # the LAST chunk's step (overwrite).
            self._admitted_at_s.setdefault(entry.request_id, step_start_s)
            self._first_token_at_s[entry.request_id] = step_end_s
        retired: list[RequestMetrics] = []
        for item in finished:
            record = self._metrics_of(item, step_end_s)
            retired.append(record)
            self._metrics.append(record)
            self.completed[item.request.request_id] = item
            self._duration_s = max(self._duration_s, step_end_s)
        return retired, step_end_s

    def run(self, requests: Sequence[TrafficRequest]) -> TrafficReport:
        """Simulate the given open-loop workload to completion.

        Each call starts from a cold fleet: replicas (engines, clocks,
        occupancy records) are rebuilt and the router's cursor state is
        reset, so repeated ``run()`` calls on one simulator are
        independent — the same workload yields the same report twice.
        """
        pending = deque(
            sorted(enumerate(requests), key=lambda item: (item[1].arrival_time_s, item[0]))
        )
        self._backend.reset()
        self.replicas = self._build_replicas()
        self.router.reset()
        self._reset_run_state()
        run_start = time.perf_counter()

        try:
            while pending or any(replica.has_work() for replica in self.replicas):
                working = [replica for replica in self.replicas if replica.has_work()]
                next_step_s = min((replica.clock_s for replica in working), default=None)
                gate_s = pending[0][1].arrival_time_s if pending else None
                if pending and (next_step_s is None or gate_s <= next_step_s):
                    _, request = pending.popleft()
                    target = int(self.router.choose(self.replicas, request))
                    if not 0 <= target < len(self.replicas):
                        raise ValueError(
                            f"router {self.router.name!r} chose replica {target}, "
                            f"but only {len(self.replicas)} exist"
                        )
                    self._submit_to(self.replicas[target], request)
                    continue

                # Speculation: every working replica strictly before the
                # next arrival must step before that arrival can touch it,
                # so its step compute may start now (the multiprocess
                # backend overlaps them across workers; serial defers).
                # Outcomes are still *processed* one at a time below, in
                # exactly the serial order.
                for candidate in working:
                    if gate_s is None or candidate.clock_s < gate_s:
                        candidate.handle.start_step()

                replica = min(working, key=lambda r: (r.clock_s, r.index))
                self._step_replica(replica)
        finally:
            # Fold worker-side GEMM/k-means tallies into this process's
            # active perf counter (no-op for the serial backend).
            self._backend.drain_counters()
            self._run_wall_s = time.perf_counter() - run_start

        return self._build_report()

    def _build_report(self) -> TrafficReport:
        """Assemble the report of the run that just drained."""
        occupancy = [o for replica in self.replicas for o in replica.occupancy]
        report = TrafficReport(
            requests=self._metrics,
            slo=self.config.slo,
            num_replicas=len(self.replicas),
            router=self.router.describe(),
            clock=self.clock.describe(),
            duration_s=self._duration_s,
            engine_steps=sum(replica.steps for replica in self.replicas),
            mean_occupancy=(sum(occupancy) / len(occupancy)) if occupancy else 0.0,
            num_preemptions=sum(
                replica.handle.num_preemptions_total for replica in self.replicas
            ),
            prefix_cache=self._prefix_cache_summary(),
        )
        report.wall = self._wall_summary()
        return report

    def _wall_summary(self) -> dict[str, object]:
        """Host wall-time breakdown of the run (never part of to_dict).

        ``idle_wall_s`` is the run wall time a replica spent *not*
        computing steps — waiting its turn under the serial backend,
        genuinely idle or overlapped under the multiprocess one.
        """
        return {
            "run_wall_s": self._run_wall_s,
            "step_wall_s": sum(replica.step_wall_s for replica in self.replicas),
            "replicas": [
                {
                    "replica": replica.index,
                    "step_wall_s": replica.step_wall_s,
                    "idle_wall_s": max(0.0, self._run_wall_s - replica.step_wall_s),
                }
                for replica in self.replicas
            ],
            "backend": self._backend.describe(),
        }

    def _prefix_cache_summary(self) -> dict[str, object]:
        """Fleet-wide prefix-cache accounting plus the hit/miss TTFT split.

        Counters are summed over the replica-local caches; the TTFT means
        split the served requests by whether they attached a cached prefix
        (``cached_prefix_tokens > 0``).  Empty when no replica ran with a
        prefix cache.
        """
        per_replica = [replica.handle.prefix_cache_stats() for replica in self.replicas]
        per_replica = [stats for stats in per_replica if stats]
        if not per_replica:
            return {}
        summed = (
            "hits",
            "misses",
            "hit_tokens",
            "inserted_tokens",
            "evicted_tokens",
            "evictions",
            "cached_tokens",
            "num_nodes",
        )
        summary: dict[str, object] = {
            key: int(sum(int(stats.get(key, 0)) for stats in per_replica))
            for key in summed
        }
        lookups = int(summary["hits"]) + int(summary["misses"])
        summary["hit_rate"] = int(summary["hits"]) / lookups if lookups else 0.0
        hit_ttfts = [m.ttft_s for m in self._metrics if m.cached_prefix_tokens > 0]
        miss_ttfts = [m.ttft_s for m in self._metrics if m.cached_prefix_tokens == 0]
        summary["requests_with_hit"] = len(hit_ttfts)
        summary["ttft_hit_mean_s"] = (
            float(sum(hit_ttfts) / len(hit_ttfts)) if hit_ttfts else 0.0
        )
        summary["ttft_miss_mean_s"] = (
            float(sum(miss_ttfts) / len(miss_ttfts)) if miss_ttfts else 0.0
        )
        return summary

    def _retries_of(self, request_id: str) -> int:
        """Failure-retry count of a request (always 0 without failures)."""
        return 0

    def _migrations_of(self, request_id: str) -> int:
        """Drain-migration count of a request (always 0 without a cluster)."""
        return 0

    def _recoveries_of(self, request_id: str) -> int:
        """Checkpoint-recovery count of a request (always 0 without failures)."""
        return 0

    def _metrics_of(self, item: CompletedRequest, finish_s: float) -> RequestMetrics:
        """Convert one retirement into its :class:`RequestMetrics` record."""
        request_id = item.request.request_id
        arrival = item.request.arrival_time_s
        first_token = self._first_token_at_s[request_id]
        tokens = len(item.result.output_ids)
        ttft = first_token - arrival
        tpot = (finish_s - first_token) / (tokens - 1) if tokens > 1 else 0.0
        return RequestMetrics(
            request_id=request_id,
            replica=self._replica_of[request_id],
            policy=item.result.method,
            arrival_time_s=arrival,
            queue_wait_s=self._admitted_at_s[request_id] - arrival,
            ttft_s=ttft,
            tpot_s=tpot,
            e2e_s=finish_s - arrival,
            prompt_tokens=item.request.prompt_length(),
            output_tokens=tokens,
            slo_met=self.config.slo.is_met(ttft, tpot),
            retries=self._retries_of(request_id),
            cached_prefix_tokens=int(
                getattr(item.result, "cached_prefix_tokens", 0)
            ),
            slo_class=item.request.slo_class,
            migrations=self._migrations_of(request_id),
            recoveries=self._recoveries_of(request_id),
            spec_rounds=int(getattr(item.result, "spec_rounds", 0)),
            spec_drafted_tokens=int(
                getattr(item.result, "spec_drafted_tokens", 0)
            ),
            spec_accepted_tokens=int(
                getattr(item.result, "spec_accepted_tokens", 0)
            ),
            spec_rejected_tokens=int(
                getattr(item.result, "spec_rejected_tokens", 0)
            ),
        )


def simulate(
    requests: Sequence[TrafficRequest],
    config: TrafficConfig | None = None,
    router: Router | None = None,
    clock: StepClock | None = None,
    *,
    workers: int | None = None,
) -> TrafficReport:
    """Run one traffic simulation and return its :class:`TrafficReport`.

    The one-call entry point the :mod:`repro.api` layer re-exports:
    build a workload (:func:`repro.traffic.generate_traffic` or
    :func:`repro.traffic.load_trace`), describe the fleet in a
    :class:`TrafficConfig`, and simulate.  ``workers`` selects the
    multiprocess execution backend with that many worker processes; the
    report is byte-identical to the serial default.
    """
    config = config or TrafficConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    with TrafficSimulator(config, router=router, clock=clock) as simulator:
        return simulator.run(requests)
