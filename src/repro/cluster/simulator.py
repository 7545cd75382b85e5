"""Virtual-clock fleet simulation: the one event loop behind every fleet run.

:class:`ClusterSimulator` drives one or more
:class:`~repro.serving.BatchedEngine` replicas open-loop: requests arrive
at externally given instants (an
:class:`~repro.traffic.arrivals.ArrivalProcess` or a replayed trace), a
:class:`~repro.traffic.router.Router` picks the replica, and every engine
step is charged simulation time through a
:class:`~repro.traffic.clock.StepClock`.  Requests decode on the real
NumPy engines — outputs are exactly what the serving engine produces (a
single replica at batch capacity 1 reproduces ``BatchedEngine.run()``
token for token) — while time is virtual.

A control plane runs over the replica set:

* the fleet is **elastic** — an :class:`~repro.cluster.autoscaler.Autoscaler`
  is consulted after every event and may boot replicas (which pay a
  warm-up cost priced by the step clock before accepting traffic) or
  drain them (a draining replica finishes the work it holds and is only
  removed once empty);
* arrivals pass **admission control** — an
  :class:`~repro.cluster.admission.AdmissionPolicy` may reject a request
  at the door, producing a first-class
  :class:`~repro.traffic.report.RejectedRequest` instead of a blown p99;
* a seeded :class:`~repro.cluster.failures.FailurePlan` **kills replicas**
  mid-run — the in-flight requests of the victim are lost (their decoded
  tokens counted as wasted work) and deterministically re-dispatched from
  their prompts, so retried requests reproduce their failure-free outputs
  token for token.  Plans with ``num_zones > 0`` can kill a whole zone at
  once (correlated failures);
* **live migration and checkpoint recovery** ride on the
  :mod:`repro.seqstate` subsystem: with ``migrate_on_drain`` a scale-down
  checkpoints the draining replica's in-flight requests and restores them
  on other replicas (priced as a host-to-host KV transfer on the virtual
  clock, with all decoded work preserved); with ``checkpoint_interval_s``
  every replica periodically checkpoints its active requests, and a
  failure victim resumes from its last checkpoint instead of
  re-prefilling — only the tokens decoded after the checkpoint count as
  lost work.

A static fleet is the degenerate cluster, run through the same loop:
``min_replicas == max_replicas`` (:func:`repro.traffic.TrafficConfig`),
the ``static`` autoscaler, ``always`` admission and no planned failure.
The report carries the ``autoscaler``, ``admission`` and ``scaling``
fields only when the config has a control plane to report — a
non-``static`` autoscaler, a non-``always`` admission policy or a
planned failure — so a static run reads the same from any entry point.

Event order is total and fully deterministic: at equal instants, replicas
becoming ready beat failures, failures beat arrivals, and arrivals beat
engine steps (an arrival at exactly a step boundary is enqueued first, and
routing sees replica state *at the arrival instant*); every tie within a
kind breaks on the stable (index, plan slot, arrival order).  On the
perfmodel clock two runs with equal seeds emit byte-identical
:class:`~repro.traffic.report.TrafficReport` JSON — including the scaling
timeline, the failure log and every rejection.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..api import EngineSpec
from ..execbackend import ExecutionBackend, ReplicaHandle, SerialBackend, StepWindow
from ..knobs import knob
from ..model import _lanes
from ..seqstate import SequenceCheckpoint
from ..serving import BatchedEngine, CompletedRequest, ServeRequest
from ..traffic.clock import StepClock, build_clock
from ..traffic.report import RejectedRequest, RequestMetrics, SLOSpec, TrafficReport
from ..traffic.router import ROUTERS, Router
from .admission import ADMISSIONS, AdmissionPolicy
from .autoscaler import AUTOSCALERS, Autoscaler
from .failures import FailureEvent, FailurePlan
from .fleet import FleetView, ReplicaInfo, ReplicaLifecycle

__all__ = ["ClusterConfig", "ClusterReplica", "ClusterSimulator", "simulate_cluster"]

# Fallback per-replica admission capacity (projected KV tokens) when the
# engine spec declares neither kv_capacity_tokens nor kv_budget_bytes:
# half a k of prompt-plus-decode tokens per batch slot.
DEFAULT_CAPACITY_TOKENS_PER_SLOT = 512

# Completions feeding FleetView.recent_slo_attainment, the fleet-level
# informational signal offered to any control policy.  Policies that want
# a configurable window keep their own via Autoscaler.observe() — the
# built-in slo_attainment autoscaler does exactly that.
RECENT_SLO_WINDOW = 16


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one fleet simulation: the only fleet config.

    A static fleet is the degenerate cluster: ``min_replicas ==
    max_replicas``, the ``static`` autoscaler, ``always`` admission and
    no failures (:func:`repro.traffic.TrafficConfig` names that preset).

    Attributes
    ----------
    engine:
        Replica engine description (model, default policy, budget,
        decoding and scheduler knobs); every replica is built from this
        one spec, and its ``kv_capacity_tokens`` feeds admission control.
    router:
        Routing strategy name (see :data:`repro.traffic.ROUTERS`).
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
        multiprocess spec defaults to ``min(num_replicas, available
        CPUs)``, counting the CPUs in the process's affinity mask.
        Virtual-clock results are byte-identical either way.
    min_replicas / max_replicas:
        Provisioning bounds.  The simulator heals the fleet back to
        ``min_replicas`` after failures regardless of the autoscaler and
        clamps every scale-up to ``max_replicas``.
    autoscaler / admission:
        Control-plane policies — instances, or compact spec strings such
        as ``"queue_depth:high=2"`` resolved through the registries.
    failures:
        The failure-injection plan (empty by default).
    max_retries:
        Failure re-dispatches a request may consume before it is given
        up on (recorded as rejected with reason ``"retries_exhausted"``).
    migrate_on_drain:
        When set, a scale-down does not wait for the draining replica to
        finish: its in-flight requests are checkpointed out and restored
        on other replicas (or parked until one accepts), the queued ones
        re-dispatched, and the replica removed immediately.  Each restore
        charges the target replica the clock's migration cost for the
        checkpointed KV; no decoded token is lost and nothing is
        re-prefilled.
    checkpoint_interval_s:
        When set, every replica checkpoints its active requests each
        time this much simulation time has passed on its clock.  A
        failure victim whose requests hold a checkpoint resumes from it
        instead of re-prefilling; only the tokens decoded after the last
        checkpoint count toward ``lost_tokens``.
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
        "--backend multiprocess; <= 0 derives min(replicas, available CPUs))",
        none_if="<=0",
    )
    min_replicas: int = knob(1, "fleet floor (always provisioned)")
    max_replicas: int = knob(4, "fleet ceiling for scale-up")
    autoscaler: Autoscaler | str = knob(
        "static",
        "autoscaler spec, resolved through the registry "
        "(see `repro list`; e.g. queue_depth:high=2,low=0.25)",
        metavar="NAME[:KEY=VAL,...]",
    )
    admission: AdmissionPolicy | str = knob(
        "always",
        "admission-control spec, resolved through the registry "
        "(see `repro list`; e.g. queue_deadline:deadline_s=2.5)",
        metavar="NAME[:KEY=VAL,...]",
    )
    failures: FailurePlan = field(default_factory=FailurePlan)
    max_retries: int = knob(
        3, "failure re-dispatches a request may consume before giving up"
    )
    migrate_on_drain: bool = knob(
        False,
        "checkpoint-migrate in-flight requests off draining replicas "
        "(repro.seqstate) instead of waiting for them to finish",
    )
    checkpoint_interval_s: float | None = knob(
        None,
        "periodic per-replica checkpoint interval in seconds for failure "
        "recovery (<= 0 disables; failures then retry from scratch)",
        "--checkpoint-interval",
        none_if="<=0",
    )

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1 when set")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive when set")
        ROUTERS.check(self.router)
        AUTOSCALERS.check_spec(self.autoscaler)
        ADMISSIONS.check_spec(self.admission)

    @property
    def num_replicas(self) -> int:
        """Replicas provisioned at t=0 (sizes the default worker pool)."""
        return self.min_replicas

    def capacity_tokens(self, kv_bytes_per_token: int) -> int:
        """Per-replica admission capacity in projected KV tokens.

        Resolution order: the engine spec's declared
        ``kv_capacity_tokens``; else its ``kv_budget_bytes`` converted at
        the served model's KV bytes per token; else
        ``max_batch_size * DEFAULT_CAPACITY_TOKENS_PER_SLOT``.
        """
        if self.engine.kv_capacity_tokens is not None:
            return self.engine.kv_capacity_tokens
        if self.engine.kv_budget_bytes is not None:
            return max(self.engine.kv_budget_bytes // kv_bytes_per_token, 1)
        return self.engine.max_batch_size * DEFAULT_CAPACITY_TOKENS_PER_SLOT


class ClusterReplica:
    """One fleet replica: a serving engine, its simulation clock and lifecycle stage.

    The engine is driven through an execution-backend
    :class:`~repro.execbackend.ReplicaHandle` — in-process for the
    serial backend, worker-resident for the multiprocess one — and its
    state is read from ``handle.view``.
    """

    def __init__(
        self,
        index: int,
        handle: ReplicaHandle,
        state: ReplicaLifecycle = ReplicaLifecycle.ACTIVE,
        ready_at_s: float = 0.0,
    ) -> None:
        self.index = index
        self.handle = handle
        self.state = state
        self.ready_at_s = ready_at_s
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
        return self.handle.view.queued

    @property
    def active(self) -> int:
        """Requests currently decoding on this replica."""
        return self.handle.view.active

    @property
    def reserved_kv_bytes(self) -> int:
        """Projected KV bytes of this replica's in-flight *and queued* requests.

        Queued requests count too: during a burst, arrivals are routed
        before any replica steps, so a size-aware router must see the KV
        demand already committed to each queue, not just what has been
        admitted.
        """
        view = self.handle.view
        return view.reserved_kv_bytes + view.queued_kv_bytes

    def has_work(self) -> bool:
        """Whether the replica has queued, in-flight or preempted requests."""
        return self.handle.has_work()

    @property
    def is_live(self) -> bool:
        """Whether the replica still exists (not stopped or failed)."""
        return self.state in (
            ReplicaLifecycle.STARTING,
            ReplicaLifecycle.ACTIVE,
            ReplicaLifecycle.DRAINING,
        )


class ClusterSimulator:
    """Open-loop traffic over a (possibly elastic, failure-prone) replica fleet.

    Parameters
    ----------
    config:
        The fleet description; autoscaler, admission policy, router and
        clock are built from it (instances can be injected through a
        :class:`ClusterConfig`'s ``autoscaler``/``admission`` fields or
        the ``router``/``clock`` constructor arguments).
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        router: Router | None = None,
        clock: StepClock | None = None,
    ) -> None:
        config = config or ClusterConfig()
        self.config = config
        self.model = config.engine.build_model()
        self.router = router if router is not None else ROUTERS.build(config.router)
        self.clock = (
            clock
            if clock is not None
            else build_clock(config.clock, arch=config.arch, context_scale=config.context_scale)
        )
        self.autoscaler = AUTOSCALERS.resolve(config.autoscaler)
        self.admission = ADMISSIONS.resolve(config.admission)
        self._kv_bytes_per_token = self.model.config.kv_bytes_per_token()
        self._capacity_tokens = config.capacity_tokens(self._kv_bytes_per_token)
        self._run_wall_s = 0.0
        self._backend = self._build_backend()
        self._backend.use_clock(self.clock)
        # Per-run state; between runs it holds the last run (for inspection).
        self._reset_run_state()

    def _build_backend(self) -> ExecutionBackend:
        """The execution backend replicas run on, from the config.

        ``config.workers`` set implies the multiprocess backend even when
        the engine spec says serial; a multiprocess spec with no worker
        count defaults to ``min(num_replicas, available CPUs)``, counting
        only the CPUs in this process's affinity mask.
        """
        spec = self.config.engine
        workers = self.config.workers
        if spec.backend == "multiprocess" or workers is not None:
            from ..execbackend import MultiprocessBackend

            if workers is None:
                workers = max(1, min(self.config.num_replicas, _lanes.available_cpus()))
            return MultiprocessBackend(self.model, spec, workers)
        return SerialBackend(self.model, spec)

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory)."""
        self._backend.close()

    def __enter__(self) -> "ClusterSimulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _reset_run_state(self) -> None:
        """(Re-)initialise the per-run fleet and bookkeeping."""
        self.fleet: list[ClusterReplica] = []
        self.completed: dict[str, CompletedRequest] = {}
        self._next_index = 0
        self._replica_of: dict[str, int] = {}
        self._admitted_at_s: dict[str, float] = {}
        self._first_token_at_s: dict[str, float] = {}
        self._metrics: list[RequestMetrics] = []
        self._duration_s = 0.0
        self._parked: deque[ServeRequest] = deque()
        self._parked_checkpoints: deque[SequenceCheckpoint] = deque()
        self._retry_counts: dict[str, int] = {}
        self._migration_counts: dict[str, int] = {}
        self._recovery_counts: dict[str, int] = {}
        # Last periodic checkpoint of each in-flight request (purged at
        # retirement) and each replica's last checkpoint instant.
        self._checkpoints: dict[str, SequenceCheckpoint] = {}
        self._last_ckpt_s: dict[int, float] = {}
        self._lost_tokens = 0
        self._rejected: list[RejectedRequest] = []
        self._failure_log: list[dict[str, object]] = []
        self._scaling_log: list[dict[str, object]] = []
        self._recent_slo: deque[bool] = deque(maxlen=RECENT_SLO_WINDOW)
        self._peak_provisioned = 0

    # ------------------------------------------------------------------
    # fleet state
    # ------------------------------------------------------------------
    def _provisioned(self) -> int:
        """Replicas counting toward the fleet-size bound (starting + active)."""
        return sum(
            1
            for r in self.fleet
            if r.state in (ReplicaLifecycle.STARTING, ReplicaLifecycle.ACTIVE)
        )

    def _accepting(self) -> list[ClusterReplica]:
        """Replicas that may receive new requests, in index order."""
        return [r for r in self.fleet if r.state is ReplicaLifecycle.ACTIVE]

    def _fleet_view(self, now_s: float) -> FleetView:
        """Freeze the live fleet into the control plane's decision input."""
        infos = tuple(
            ReplicaInfo(
                index=r.index,
                state=r.state,
                queued=r.queued,
                active=r.active,
                committed_tokens=r.reserved_kv_bytes // self._kv_bytes_per_token,
                capacity_tokens=self._capacity_tokens,
                clock_s=r.clock_s,
            )
            for r in self.fleet
            if r.is_live
        )
        attainment = (
            sum(self._recent_slo) / len(self._recent_slo) if self._recent_slo else None
        )
        return FleetView(
            now_s=now_s,
            replicas=infos,
            parked=len(self._parked),
            recent_slo_attainment=attainment,
            min_replicas=self.config.min_replicas,
            max_replicas=self.config.max_replicas,
        )

    def _log_scale(self, now_s: float, action: str, replica: int, reason: str) -> None:
        """Append one fleet transition to the scaling timeline."""
        self._scaling_log.append(
            {
                "time_s": now_s,
                "action": action,
                "replica": replica,
                "reason": reason,
                "provisioned": self._provisioned(),
            }
        )

    # ------------------------------------------------------------------
    # fleet transitions
    # ------------------------------------------------------------------
    def _boot_replica(self, now_s: float, warm: bool, reason: str) -> ClusterReplica:
        """Provision one replica; ``warm`` boots pay the clock's warm-up lag."""
        replica = ClusterReplica(self._next_index, self._backend.create_handle())
        self._next_index += 1
        if warm:
            replica.state = ReplicaLifecycle.STARTING
            replica.ready_at_s = now_s + self.clock.warmup_seconds()
            replica.clock_s = replica.ready_at_s
        else:
            replica.state = ReplicaLifecycle.ACTIVE
            replica.ready_at_s = now_s
            replica.clock_s = now_s
        self.fleet.append(replica)
        self._log_scale(now_s, "boot", replica.index, reason)
        return replica

    def _stop_replica(self, replica: ClusterReplica, now_s: float) -> None:
        """Remove a drained replica (it must hold no work)."""
        assert not replica.has_work(), "scale-down with in-flight work"
        replica.state = ReplicaLifecycle.STOPPED
        self._log_scale(now_s, "remove", replica.index, "drained empty")

    def _begin_drains(self, count: int, now_s: float, reason: str) -> None:
        """Mark ``count`` least-loaded active replicas as draining.

        With ``migrate_on_drain`` the replica does not linger: its work is
        checkpoint-migrated out and it is removed at once.
        """
        candidates = sorted(
            self._accepting(), key=lambda r: (r.queued + r.active, -r.index)
        )
        for replica in candidates[:count]:
            replica.state = ReplicaLifecycle.DRAINING
            replica.handle.drain()
            self._log_scale(now_s, "drain", replica.index, reason)
            if self.config.migrate_on_drain:
                self._migrate_out(replica, now_s)
            elif not replica.has_work():
                self._stop_replica(replica, now_s)

    def _migrate_out(self, replica: ClusterReplica, now_s: float) -> None:
        """Empty a draining replica through checkpoint migration, then remove it.

        Active requests (and any parked preempted checkpoints) move as
        :class:`~repro.seqstate.SequenceCheckpoint` objects — every decoded
        token travels with them, so nothing is re-prefilled.  Queued
        requests have no state yet and simply re-dispatch.  The replica is
        removed immediately; its engine is never stepped again.
        """
        handle = replica.handle
        queued = list(handle.snapshot().queued)
        for request_id in list(handle.view.active_request_ids):
            checkpoint = handle.checkpoint_request(request_id, keep=False)
            self._migration_counts[request_id] = (
                self._migration_counts.get(request_id, 0) + 1
            )
            self._place_checkpoint(checkpoint, now_s)
        for checkpoint in handle.pop_preempted():
            request_id = checkpoint.request_id
            self._migration_counts[request_id] = (
                self._migration_counts.get(request_id, 0) + 1
            )
            self._place_checkpoint(checkpoint, now_s)
        for request in queued:
            self._replica_of.pop(request.request_id, None)
            self._dispatch(request, now_s)
        # The engine may still list the migrated-away queued entries; it is
        # discarded here, so bypass _stop_replica's empty assertion.
        replica.state = ReplicaLifecycle.STOPPED
        self._log_scale(now_s, "remove", replica.index, "migrated out")

    def _place_checkpoint(self, checkpoint: SequenceCheckpoint, now_s: float) -> None:
        """Restore a checkpoint on the least-loaded accepting replica.

        Parks it when nothing accepts traffic (a warm-up or a healed fleet
        restores it later — the run cannot end while checkpoints are
        parked).
        """
        accepting = self._accepting()
        if not accepting:
            self._parked_checkpoints.append(checkpoint)
            return
        target = min(accepting, key=lambda r: (r.queued + r.active, r.index))
        self._restore_checkpoint_on(target, checkpoint, now_s)

    def _restore_checkpoint_on(
        self, replica: ClusterReplica, checkpoint: SequenceCheckpoint, now_s: float
    ) -> None:
        """Restore one checkpoint on ``replica``, charging the transfer cost.

        The migration cost (host-to-host movement of ``position`` tokens of
        KV, priced by the step clock) advances the target's clock before
        the restored request can step — the stall every request on that
        replica observes.  Admission and first-token stamps are *not*
        touched: unlike a retry, a migrated request keeps its history, so
        its latencies grow only by the transfer, never by a re-prefill.
        """
        replica.clock_s = max(replica.clock_s, now_s) + self.clock.migration_seconds(
            checkpoint.position
        )
        replica.handle.restore_request(checkpoint)
        self._replica_of[checkpoint.request_id] = replica.index

    def _control(self, now_s: float) -> None:
        """Run the control plane after one event: heal, then autoscale."""
        # Healing to the floor is the simulator's own responsibility: a
        # fleet below min_replicas (after failures) boots replacements
        # whatever the autoscaler policy says.
        while self._provisioned() < self.config.min_replicas:
            self._boot_replica(now_s, warm=True, reason="min_replicas")
        decision = self.autoscaler.decide(self._fleet_view(now_s))
        if decision.add:
            can_add = max(self.config.max_replicas - self._provisioned(), 0)
            for _ in range(min(decision.add, can_add)):
                self._boot_replica(now_s, warm=True, reason=decision.reason or "scale_up")
        if decision.drain:
            can_drain = max(self._provisioned() - self.config.min_replicas, 0)
            if can_drain:
                self._begin_drains(
                    min(decision.drain, can_drain), now_s, decision.reason or "scale_down"
                )
        self._peak_provisioned = max(self._peak_provisioned, self._provisioned())

    # ------------------------------------------------------------------
    # request flow
    # ------------------------------------------------------------------
    def _decode_length(self, request: ServeRequest) -> int:
        """A request's decode length (``None``: the replica engine's default)."""
        if request.max_new_tokens is None:
            return self.config.engine.max_new_tokens
        return request.max_new_tokens

    def _dispatch(self, request: ServeRequest, now_s: float) -> None:
        """Route one admitted request, or park it when nothing accepts."""
        accepting = self._accepting()
        if not accepting:
            self._parked.append(request)
            return
        choice = int(self.router.choose(accepting, request))
        if not 0 <= choice < len(accepting):
            raise ValueError(
                f"router {self.router.name!r} chose replica {choice}, "
                f"but only {len(accepting)} accept traffic"
            )
        replica = accepting[choice]
        # An idle replica fast-forwards to the dispatch instant (a retry
        # dispatches at the failure instant, later than its arrival); a
        # working one already sits at or past it.
        replica.clock_s = max(replica.clock_s, now_s)
        replica.handle.submit(
            request.prompt_ids,
            request_id=request.request_id,
            max_new_tokens=request.max_new_tokens,
            policy=request.policy,
            arrival_time_s=request.arrival_time_s,
            slo_class=request.slo_class,
            seed=request.seed,
        )
        self._replica_of[request.request_id] = replica.index

    def _drain_parked(self, now_s: float) -> None:
        """Dispatch parked requests once a replica accepts traffic again."""
        while self._parked and self._accepting():
            self._dispatch(self._parked.popleft(), now_s)
        while self._parked_checkpoints and self._accepting():
            self._place_checkpoint(self._parked_checkpoints.popleft(), now_s)

    def _reject(
        self, request: ServeRequest, reason: str, detail: dict[str, float]
    ) -> None:
        """Record one rejection as a first-class report entry."""
        self._rejected.append(
            RejectedRequest(
                request_id=request.request_id,
                arrival_time_s=request.arrival_time_s,
                prompt_tokens=request.prompt_length(),
                max_new_tokens=self._decode_length(request),
                reason=reason,
                policy=request.policy.name if request.policy is not None else "",
                detail=detail,
            )
        )

    def _handle_arrival(self, request: ServeRequest, now_s: float) -> None:
        """Admission-check one arrival, then dispatch or reject it."""
        decision = self.admission.consider(
            request.prompt_length() + self._decode_length(request),
            self._fleet_view(now_s),
            slo_class=request.slo_class,
        )
        if not decision.admitted:
            self._reject(request, decision.reason, dict(decision.detail))
            return
        self._dispatch(request, now_s)

    def _retry_lost(self, request: ServeRequest, now_s: float) -> bool:
        """Re-dispatch one checkpoint-less lost request from its prompt.

        The lost attempt's admission/first-token stamps are void; the
        successful attempt re-stamps them, so TTFT and queue wait span the
        whole failure detour.  Returns whether a retry was actually
        dispatched (``False`` when the retry budget is exhausted and the
        request is rejected instead — ``_retry_counts`` counts actual
        re-dispatches, so a given-up request gets no phantom retry).
        """
        request_id = request.request_id
        self._admitted_at_s.pop(request_id, None)
        self._first_token_at_s.pop(request_id, None)
        self._replica_of.pop(request_id, None)
        retries_so_far = self._retry_counts.get(request_id, 0)
        if retries_so_far >= self.config.max_retries:
            self._reject(
                request, "retries_exhausted", {"retries": float(retries_so_far)}
            )
            return False
        self._retry_counts[request_id] = retries_so_far + 1
        self._dispatch(request, now_s)
        return True

    def _fire_failure(self, event: FailureEvent, now_s: float) -> None:
        """Kill the event's victims; recover or re-dispatch their work.

        A plain event kills the single slot-selected replica; a zone event
        kills every live replica in its zone (correlated failure).  All
        victims die *before* any lost work is re-placed, so nothing is
        re-dispatched onto a replica doomed by the same event.  Active
        requests holding a periodic checkpoint (and checkpoints parked by
        preemption, which are current by construction) resume through the
        checkpoint path — only the tokens decoded past the checkpoint are
        lost; everything else re-dispatches from the prompt.
        """
        pool = sorted(
            (
                r
                for r in self.fleet
                if r.state in (ReplicaLifecycle.ACTIVE, ReplicaLifecycle.DRAINING)
            ),
            key=lambda r: r.index,
        )
        num_zones = self.config.failures.num_zones
        if event.zone is not None and num_zones:
            victims = [r for r in pool if r.index % num_zones == event.zone]
        else:
            victims = [pool[event.slot % len(pool)]] if pool else []
        if not victims:
            self._failure_log.append(
                {
                    "time_s": now_s,
                    "replica": -1,
                    "slot": event.slot,
                    "zone": event.zone,
                    "skipped": True,
                }
            )
            return
        inventories = []
        for victim in victims:
            snapshot = victim.handle.snapshot()
            parked_checkpoints = victim.handle.pop_preempted()
            victim.state = ReplicaLifecycle.FAILED
            self._log_scale(now_s, "fail", victim.index, "failure injection")
            inventories.append((victim, snapshot, parked_checkpoints))
        for victim, snapshot, parked_checkpoints in inventories:
            lost_ids: list[str] = []
            retried: list[str] = []
            recovered: list[str] = []
            lost_tokens = 0
            for request in snapshot.queued:
                lost_ids.append(request.request_id)
                if self._retry_lost(request, now_s):
                    retried.append(request.request_id)
            for request, tokens_at_death in snapshot.active:
                request_id = request.request_id
                checkpoint = self._checkpoints.get(request_id)
                if checkpoint is not None:
                    lost_tokens += max(
                        0, tokens_at_death - checkpoint.tokens_generated
                    )
                    self._recovery_counts[request_id] = (
                        self._recovery_counts.get(request_id, 0) + 1
                    )
                    recovered.append(request_id)
                    self._place_checkpoint(checkpoint, now_s)
                    continue
                lost_ids.append(request_id)
                lost_tokens += tokens_at_death
                if self._retry_lost(request, now_s):
                    retried.append(request_id)
            for checkpoint in parked_checkpoints:
                request_id = checkpoint.request_id
                self._recovery_counts[request_id] = (
                    self._recovery_counts.get(request_id, 0) + 1
                )
                recovered.append(request_id)
                self._place_checkpoint(checkpoint, now_s)
            self._lost_tokens += lost_tokens
            self._failure_log.append(
                {
                    "time_s": now_s,
                    "replica": victim.index,
                    "slot": event.slot,
                    "zone": event.zone,
                    "lost_requests": lost_ids,
                    "retried": retried,
                    "recovered": recovered,
                    "lost_tokens": lost_tokens,
                }
            )

    def _maybe_checkpoint(self, replica: ClusterReplica, now_s: float) -> None:
        """Periodically checkpoint a replica's active requests.

        Runs after every engine step once ``checkpoint_interval_s`` of
        simulation time has passed on the replica's clock since its last
        round; each active request's latest checkpoint replaces the
        previous one (purged at retirement).
        """
        interval = self.config.checkpoint_interval_s
        if interval is None:
            return
        if now_s - self._last_ckpt_s.get(replica.index, 0.0) < interval:
            return
        self._last_ckpt_s[replica.index] = now_s
        for request_id in replica.handle.view.active_request_ids:
            self._checkpoints[request_id] = replica.handle.checkpoint_request(
                request_id, keep=True
            )

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _has_live_work(self) -> bool:
        """Whether any live replica holds queued or in-flight requests."""
        return any(
            r.has_work()
            for r in self.fleet
            if r.state in (ReplicaLifecycle.ACTIVE, ReplicaLifecycle.DRAINING)
        )

    def run(self, requests: Sequence[ServeRequest]) -> TrafficReport:
        """Simulate the workload over the fleet to completion.

        Each call starts cold: the fleet is rebuilt at ``min_replicas``,
        all control-plane state (autoscaler windows, admission state,
        router cursors, retry counts) is reset and the failure plan is
        re-armed, so repeated calls are independent and identical.
        """
        self.router.reset()
        self.autoscaler.reset()
        self.admission.reset()
        self._backend.reset()
        self._reset_run_state()

        pending = deque(
            sorted(enumerate(requests), key=lambda item: (item[1].arrival_time_s, item[0]))
        )
        failures = deque(self.config.failures.events)
        for _ in range(self.config.min_replicas):
            self._boot_replica(0.0, warm=False, reason="initial fleet")
        self._peak_provisioned = self._provisioned()
        # A step window is sound only while no control-plane path can
        # mutate a replica between its steps being computed and their
        # outcomes being processed: drain-migration checkpoints replicas
        # out mid-window, and parked work can be dispatched onto one at a
        # mid-window ready event.  Everything else (arrivals, failure
        # kills, periodic checkpoints) lies at or past the window's gate
        # or checkpoint instant, and drain flags do not change how an
        # engine steps — see repro.execbackend.base.
        may_open_windows = self._backend.runs_ahead and not self.config.migrate_on_drain
        interval = self.config.checkpoint_interval_s
        run_start = time.perf_counter()

        try:
            while (
                pending or self._parked or self._parked_checkpoints or self._has_live_work()
            ):
                # Candidate next events as (time, kind priority, tiebreak):
                # ready < failure < arrival < step at equal instants.  A
                # linear scan, not a heap: the fleets simulated here hold
                # at most six replicas, and a heap would need re-keying
                # whenever a dispatch fast-forwards an idle replica's
                # clock or a migration charges one.
                candidates: list[tuple[float, int, int, str, object]] = []
                starting = [r for r in self.fleet if r.state is ReplicaLifecycle.STARTING]
                if starting:
                    replica = min(starting, key=lambda r: (r.ready_at_s, r.index))
                    candidates.append(
                        (replica.ready_at_s, 0, replica.index, "ready", replica)
                    )
                if failures:
                    event = failures[0]
                    candidates.append((event.time_s, 1, event.slot, "fail", event))
                if pending:
                    order, request = pending[0]
                    candidates.append(
                        (request.arrival_time_s, 2, order, "arrival", request)
                    )
                working = [
                    r
                    for r in self.fleet
                    if r.state in (ReplicaLifecycle.ACTIVE, ReplicaLifecycle.DRAINING)
                    and r.has_work()
                ]
                if working:
                    if may_open_windows and not self._parked and not self._parked_checkpoints:
                        # Every working replica strictly before the next
                        # non-step event must step before that event can
                        # observe or touch it — open a window on each so
                        # backend workers compute those steps concurrently
                        # and ahead.  Outcomes are still *processed* one at
                        # a time, in exactly the serial order; a handle
                        # whose window is still open ignores the call.
                        gate_s = min((c[0] for c in candidates), default=None)
                        for candidate in working:
                            if gate_s is None or candidate.clock_s < gate_s:
                                candidate.handle.start_step(
                                    StepWindow(
                                        index=candidate.index,
                                        clock_s=candidate.clock_s,
                                        gate_s=gate_s,
                                        last_checkpoint_s=self._last_ckpt_s.get(
                                            candidate.index, 0.0
                                        ),
                                        checkpoint_interval_s=interval,
                                    )
                                )
                    replica = min(working, key=lambda r: (r.clock_s, r.index))
                    candidates.append((replica.clock_s, 3, replica.index, "step", replica))
                if not candidates:
                    raise RuntimeError(
                        "cluster simulation stalled with requests outstanding"
                    )
                time_s, _, _, kind, payload = min(
                    candidates, key=lambda c: (c[0], c[1], c[2])
                )

                self._run_event(kind, payload, time_s, pending, failures)
        finally:
            # Fold worker-side GEMM/k-means tallies into this process's
            # active perf counter (no-op for the serial backend).
            self._backend.drain_counters()
            self._run_wall_s = time.perf_counter() - run_start

        return self._build_report()

    def _run_event(
        self,
        kind: str,
        payload: object,
        time_s: float,
        pending: deque,
        failures: deque,
    ) -> None:
        """Process one scheduled event (the body of the run() loop)."""
        if kind == "ready":
            replica = payload
            replica.state = ReplicaLifecycle.ACTIVE
            replica.clock_s = max(replica.clock_s, time_s)
            self._log_scale(time_s, "ready", replica.index, "warm-up complete")
            self._drain_parked(time_s)
            self._control(time_s)
        elif kind == "fail":
            failures.popleft()
            self._fire_failure(payload, time_s)
            self._control(time_s)
        elif kind == "arrival":
            pending.popleft()
            self._handle_arrival(payload, time_s)
            self._control(time_s)
        else:  # step
            replica = payload
            retired, step_end_s = self._step_replica(replica)
            for record in retired:
                self._recent_slo.append(record.slo_met)
                self.autoscaler.observe(record.slo_met, slo_class=record.slo_class)
                self._checkpoints.pop(record.request_id, None)
            self._maybe_checkpoint(replica, step_end_s)
            if replica.state is ReplicaLifecycle.DRAINING and not replica.has_work():
                self._stop_replica(replica, step_end_s)
            self._control(step_end_s)

    def _step_replica(
        self, replica: ClusterReplica
    ) -> tuple[list[RequestMetrics], float]:
        """Run one engine step on ``replica`` and charge it clock time.

        Returns the metrics of the requests that retired during the step
        and the step's end instant on the replica clock.  The step may
        already have run in a backend worker's step window; this collects
        its outcome at exactly the serial processing point.
        """
        outcome = replica.handle.finish_step()
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
        for item in outcome.finished:
            record = self._metrics_of(item, step_end_s)
            retired.append(record)
            self._metrics.append(record)
            self.completed[item.request.request_id] = item
            self._duration_s = max(self._duration_s, step_end_s)
        return retired, step_end_s

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
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
            retries=self._retry_counts.get(request_id, 0),
            cached_prefix_tokens=item.result.cached_prefix_tokens,
            slo_class=item.request.slo_class,
            migrations=self._migration_counts.get(request_id, 0),
            recoveries=self._recovery_counts.get(request_id, 0),
            spec_rounds=item.result.spec_rounds,
            spec_drafted_tokens=item.result.spec_drafted_tokens,
            spec_accepted_tokens=item.result.spec_accepted_tokens,
            spec_rejected_tokens=item.result.spec_rejected_tokens,
        )

    def _build_report(self) -> TrafficReport:
        """Assemble the report of the run that just drained."""
        occupancy = [o for replica in self.fleet for o in replica.occupancy]
        report = TrafficReport(
            requests=self._metrics,
            slo=self.config.slo,
            num_replicas=self._peak_provisioned,
            router=self.router.describe(),
            clock=self.clock.describe(),
            duration_s=self._duration_s,
            engine_steps=sum(replica.steps for replica in self.fleet),
            mean_occupancy=(sum(occupancy) / len(occupancy)) if occupancy else 0.0,
            rejected=self._rejected,
            num_retries=sum(self._retry_counts.values()),
            lost_tokens=self._lost_tokens,
            num_migrations=sum(self._migration_counts.values()),
            num_recoveries=sum(self._recovery_counts.values()),
            num_preemptions=sum(
                replica.handle.view.num_preemptions_total for replica in self.fleet
            ),
            failures=self._failure_log,
            prefix_cache=self._prefix_cache_summary(),
        )
        # The degenerate cluster (a static fleet) has no control plane to report.
        if (
            self.autoscaler.name != "static"
            or self.admission.name != "always"
            or self.config.failures.events
        ):
            report.autoscaler = {
                **self.autoscaler.describe(),
                "min_replicas": self.config.min_replicas,
                "max_replicas": self.config.max_replicas,
            }
            report.admission = self.admission.describe()
            report.scaling = self._scaling_log
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
            "step_wall_s": sum(replica.step_wall_s for replica in self.fleet),
            "replicas": [
                {
                    "replica": replica.index,
                    "step_wall_s": replica.step_wall_s,
                    "idle_wall_s": max(0.0, self._run_wall_s - replica.step_wall_s),
                }
                for replica in self.fleet
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
        per_replica = [replica.handle.prefix_cache_stats() for replica in self.fleet]
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


def simulate_cluster(
    requests: Sequence[ServeRequest],
    config: ClusterConfig | None = None,
    router: Router | None = None,
    clock: StepClock | None = None,
    *,
    workers: int | None = None,
) -> TrafficReport:
    """Run one fleet simulation and return its report.

    The one simulation entry point: :func:`repro.traffic.simulate` and
    :func:`repro.api.simulate` forward here.  ``workers`` selects the
    multiprocess execution backend; the report is byte-identical to the
    serial default.
    """
    config = config or ClusterConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    with ClusterSimulator(config, router=router, clock=clock) as simulator:
        return simulator.run(requests)
