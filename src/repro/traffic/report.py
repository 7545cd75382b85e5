"""SLO metrics of one traffic-simulation run.

Per request the simulator records the four latency quantities serving
systems are judged on — queue wait, TTFT (time to first token), TPOT
(time per output token after the first) and end-to-end latency — all
measured against the request's arrival instant on the simulation clock.
:class:`TrafficReport` aggregates them into p50/p95/p99 summaries and
deadline *goodput*: the token throughput contributed by requests that met
their TTFT/TPOT deadlines (:class:`SLOSpec`), which is the quantity that
separates a system that is fast on average from one that is fast at the
tail.

Reports are plain data: :meth:`TrafficReport.to_dict` /
:meth:`~TrafficReport.to_json` emit a deterministic JSON document (no
wall-clock fields when simulated on the virtual perfmodel clock), so two
runs with equal seeds produce byte-identical reports — the
reproducibility contract the tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..knobs import knob
from ..specdec.verify import speculation_summary

__all__ = [
    "SLOSpec",
    "RequestMetrics",
    "RejectedRequest",
    "TrafficReport",
    "percentile",
]

PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: list[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (NaN for no samples).

    An empty sample has no percentile: returning 0.0 here (the historical
    behaviour) made an all-rejected class look like it had *perfect*
    latency.  NaN propagates honestly through in-memory aggregates and
    serialises as ``null`` in report JSON (:meth:`TrafficReport.to_dict`
    sanitises non-finite floats), so dashboards render a gap instead of a
    zero.
    """
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _jsonable(value: object) -> object:
    """Deep-copy a report payload with non-finite floats replaced by None.

    ``json.dumps`` would emit the non-standard literals ``NaN`` /
    ``Infinity`` for them, breaking the byte-stable-JSON contract (and
    strict parsers); ``null`` is the faithful JSON spelling of "no
    sample".
    """
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class SLOSpec:
    """Latency deadlines a request must meet to count toward goodput.

    ``None`` disables a deadline.  The defaults (2.5 s TTFT, 150 ms TPOT)
    are interactive targets for long-context traffic at the perfmodel's
    paper scale, where the exact prefill of a ~4k-token prompt alone
    costs about a second — an unloaded request meets them comfortably, a
    queued or compression-free one does not.
    """

    ttft_s: float | None = knob(
        2.5, "TTFT deadline in seconds (<= 0 disables)", flag="--slo-ttft", none_if="<=0"
    )
    tpot_s: float | None = knob(
        0.15, "TPOT deadline in seconds (<= 0 disables)", flag="--slo-tpot", none_if="<=0"
    )

    def __post_init__(self) -> None:
        if self.ttft_s is not None and self.ttft_s <= 0:
            raise ValueError("ttft_s must be positive when set")
        if self.tpot_s is not None and self.tpot_s <= 0:
            raise ValueError("tpot_s must be positive when set")

    def is_met(self, ttft_s: float, tpot_s: float) -> bool:
        """Whether a request with these latencies meets the deadlines."""
        if self.ttft_s is not None and ttft_s > self.ttft_s:
            return False
        if self.tpot_s is not None and tpot_s > self.tpot_s:
            return False
        return True

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-ready)."""
        return {"ttft_s": self.ttft_s, "tpot_s": self.tpot_s}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SLOSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            ttft_s=payload.get("ttft_s"),  # type: ignore[arg-type]
            tpot_s=payload.get("tpot_s"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class RequestMetrics:
    """Latency record of one served request on the simulation clock.

    Attributes
    ----------
    request_id / replica / policy:
        Identity: which request, served where, under which compression
        policy.
    arrival_time_s:
        Arrival instant.
    queue_wait_s:
        Arrival to admission (start of the engine step that prefilled the
        request).
    ttft_s:
        Arrival to first token (end of the prefilling step).
    tpot_s:
        Mean seconds per output token after the first (0 for one-token
        requests).
    e2e_s:
        Arrival to retirement.
    prompt_tokens / output_tokens:
        Sizes of the request.
    slo_met:
        Whether the run's :class:`SLOSpec` deadlines were met.
    retries:
        How many times the request was re-dispatched after losing its
        replica to a failure (0 for a run without failure injection).
        All latencies of a retried request are measured against its
        *original* arrival instant, so the failure cost shows up in TTFT
        and end-to-end latency rather than being hidden.
    cached_prefix_tokens:
        Prompt tokens attached from the replica's cross-request prefix
        cache instead of being prefilled (0 on a miss or with the cache
        disabled) — what splits the report's with-cache vs. without-cache
        TTFT aggregates.
    slo_class:
        Service class of the request (``"interactive"`` or ``"batch"``),
        splitting the report's per-class latency aggregates.
    migrations:
        How many times the request's live state was checkpoint-migrated
        to another replica (drain migration; 0 without
        ``migrate_on_drain``).  A migrated request keeps its decoded
        tokens, so — unlike a retry — its latencies include only the
        transfer cost, not a re-prefill.
    recoveries:
        How many times the request resumed from a periodic checkpoint
        after its replica failed (0 without ``checkpoint_interval_s``).
        Only the tokens decoded after the last checkpoint are lost.
    spec_rounds / spec_drafted_tokens / spec_accepted_tokens /
    spec_rejected_tokens:
        Speculative-decoding counters of the request (all 0 when the run
        decoded without speculation).  ``drafted == accepted + rejected``
        holds for every request.
    """

    request_id: str
    replica: int
    policy: str
    arrival_time_s: float
    queue_wait_s: float
    ttft_s: float
    tpot_s: float
    e2e_s: float
    prompt_tokens: int
    output_tokens: int
    slo_met: bool
    retries: int = 0
    cached_prefix_tokens: int = 0
    slo_class: str = "interactive"
    migrations: int = 0
    recoveries: int = 0
    spec_rounds: int = 0
    spec_drafted_tokens: int = 0
    spec_accepted_tokens: int = 0
    spec_rejected_tokens: int = 0

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-ready), keys in declaration order."""
        return {
            "request_id": self.request_id,
            "replica": self.replica,
            "policy": self.policy,
            "arrival_time_s": self.arrival_time_s,
            "queue_wait_s": self.queue_wait_s,
            "ttft_s": self.ttft_s,
            "tpot_s": self.tpot_s,
            "e2e_s": self.e2e_s,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "slo_met": self.slo_met,
            "retries": self.retries,
            "cached_prefix_tokens": self.cached_prefix_tokens,
            "slo_class": self.slo_class,
            "migrations": self.migrations,
            "recoveries": self.recoveries,
            "spec_rounds": self.spec_rounds,
            "spec_drafted_tokens": self.spec_drafted_tokens,
            "spec_accepted_tokens": self.spec_accepted_tokens,
            "spec_rejected_tokens": self.spec_rejected_tokens,
        }


@dataclass(frozen=True)
class RejectedRequest:
    """One request turned away by admission control (or retry exhaustion).

    Rejections are first-class outcomes, not silent drops: every rejected
    request appears in the report with the instant and reason, so request
    conservation (``submitted == completed + rejected`` once a run drains)
    is checkable from the report alone.

    Attributes
    ----------
    request_id / arrival_time_s:
        Identity and arrival instant of the rejected request.
    prompt_tokens / max_new_tokens:
        Size the admission decision was made against.
    reason:
        Machine-readable reason (``"kv_headroom"``, ``"queue_deadline"``,
        ``"retries_exhausted"``, ...).
    policy:
        Name of the request's compression policy (empty string for the
        engine default).
    detail:
        Numbers behind the decision (e.g. needed vs. available headroom
        tokens), for the admission invariant tests.
    """

    request_id: str
    arrival_time_s: float
    prompt_tokens: int
    max_new_tokens: int
    reason: str
    policy: str = ""
    detail: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-ready), keys in declaration order."""
        return {
            "request_id": self.request_id,
            "arrival_time_s": self.arrival_time_s,
            "prompt_tokens": self.prompt_tokens,
            "max_new_tokens": self.max_new_tokens,
            "reason": self.reason,
            "policy": self.policy,
            "detail": dict(self.detail),
        }


@dataclass
class TrafficReport:
    """Aggregate outcome of one traffic-simulation run.

    Attributes
    ----------
    requests:
        Per-request latency records in retirement order.
    slo:
        The deadlines goodput was evaluated under.
    num_replicas / router / clock:
        Run configuration (router and clock as ``describe()`` dicts).
        For an elastic cluster run ``num_replicas`` is the *peak*
        provisioned fleet size; the ``scaling`` timeline has the detail.
    duration_s:
        Last retirement instant on the simulation clock (arrivals start
        near 0, so this is the run's makespan).
    engine_steps:
        Engine steps summed over replicas.
    mean_occupancy:
        Mean decode-batch size over all replica steps.
    rejected:
        Requests turned away by admission control (empty for plain
        traffic runs, which admit everything).
    num_retries:
        Total failure-triggered re-dispatches across all requests.
    lost_tokens:
        Decoded tokens thrown away by replica failures (wasted work).
        With periodic checkpointing only the tokens decoded *after* the
        last checkpoint count — the lost-work accounting the recovery
        tests pin down.
    num_migrations:
        Total drain-triggered live migrations across all requests
        (checkpointed on the draining replica, restored elsewhere with
        all decoded work preserved).
    num_recoveries:
        Total checkpoint restores after failures (victims that resumed
        from a periodic checkpoint instead of re-prefilling from
        scratch).
    num_preemptions:
        Total checkpoint preemptions across all replicas (batch-class
        requests parked to unblock an interactive queue head).
    autoscaler / admission:
        ``describe()`` dicts of the cluster control plane (empty for
        plain traffic runs).
    failures:
        One record per fired failure event: instant, victim replica and
        the in-flight request ids that were lost and re-dispatched.
    scaling:
        Timeline of fleet changes: one record per boot / ready / drain /
        remove / failure transition with the provisioned count after it.
    prefix_cache:
        Aggregate prefix-cache accounting summed over replicas (hits,
        misses, hit rate, hit/evicted tokens) plus the TTFT split between
        requests that attached a cached prefix and those that did not;
        empty for runs with the cache disabled.
    wall:
        Host wall-time breakdown of the run (``run_wall_s``, per-replica
        ``step_wall_s``/``idle_wall_s``, and the execution backend's
        ``describe()``).  Machine-dependent observability only —
        deliberately **excluded** from :meth:`to_dict`/:meth:`to_json`,
        which stay byte-reproducible across backends and hosts.
    """

    requests: list[RequestMetrics] = field(default_factory=list)
    slo: SLOSpec = field(default_factory=SLOSpec)
    num_replicas: int = 1
    router: dict[str, object] = field(default_factory=dict)
    clock: dict[str, object] = field(default_factory=dict)
    duration_s: float = 0.0
    engine_steps: int = 0
    mean_occupancy: float = 0.0
    rejected: list[RejectedRequest] = field(default_factory=list)
    num_retries: int = 0
    lost_tokens: int = 0
    num_migrations: int = 0
    num_recoveries: int = 0
    num_preemptions: int = 0
    autoscaler: dict[str, object] = field(default_factory=dict)
    admission: dict[str, object] = field(default_factory=dict)
    failures: list[dict[str, object]] = field(default_factory=list)
    scaling: list[dict[str, object]] = field(default_factory=list)
    prefix_cache: dict[str, object] = field(default_factory=dict)
    wall: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        """Number of requests served."""
        return len(self.requests)

    @property
    def num_rejected(self) -> int:
        """Number of requests turned away by admission control."""
        return len(self.rejected)

    @property
    def num_submitted(self) -> int:
        """All requests that entered the system (served plus rejected).

        Once a run drains, request conservation holds:
        ``num_submitted == num_requests + num_rejected`` with no request
        left in retry limbo — the invariant the scenario-matrix tests
        assert cell by cell.
        """
        return len(self.requests) + len(self.rejected)

    @property
    def total_output_tokens(self) -> int:
        """Generated tokens summed over all requests."""
        return sum(m.output_tokens for m in self.requests)

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated-token throughput over the run's makespan."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_output_tokens / self.duration_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met the SLO deadlines."""
        if not self.requests:
            return 0.0
        return sum(1 for m in self.requests if m.slo_met) / len(self.requests)

    @property
    def goodput_tokens_per_s(self) -> float:
        """Token throughput contributed by SLO-conforming requests only."""
        if self.duration_s <= 0:
            return 0.0
        good = sum(m.output_tokens for m in self.requests if m.slo_met)
        return good / self.duration_s

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """p50/p95/p99 of TTFT, TPOT, queue wait and end-to-end latency.

        Each series also carries its ``samples`` count so a consumer can
        tell "no data" (percentiles are NaN, zero samples) from a
        genuinely zero latency.
        """
        series = {
            "ttft_s": [m.ttft_s for m in self.requests],
            "tpot_s": [m.tpot_s for m in self.requests],
            "queue_wait_s": [m.queue_wait_s for m in self.requests],
            "e2e_s": [m.e2e_s for m in self.requests],
        }
        summary: dict[str, dict[str, float]] = {}
        for name, values in series.items():
            entry = {f"p{q:g}": percentile(values, q) for q in PERCENTILES}
            entry["samples"] = float(len(values))
            summary[name] = entry
        return summary

    def class_summary(self) -> dict[str, dict[str, object]]:
        """Per-SLO-class latency and goodput split.

        For each service class present in the run: request/token counts,
        p50/p95/p99 TTFT and end-to-end latency, SLO attainment, and
        goodput — the quantities the preemption benchmark compares
        (interactive tail latency at equal batch-class goodput).
        """
        classes = sorted({m.slo_class for m in self.requests})
        summary: dict[str, dict[str, object]] = {}
        for cls in classes:
            members = [m for m in self.requests if m.slo_class == cls]
            ttfts = [m.ttft_s for m in members]
            e2es = [m.e2e_s for m in members]
            good = sum(m.output_tokens for m in members if m.slo_met)
            summary[cls] = {
                # The class's sample count: percentile consumers read it to
                # distinguish an all-rejected class (NaN percentiles) from
                # a served-but-fast one.
                "num_requests": len(members),
                "output_tokens": sum(m.output_tokens for m in members),
                "ttft_s": {f"p{q:g}": percentile(ttfts, q) for q in PERCENTILES},
                "e2e_s": {f"p{q:g}": percentile(e2es, q) for q in PERCENTILES},
                "slo_attainment": sum(1 for m in members if m.slo_met) / len(members),
                "goodput_tokens_per_s": (
                    good / self.duration_s if self.duration_s > 0 else 0.0
                ),
            }
        return summary

    def speculation(self) -> dict[str, float]:
        """Speculative-decoding accounting summed over every request.

        See :func:`repro.specdec.verify.speculation_summary` for the keys.
        """
        return speculation_summary(self.requests)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Deterministic plain-dict form of the whole report.

        Contains only simulation-clock quantities — never wall time — so
        two runs with equal configuration and seeds serialise to identical
        documents (the bit-reproducibility contract).  Non-finite floats
        (the NaN percentiles of empty sample sets) are emitted as
        ``None`` so the JSON form stays standard.
        """
        return _jsonable({
            "num_replicas": self.num_replicas,
            "router": self.router,
            "clock": self.clock,
            "slo": self.slo.to_dict(),
            "num_requests": self.num_requests,
            "duration_s": self.duration_s,
            "engine_steps": self.engine_steps,
            "mean_occupancy": self.mean_occupancy,
            "total_output_tokens": self.total_output_tokens,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "slo_attainment": self.slo_attainment,
            "latency": self.latency_summary(),
            "classes": self.class_summary(),
            "speculation": self.speculation(),
            "requests": [m.to_dict() for m in self.requests],
            "num_rejected": self.num_rejected,
            "rejected": [r.to_dict() for r in self.rejected],
            "num_retries": self.num_retries,
            "lost_tokens": self.lost_tokens,
            "num_migrations": self.num_migrations,
            "num_recoveries": self.num_recoveries,
            "num_preemptions": self.num_preemptions,
            "autoscaler": self.autoscaler,
            "admission": self.admission,
            "failures": self.failures,
            "scaling": self.scaling,
            "prefix_cache": self.prefix_cache,
        })

    def to_json(self) -> str:
        """Canonical JSON form of :meth:`to_dict` (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)
