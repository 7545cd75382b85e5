"""Pluggable admission control: reject early instead of blowing the tail.

An overloaded serving system has two choices for the requests it cannot
serve on time: queue them anyway (every queued request then drags p99 and
goodput down with it) or turn them away at the door.  An
:class:`AdmissionPolicy` makes that call per arriving request from a
frozen :class:`~repro.cluster.fleet.FleetView`; rejections become
first-class :class:`~repro.traffic.report.RejectedRequest` records in the
:class:`~repro.traffic.report.TrafficReport`, so request conservation
(``submitted == completed + rejected``) is checkable from the report.

Policies register in :data:`ADMISSIONS` (a
:class:`~repro.registry.Registry`) and resolve through
``ADMISSIONS.resolve``; built-ins:

* ``always`` — admit everything (plain traffic-simulator behaviour);
* ``token_budget`` — admit only when some accepting replica has enough
  projected-KV-token headroom to hold the whole request; never rejects a
  request the fleet has room for (the admission invariant the
  property-style tests assert);
* ``queue_deadline`` — admit only when the least-loaded accepting
  replica's estimated queue delay leaves the request a chance to meet
  its TTFT deadline;
* ``slo_class`` — class-aware gate: ``interactive`` requests always
  admit, ``batch`` requests only when the fleet has KV-token headroom —
  load-shedding that protects the latency-sensitive class first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..registry import Registry
from .fleet import FleetView

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "TokenBudgetAdmission",
    "QueueDeadlineAdmission",
    "SLOClassAdmission",
    "ADMISSIONS",
]


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict for one arriving request.

    ``detail`` carries the numbers behind the decision (needed vs.
    available headroom, estimated delay vs. deadline) so rejections are
    auditable in the report and the invariant tests can re-check them.
    """

    admitted: bool
    reason: str = ""
    detail: Mapping[str, float] = field(default_factory=dict)


ADMIT = AdmissionDecision(admitted=True)


class AdmissionPolicy:
    """Base class of admission strategies (stateless unless noted)."""

    name = "abstract"

    def reset(self) -> None:
        """Clear per-run state (called at the start of every run)."""

    def consider(
        self, request_tokens: int, view: FleetView, slo_class: str = "interactive"
    ) -> AdmissionDecision:
        """Admit or reject a request of ``request_tokens`` projected KV tokens.

        ``slo_class`` is the request's service class (``"interactive"`` or
        ``"batch"``); class-agnostic policies ignore it.
        """
        raise NotImplementedError

    def describe(self) -> dict[str, object]:
        """Identifying configuration of this policy (for reports)."""
        return {"name": self.name}


ADMISSIONS = Registry("admission policy", AdmissionPolicy)


@ADMISSIONS.register("always")
class AlwaysAdmit(AdmissionPolicy):
    """Admit every request (the plain traffic-simulator behaviour)."""

    def consider(
        self, request_tokens: int, view: FleetView, slo_class: str = "interactive"
    ) -> AdmissionDecision:
        """Unconditional admit."""
        return ADMIT


@ADMISSIONS.register("token_budget")
class TokenBudgetAdmission(AdmissionPolicy):
    """Admit only requests the fleet has KV-token headroom for.

    A request of ``P + D`` projected tokens (prompt plus decode length)
    is admitted iff some accepting replica's uncommitted capacity covers
    it — the request can physically land somewhere without waiting for
    other requests to retire.  The contrapositive is the guarantee the
    invariant tests pin: whenever fleet headroom covers a request, this
    policy admits it.

    Parameters
    ----------
    slack_tokens:
        Extra headroom a replica must keep free beyond the request
        itself (0 admits up to exactly full capacity).
    """

    def __init__(self, slack_tokens: int = 0) -> None:
        if slack_tokens < 0:
            raise ValueError("slack_tokens must be non-negative")
        self.slack_tokens = int(slack_tokens)

    def consider(
        self, request_tokens: int, view: FleetView, slo_class: str = "interactive"
    ) -> AdmissionDecision:
        """Admit iff the best accepting replica's headroom covers the request."""
        needed = request_tokens + self.slack_tokens
        headroom = view.max_headroom_tokens
        if view.accepting and headroom >= needed:
            return ADMIT
        return AdmissionDecision(
            admitted=False,
            reason="kv_headroom",
            detail={
                "needed_tokens": float(needed),
                "max_headroom_tokens": float(headroom),
                "accepting_replicas": float(len(view.accepting)),
            },
        )

    def describe(self) -> dict[str, object]:
        """Name plus slack configuration."""
        return {"name": self.name, "slack_tokens": self.slack_tokens}


@ADMISSIONS.register("queue_deadline")
class QueueDeadlineAdmission(AdmissionPolicy):
    """Reject requests whose queue delay would already blow the deadline.

    The estimated delay at a replica is its committed work divided by an
    (explicit, configurable) effective service rate; a request is
    admitted iff the least-loaded accepting replica's estimate leaves it
    within ``deadline_s``.  This is deliberately an *estimate-based*
    policy — like real serving systems it can be wrong in both
    directions, and the scenario tests treat its rejections as a policy
    outcome, not ground truth.

    Parameters
    ----------
    deadline_s:
        Queue-delay budget, typically the TTFT SLO.
    service_tokens_per_s:
        Assumed per-replica throughput (projected KV tokens retired per
        simulated second) used to convert backlog into delay.
    """

    def __init__(
        self, deadline_s: float = 2.5, service_tokens_per_s: float = 2000.0
    ) -> None:
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if service_tokens_per_s <= 0:
            raise ValueError("service_tokens_per_s must be positive")
        self.deadline_s = float(deadline_s)
        self.service_tokens_per_s = float(service_tokens_per_s)

    def consider(
        self, request_tokens: int, view: FleetView, slo_class: str = "interactive"
    ) -> AdmissionDecision:
        """Admit iff the least-loaded accepting replica can start in time."""
        accepting = view.accepting
        if not accepting:
            return AdmissionDecision(
                admitted=False,
                reason="no_accepting_replica",
                detail={"accepting_replicas": 0.0},
            )
        least_committed = min(r.committed_tokens for r in accepting)
        estimated_delay_s = least_committed / self.service_tokens_per_s
        if estimated_delay_s <= self.deadline_s:
            return ADMIT
        return AdmissionDecision(
            admitted=False,
            reason="queue_deadline",
            detail={
                "estimated_delay_s": estimated_delay_s,
                "deadline_s": self.deadline_s,
            },
        )

    def describe(self) -> dict[str, object]:
        """Name plus deadline/service-rate configuration."""
        return {
            "name": self.name,
            "deadline_s": self.deadline_s,
            "service_tokens_per_s": self.service_tokens_per_s,
        }


@ADMISSIONS.register("slo_class")
class SLOClassAdmission(AdmissionPolicy):
    """Class-aware load shedding: protect interactive traffic first.

    ``interactive`` requests are always admitted (their latency is the
    product being sold; turning them away is the last resort, left to
    stricter gates).  ``batch`` requests are throughput filler and admit
    only when some accepting replica's uncommitted KV-token headroom
    covers them with ``batch_slack_tokens`` to spare — under pressure the
    batch class is shed at the door instead of competing with interactive
    prefills for queue position.

    Parameters
    ----------
    batch_slack_tokens:
        Extra headroom a replica must keep free beyond a batch request
        itself (0 admits batch work up to exactly full capacity).
    """

    def __init__(self, batch_slack_tokens: int = 0) -> None:
        if batch_slack_tokens < 0:
            raise ValueError("batch_slack_tokens must be non-negative")
        self.batch_slack_tokens = int(batch_slack_tokens)

    def consider(
        self, request_tokens: int, view: FleetView, slo_class: str = "interactive"
    ) -> AdmissionDecision:
        """Admit interactive unconditionally, batch only with headroom."""
        if slo_class != "batch":
            return ADMIT
        needed = request_tokens + self.batch_slack_tokens
        headroom = view.max_headroom_tokens
        if view.accepting and headroom >= needed:
            return ADMIT
        return AdmissionDecision(
            admitted=False,
            reason="batch_shed",
            detail={
                "needed_tokens": float(needed),
                "max_headroom_tokens": float(headroom),
                "accepting_replicas": float(len(view.accepting)),
            },
        )

    def describe(self) -> dict[str, object]:
        """Name plus batch-slack configuration."""
        return {"name": self.name, "batch_slack_tokens": self.batch_slack_tokens}
