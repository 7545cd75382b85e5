"""Pluggable autoscalers: deciding when the fleet grows or shrinks.

An :class:`Autoscaler` is consulted by the cluster simulator after every
event (arrival, step completion, failure, replica becoming ready) with a
frozen :class:`~repro.cluster.fleet.FleetView` and answers with a
:class:`ScaleDecision` — how many replicas to add and how many to drain.
The simulator clamps every decision to ``[min_replicas, max_replicas]``,
prices the warm-up of each added replica on the step clock, and only
removes a draining replica once it holds no work, so the two elasticity
invariants (fleet size within bounds, no scale-down with in-flight work)
hold regardless of what a policy returns.

Strategies register in :data:`AUTOSCALERS` (a
:class:`~repro.registry.Registry`): ``@AUTOSCALERS.register("name")``
makes one available to ``AUTOSCALERS.resolve``, the ``repro cluster-bench
--autoscaler`` flag and ``repro list`` at once.  Built-ins:

* ``static`` — never scales; the fleet stays at ``min_replicas`` (the
  baseline elastic runs are compared against);
* ``queue_depth`` — classic backlog watermarks: add a replica when the
  backlog per accepting replica exceeds ``high``, drain one when it falls
  below ``low``;
* ``slo_attainment`` — closes the loop on the quantity that matters:
  scale up while the sliding-window SLO attainment of completed requests
  sits below ``target`` and work is waiting, scale down when attainment
  holds and the fleet has gone quiet;
* ``interactive_slo`` — the class-aware variant: identical control law,
  but its window sees only ``interactive``-class completions, so batch
  work missing its (loose) deadlines never triggers a scale-up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..registry import Registry
from .fleet import FleetView

__all__ = [
    "ScaleDecision",
    "Autoscaler",
    "StaticAutoscaler",
    "QueueDepthAutoscaler",
    "SLOAttainmentAutoscaler",
    "InteractiveSLOAutoscaler",
    "AUTOSCALERS",
]


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler verdict: add and/or drain this many replicas."""

    add: int = 0
    drain: int = 0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.add < 0 or self.drain < 0:
            raise ValueError("add and drain must be non-negative")

    @property
    def is_noop(self) -> bool:
        """Whether the decision changes nothing."""
        return self.add == 0 and self.drain == 0


NO_CHANGE = ScaleDecision()


class Autoscaler:
    """Base class of autoscaling strategies (stateful per simulation run)."""

    name = "abstract"

    def reset(self) -> None:
        """Clear per-run state (called at the start of every run)."""

    def observe(self, slo_met: bool, slo_class: str = "interactive") -> None:
        """Feed one request completion (its SLO outcome) to the policy.

        ``slo_class`` is the completed request's service class; class-
        agnostic policies ignore it.
        """

    def decide(self, view: FleetView) -> ScaleDecision:
        """The scaling action to take given the current fleet view."""
        raise NotImplementedError

    def describe(self) -> dict[str, object]:
        """Identifying configuration of this autoscaler (for reports)."""
        return {"name": self.name}


AUTOSCALERS = Registry("autoscaler", Autoscaler)


@AUTOSCALERS.register("static")
class StaticAutoscaler(Autoscaler):
    """Fixed fleet: never adds, never drains.

    The simulator still replaces failed replicas to keep the fleet at
    ``min_replicas``, so a static fleet under failure injection heals to
    its floor — it just never grows beyond it.
    """

    def decide(self, view: FleetView) -> ScaleDecision:
        """Always a no-op."""
        return NO_CHANGE


@AUTOSCALERS.register("queue_depth")
class QueueDepthAutoscaler(Autoscaler):
    """Backlog-watermark scaling.

    Parameters
    ----------
    high:
        Add one replica when the backlog (parked plus queued requests)
        per accepting replica exceeds this.
    low:
        Drain one replica when backlog per accepting replica falls below
        this and at least one accepting replica is idle.
    cooldown_s:
        Minimum simulated seconds between two scaling actions, so one
        burst does not trigger a boot storm while the first replacement
        is still warming up.
    """

    def __init__(self, high: float = 2.0, low: float = 0.25, cooldown_s: float = 5.0) -> None:
        if high <= low:
            raise ValueError("high watermark must exceed low watermark")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.high = float(high)
        self.low = float(low)
        self.cooldown_s = float(cooldown_s)
        self._last_action_s = -float("inf")

    def reset(self) -> None:
        """Forget the cooldown anchor."""
        self._last_action_s = -float("inf")

    def decide(self, view: FleetView) -> ScaleDecision:
        """Compare backlog per accepting replica against the watermarks."""
        if view.now_s - self._last_action_s < self.cooldown_s:
            return NO_CHANGE
        accepting = view.accepting
        per_replica = view.backlog / max(len(accepting), 1)
        if per_replica > self.high and view.provisioned < view.max_replicas:
            self._last_action_s = view.now_s
            return ScaleDecision(
                add=1, reason=f"backlog/replica {per_replica:.2f} > {self.high:g}"
            )
        idle = any(r.in_system == 0 for r in accepting)
        if (
            per_replica < self.low
            and idle
            and view.provisioned > view.min_replicas
        ):
            self._last_action_s = view.now_s
            return ScaleDecision(
                drain=1, reason=f"backlog/replica {per_replica:.2f} < {self.low:g}"
            )
        return NO_CHANGE

    def describe(self) -> dict[str, object]:
        """Name plus watermark configuration."""
        return {
            "name": self.name,
            "high": self.high,
            "low": self.low,
            "cooldown_s": self.cooldown_s,
        }


@AUTOSCALERS.register("slo_attainment")
class SLOAttainmentAutoscaler(Autoscaler):
    """Scale on the sliding-window SLO attainment of completed requests.

    Parameters
    ----------
    target:
        Attainment the fleet should hold; below it (with work waiting)
        the fleet grows.
    window:
        Number of most recent completions the attainment is computed
        over.
    cooldown_s:
        Minimum simulated seconds between two scaling actions.

    Scaling up needs a pressure signal too: a missed SLO in the window is
    sunk cost, so capacity is only added while requests would actually
    benefit — something is queued or parked, or more requests are in the
    system than there are accepting replicas (they are sharing batches,
    which is what stretched the tail).  Scaling down requires the window
    to be healthy *and* the fleet to be quiet (no backlog, an idle
    replica), which keeps the policy from oscillating at moderate load.
    """

    def __init__(
        self, target: float = 0.9, window: int = 8, cooldown_s: float = 5.0
    ) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError("target must lie in (0, 1]")
        if window <= 0:
            raise ValueError("window must be positive")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.target = float(target)
        self.window = int(window)
        self.cooldown_s = float(cooldown_s)
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self._last_action_s = -float("inf")

    def reset(self) -> None:
        """Clear the completion window and the cooldown anchor."""
        self._outcomes.clear()
        self._last_action_s = -float("inf")

    def observe(self, slo_met: bool, slo_class: str = "interactive") -> None:
        """Record one completion's SLO outcome into the sliding window."""
        self._outcomes.append(slo_met)

    def _attainment(self) -> float | None:
        if not self._outcomes:
            return None
        return sum(self._outcomes) / len(self._outcomes)

    def decide(self, view: FleetView) -> ScaleDecision:
        """Grow when the window misses target with backlog; shrink when quiet."""
        if view.now_s - self._last_action_s < self.cooldown_s:
            return NO_CHANGE
        attainment = self._attainment()
        backlog = view.backlog
        in_system = sum(r.in_system for r in view.replicas)
        pressure = backlog > 0 or in_system > len(view.accepting)
        if (
            attainment is not None
            and attainment < self.target
            and pressure
            and view.provisioned < view.max_replicas
        ):
            self._last_action_s = view.now_s
            return ScaleDecision(
                add=1,
                reason=f"slo attainment {attainment:.2f} < {self.target:g}",
            )
        idle = any(r.in_system == 0 for r in view.accepting)
        if (
            (attainment is None or attainment >= self.target)
            and backlog == 0
            and idle
            and view.provisioned > view.min_replicas
        ):
            self._last_action_s = view.now_s
            shown = 1.0 if attainment is None else attainment
            return ScaleDecision(
                drain=1, reason=f"slo attainment {shown:.2f} and fleet idle"
            )
        return NO_CHANGE

    def describe(self) -> dict[str, object]:
        """Name plus target/window configuration."""
        return {
            "name": self.name,
            "target": self.target,
            "window": self.window,
            "cooldown_s": self.cooldown_s,
        }


@AUTOSCALERS.register("interactive_slo")
class InteractiveSLOAutoscaler(SLOAttainmentAutoscaler):
    """SLO-attainment scaling driven by interactive completions only.

    Batch-class requests carry loose (or no meaningful) deadlines; letting
    their outcomes into the attainment window either masks interactive
    pain (batch work sailing through off-hours) or triggers phantom
    scale-ups (batch work missing interactive-grade deadlines by design).
    This variant keeps the same control law as ``slo_attainment`` but its
    window records ``interactive`` completions only.
    """

    def observe(self, slo_met: bool, slo_class: str = "interactive") -> None:
        """Record only interactive completions into the sliding window."""
        if slo_class == "interactive":
            self._outcomes.append(slo_met)
