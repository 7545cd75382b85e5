"""The static-fleet preset and the one-call traffic simulation entry point.

There is one fleet config, :class:`repro.cluster.ClusterConfig`, and one
simulator, :class:`repro.cluster.ClusterSimulator`; a static fleet is the
degenerate cluster (fixed size, ``static`` autoscaler, ``always``
admission, no failures).  :func:`TrafficConfig` names that preset and
:func:`simulate` forwards to :func:`repro.cluster.simulate_cluster`.
Both import lazily because :mod:`repro.cluster` builds on this package's
clock, router, report and workload modules.

Requests decode on the real NumPy engines — outputs are exactly what the
serving engine produces — while time is virtual: with the default
:class:`~repro.traffic.clock.PerfModelClock` the whole run is
machine-independent and two runs with equal seeds emit byte-identical
:class:`~repro.traffic.report.TrafficReport` JSON.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .clock import StepClock
from .report import TrafficReport
from .router import Router
from ..serving.request import ServeRequest

if TYPE_CHECKING:
    from ..cluster import ClusterConfig

__all__ = ["TrafficConfig", "simulate"]


def TrafficConfig(num_replicas: int = 1, **fleet: object) -> ClusterConfig:
    """A static fleet of ``num_replicas`` identical replicas behind the router.

    The preset ``ClusterConfig(min_replicas=num_replicas,
    max_replicas=num_replicas, **fleet)``: every other keyword is a
    :class:`~repro.cluster.ClusterConfig` field (``engine``, ``router``,
    ``clock``, ``slo``, ``workers``, ...).
    """
    from ..cluster import ClusterConfig

    return ClusterConfig(min_replicas=num_replicas, max_replicas=num_replicas, **fleet)


def simulate(
    requests: Sequence[ServeRequest],
    config: ClusterConfig | None = None,
    router: Router | None = None,
    clock: StepClock | None = None,
    *,
    workers: int | None = None,
) -> TrafficReport:
    """Run one fleet simulation: :func:`repro.cluster.simulate_cluster`."""
    from ..cluster import simulate_cluster

    return simulate_cluster(requests, config, router=router, clock=clock, workers=workers)
