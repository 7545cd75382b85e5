"""Fleet configurations and the one-call traffic simulation entry point.

:class:`FleetConfig` declares what every fleet shares (engine spec,
router, clock, SLO, workers); :class:`TrafficConfig` sizes a static fleet
of ``num_replicas`` identical replicas.  There is one simulator,
:class:`repro.cluster.ClusterSimulator`, and it runs a static fleet as the
degenerate cluster (fixed size, ``static`` autoscaler, ``always``
admission, no failures); its module documents the event order.
:func:`simulate` forwards to it.

Requests decode on the real NumPy engines — outputs are exactly what the
serving engine produces — while time is virtual: with the default
:class:`~repro.traffic.clock.PerfModelClock` the whole run is
machine-independent and two runs with equal seeds emit byte-identical
:class:`~repro.traffic.report.TrafficReport` JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..api import EngineSpec
from ..knobs import knob
from .clock import StepClock
from .report import SLOSpec, TrafficReport
from .router import Router
from .workload import TrafficRequest

__all__ = ["FleetConfig", "TrafficConfig", "simulate"]


@dataclass(frozen=True)
class FleetConfig:
    """What a static and an elastic fleet have in common, declared once.

    The base of :class:`TrafficConfig` and
    :class:`repro.cluster.ClusterConfig`; each adds only how its fleet
    is sized.  Not a runnable configuration on its own: the simulator
    reads the subclasses' ``num_replicas``.

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
        multiprocess spec defaults to ``min(num_replicas, available
        CPUs)``, counting the CPUs in the process's affinity mask.
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
        "--backend multiprocess; <= 0 derives min(replicas, available CPUs))",
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


def simulate(
    requests: Sequence[TrafficRequest],
    config: FleetConfig | None = None,
    router: Router | None = None,
    clock: StepClock | None = None,
    *,
    workers: int | None = None,
) -> TrafficReport:
    """Run one traffic simulation and return its :class:`TrafficReport`.

    The one-call entry point the :mod:`repro.api` layer re-exports:
    build a workload (:func:`repro.traffic.generate_traffic` or
    :func:`repro.traffic.load_trace`), describe the fleet in a
    :class:`TrafficConfig` (the default) or a
    :class:`~repro.cluster.ClusterConfig`, and simulate.  ``workers``
    selects the multiprocess execution backend with that many worker
    processes; the report is byte-identical to the serial default.

    Imported lazily because :mod:`repro.cluster` builds on this module's
    configs.
    """
    from ..cluster import simulate_cluster

    return simulate_cluster(
        requests, config or TrafficConfig(), router=router, clock=clock, workers=workers
    )
