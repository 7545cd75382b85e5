"""Trace-driven traffic simulation, multi-replica routing and SLO metrics.

This subsystem turns the batched serving engine into a measurable serving
*system*: instead of draining a closed-loop batch, requests arrive
open-loop on a clock, are routed across one or more
:class:`~repro.serving.BatchedEngine` replicas, and every engine step is
charged simulation time — by default from the analytical performance
model at the paper's true scale, so latency-under-load experiments are
machine-independent and bit-reproducible.

The pieces compose left to right::

    arrivals  ->  workload/trace  ->  router  ->  replicas  ->  report
    (Poisson,     (shape mixes,       (round     (BatchedEngine (TTFT/TPOT
     on/off,       JSONL replay)       robin,     + StepTrace    p50/p95/p99,
     constant,                         jsq,       + virtual      goodput under
     trace)                            least_kv,  clock)         SLO deadlines)
                                       prefix_affine)

A request is one :class:`~repro.serving.ServeRequest` from generation
(:func:`generate_traffic`) or replay (:func:`load_trace`) through routing
to the replica engine that serves it; the fleet re-dispatches the same
record after a failure or a drain.

Entry points: :func:`simulate` (also re-exported as
:func:`repro.api.simulate`; it runs the fleet on
:class:`repro.cluster.ClusterSimulator`), :func:`TrafficConfig` (the
static-fleet preset of :class:`repro.cluster.ClusterConfig`, the one
fleet config), :func:`run_traffic_bench` behind both the ``repro
traffic-bench`` and ``cluster-bench`` CLI commands, and the registries
:data:`ARRIVALS` and :data:`ROUTERS` (:class:`repro.registry.Registry`)
that make arrival processes and routing strategies pluggable the same way
:mod:`repro.policies` makes compression methods pluggable;
:func:`build_arrivals` is ``ARRIVALS.build``.
"""

from .arrivals import (
    ARRIVALS,
    ArrivalProcess,
    ConstantArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from .bench import (
    TrafficBenchConfig,
    WorkloadSpec,
    build_bench_requests,
    format_traffic_report,
    run_traffic_bench,
)
from .clock import PerfModelClock, StepClock, WallClock, build_clock
from .report import RequestMetrics, SLOSpec, TrafficReport
from .router import ROUTERS, JoinShortestQueueRouter, PrefixAffineRouter, Router
from .simulator import TrafficConfig, simulate
from .trace import load_trace, save_trace
from .workload import RequestShape, generate_traffic

# The wall-clock benchmark's workloads (bench/workloads.py) import this name.
build_arrivals = ARRIVALS.build

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "TraceArrivals",
    "ARRIVALS",
    "build_arrivals",
    "RequestShape",
    "generate_traffic",
    "save_trace",
    "load_trace",
    "Router",
    "JoinShortestQueueRouter",
    "PrefixAffineRouter",
    "ROUTERS",
    "StepClock",
    "PerfModelClock",
    "WallClock",
    "build_clock",
    "SLOSpec",
    "RequestMetrics",
    "TrafficReport",
    "TrafficConfig",
    "simulate",
    "WorkloadSpec",
    "TrafficBenchConfig",
    "build_bench_requests",
    "run_traffic_bench",
    "format_traffic_report",
]
