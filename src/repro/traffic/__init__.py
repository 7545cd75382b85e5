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

Entry points: :func:`simulate` (also re-exported as
:func:`repro.api.simulate`; it runs the fleet on
:class:`repro.cluster.ClusterSimulator`), :func:`run_traffic_bench` behind the
``repro traffic-bench`` CLI command, and the small registries
(:func:`build_arrivals`, :func:`build_router`) that make arrival
processes and routing strategies pluggable the same way
:mod:`repro.policies` makes compression methods pluggable.
"""

from .arrivals import (
    ArrivalProcess,
    ConstantArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrival_names,
    build_arrivals,
    register_arrivals,
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
from .router import (
    JoinShortestQueueRouter,
    LeastKVBytesRouter,
    PrefixAffineRouter,
    ReplicaView,
    RoundRobinRouter,
    Router,
    SLOAwareRouter,
    build_router,
    register_router,
    router_names,
)
from .simulator import FleetConfig, TrafficConfig, simulate
from .trace import load_trace, save_trace
from .workload import RequestShape, TrafficRequest, generate_traffic

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "TraceArrivals",
    "register_arrivals",
    "build_arrivals",
    "arrival_names",
    "TrafficRequest",
    "RequestShape",
    "generate_traffic",
    "save_trace",
    "load_trace",
    "Router",
    "ReplicaView",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "LeastKVBytesRouter",
    "PrefixAffineRouter",
    "SLOAwareRouter",
    "register_router",
    "build_router",
    "router_names",
    "StepClock",
    "PerfModelClock",
    "WallClock",
    "build_clock",
    "SLOSpec",
    "RequestMetrics",
    "TrafficReport",
    "FleetConfig",
    "TrafficConfig",
    "simulate",
    "WorkloadSpec",
    "TrafficBenchConfig",
    "build_bench_requests",
    "run_traffic_bench",
    "format_traffic_report",
]
