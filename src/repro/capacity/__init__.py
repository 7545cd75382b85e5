"""Tiered-memory capacity harness: spill paging and sweep-to-failure scenarios.

The paper's system keeps the *full* KV cache host-resident and pulls only
selected clusters to the GPU — which makes host memory, not GPU memory,
the capacity ceiling.  This package extends the memory hierarchy one tier
further down and asks the quantitative question that follows: under
explicit GPU→host→SSD budgets, which (context length × concurrency ×
offered rate) points can each policy actually serve, and what do the
survivors pay for it?

Two halves:

* **Spill paging** (:class:`HostSpillManager`): demand-pages the
  host-resident KV cache of ClusterKV-style policies to a bounded SSD
  tier in fixed-size token pages (LRU victims, real byte movement, bit
  -identical recall), charging every transfer on the shared ledger so
  the perfmodel clock prices NVMe traffic into step latency.
* **Scenarios** (:mod:`.scenarios`): sweep strategies registered in
  :data:`SCENARIOS` (:class:`repro.registry.Registry`) —
  ``oom_finder``, ``latency_curve``, ``capacity_frontier`` — that drive
  the traffic simulator into the wall and emit byte-reproducible
  :class:`CapacityReport` artifacts mapping the feasible region.

The tier budgets themselves (:class:`~repro.memory.TierBudgets`) and the
typed exhaustion error (:class:`~repro.memory.CapacityExceeded`) live in
:mod:`repro.memory`; they are re-exported here because capacity users
need them to configure sweeps and catch failures.
"""

from ..memory import CapacityExceeded, TierBudgets
from .bench import (
    CapacityBenchConfig,
    deterministic_capacity,
    format_capacity_report,
    run_capacity_bench,
)
from .report import CapacityPoint, CapacityReport
from .scenarios import (
    CapacityFrontierScenario,
    CapacityScenario,
    CapacityScenarioConfig,
    LatencyCurveScenario,
    OOMFinderScenario,
    SCENARIOS,
    probe_point,
    run_scenario,
)
from .spill import HostSpillManager, StorePager

__all__ = [
    "CapacityExceeded",
    "TierBudgets",
    "HostSpillManager",
    "StorePager",
    "CapacityPoint",
    "CapacityReport",
    "CapacityScenario",
    "CapacityScenarioConfig",
    "CapacityFrontierScenario",
    "OOMFinderScenario",
    "LatencyCurveScenario",
    "probe_point",
    "SCENARIOS",
    "run_scenario",
    "CapacityBenchConfig",
    "run_capacity_bench",
    "format_capacity_report",
    "deterministic_capacity",
]
