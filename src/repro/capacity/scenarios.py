"""Sweep-to-failure capacity scenarios over the tiered memory hierarchy.

Each scenario drives the virtual-clock traffic simulator against the
GPU→host→SSD tier budgets until something breaks, and maps *where*:

* ``oom_finder`` — bisects the longest per-request context each policy
  sustains at every concurrency level before a tier raises
  :class:`~repro.memory.CapacityExceeded`;
* ``latency_curve`` — sweeps the offered request rate upward until SLO
  attainment collapses below a floor (or admission fails outright),
  charging every host→SSD spill into the latencies along the way;
* ``capacity_frontier`` — probes the full (context × concurrency) grid
  per policy and reports the feasible region.

Probes are seeded arithmetic on the virtual clock end to end: prompt
contents derive from ``(seed, context, concurrency)``, engines run the
real NumPy substrate, and time comes from the perfmodel clock — so a
scenario's :class:`~repro.capacity.report.CapacityReport` is
byte-identical across machines and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..api import EngineSpec
from ..cluster import ClusterConfig, ClusterSimulator
from ..knobs import knob
from ..memory import CapacityExceeded, TierBudgets
from ..model import get_model_config
from ..policies import PolicySpec
from ..registry import Registry
from ..serving.bench import POLICY_FLAG, resolve_serving_policies, serving_engine_spec
from ..serving.request import ServeRequest
from ..traffic.bench import TrafficBenchConfig, WorkloadSpec, build_bench_requests
from ..traffic.report import SLOSpec
from .report import CapacityPoint, CapacityReport

__all__ = [
    "CapacityScenarioConfig",
    "CapacityScenario",
    "CapacityFrontierScenario",
    "OOMFinderScenario",
    "LatencyCurveScenario",
    "probe_point",
    "SCENARIOS",
    "run_scenario",
]

DEFAULT_TIERS = "gpu=320KiB,host=448KiB,ssd=4MiB"

# Fleet/engine fields every probe sets itself, next to the swept policy
# (traffic_config below): one round-robin replica batching exactly the swept
# concurrency, on the virtual clock the byte-identical reports rest on.  They
# get no CLI flag, and neither does the control plane a one-replica probe
# has no use for.
PROBE_SET_FIELDS = (
    "max_batch_size", "max_prefills_per_step", "router", "clock",
    "min_replicas", "max_replicas", "autoscaler", "admission", "max_retries",
    "migrate_on_drain", "checkpoint_interval_s",
)


def _default_fleet() -> ClusterConfig:
    # The SLO is looser than the interactive-serving default: capacity
    # probes run long prompts under spill pricing, where a 2.5 s TTFT bound
    # is unattainable at any rate and the curve would collapse at its first
    # point for every policy.
    return ClusterConfig(
        engine=serving_engine_spec(max_new_tokens=16, tiers=DEFAULT_TIERS),
        slo=SLOSpec(ttft_s=8.0, tpot_s=0.5),
    )


@dataclass(frozen=True)
class CapacityScenarioConfig:
    """Shared knobs of all capacity scenarios: a fleet plus the sweep grid.

    ``fleet`` holds the probed replica (:class:`~repro.api.EngineSpec`:
    model, tier budgets, KV budget, decode length, backend, …) and the
    perfmodel-clock parameters / SLO / workers settings (every probe runs
    one round-robin replica on the perfmodel clock).  Its default is the
    pinned reference setup of the capacity benchmark: the ``serve-sim`` model
    under tight tier budgets (``gpu=320KiB,host=448KiB,ssd=4MiB``) where
    the host-resident ClusterKV policy survives points the dense ``full``
    baseline cannot admit.  ``policies`` entries resolve through the same
    serving-tuned configuration as ``traffic-bench``
    (:func:`repro.serving.bench.resolve_serving_policies`).

    Context sweeps (``oom_finder``, ``capacity_frontier``) probe closed
    bursts: ``concurrency`` requests of exactly ``context_tokens``
    prompt tokens each, all arriving at t=0, over the grid
    ``context_min..context_max`` in ``context_step`` increments ×
    ``concurrencies``.  The rate sweep (``latency_curve``) probes
    open-loop Poisson traffic of ``num_requests`` requests with prompt
    lengths uniform in ``[context_min, context_max]`` at each offered
    rate in ``rates``, stopping once SLO attainment drops below
    ``slo_floor``.
    """

    fleet: ClusterConfig = field(default_factory=_default_fleet)
    policies: tuple[PolicySpec | str, ...] = knob(
        ("clusterkv", "full"),
        "policy spec, repeatable; each is swept independently",
        **POLICY_FLAG,
    )
    concurrencies: tuple[int, ...] = knob(
        (1, 2, 3), "concurrency levels to probe", "--concurrency"
    )
    context_min: int = 64
    context_max: int = 192
    context_step: int = 64
    rates: tuple[float, ...] = knob(
        (0.25, 0.5, 1.0, 2.0), "offered request rates swept by latency_curve"
    )
    num_requests: int = knob(12, "requests per latency_curve probe", "--requests")
    slo_floor: float = knob(
        0.5, "latency_curve stops once SLO attainment drops below this"
    )
    seed: int = knob(0, "workload seed")

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.context_min <= 0 or self.context_step <= 0:
            raise ValueError("context_min and context_step must be positive")
        if self.context_max < self.context_min:
            raise ValueError("context_max must be >= context_min")
        if not self.concurrencies or min(self.concurrencies) <= 0:
            raise ValueError("concurrencies must be positive")
        if not 0.0 <= self.slo_floor <= 1.0:
            raise ValueError("slo_floor must lie in [0, 1]")
        resolved = resolve_serving_policies(self.policies, self.engine.num_sink_tokens)
        object.__setattr__(self, "policies", resolved)

    @property
    def engine(self) -> EngineSpec:
        """The probed replica's engine description (``fleet.engine``)."""
        return self.fleet.engine

    @property
    def policy_names(self) -> tuple[str, ...]:
        """Names of the resolved policies, in sweep order."""
        return tuple(spec.name for spec in self.policies)  # type: ignore[union-attr]

    def contexts(self) -> list[int]:
        """The swept context lengths: ``context_min..context_max`` stepped."""
        return list(
            range(self.context_min, self.context_max + 1, self.context_step)
        )

    def traffic_config(self, policy: PolicySpec, concurrency: int) -> ClusterConfig:
        """Single-replica simulation configuration of one probe."""
        engine = replace(
            self.engine,
            policy=policy,
            max_batch_size=concurrency,
            max_prefills_per_step=concurrency,
        )
        return replace(
            self.fleet,
            engine=engine,
            min_replicas=1,
            max_replicas=1,
            router="round_robin",
            clock="perfmodel",
        )

    def describe(self) -> dict[str, object]:
        """Identifying engine/workload configuration (for reports)."""
        return {
            "model": self.engine.model,
            "budget": self.engine.budget,
            "max_new_tokens": self.engine.max_new_tokens,
            "num_full_layers": self.engine.num_full_layers,
            "num_sink_tokens": self.engine.num_sink_tokens,
            "concurrencies": list(self.concurrencies),
            "context_min": self.context_min,
            "context_max": self.context_max,
            "context_step": self.context_step,
            "rates": list(self.rates),
            "num_requests": self.num_requests,
            "arch": self.fleet.arch,
            "context_scale": self.fleet.context_scale,
            "slo": self.fleet.slo.to_dict(),
            "slo_floor": self.slo_floor,
            "seed": self.seed,
        }


def _burst_requests(
    config: CapacityScenarioConfig, context_tokens: int, concurrency: int
) -> list[ServeRequest]:
    """Closed burst: ``concurrency`` equal-length prompts arriving at t=0.

    Prompt contents are seeded by ``(seed, context, concurrency)`` so
    every grid point's workload is deterministic yet distinct.
    """
    vocab_size = get_model_config(config.engine.model).vocab_size
    rng = np.random.default_rng([config.seed, context_tokens, concurrency])
    return [
        ServeRequest(
            request_id=f"c{index}",
            prompt_ids=rng.integers(4, vocab_size, size=context_tokens).astype(
                np.int64
            ),
            max_new_tokens=config.engine.max_new_tokens,
        )
        for index in range(concurrency)
    ]


def _rate_requests(
    config: CapacityScenarioConfig, policy: PolicySpec, rate: float
) -> list[ServeRequest]:
    """Open-loop Poisson workload at one offered rate."""
    workload = WorkloadSpec(
        rate=rate,
        num_requests=config.num_requests,
        prompt_len_min=config.context_min,
        prompt_len_max=config.context_max,
        policies=(policy,),
        seed=config.seed,
    )
    return build_bench_requests(TrafficBenchConfig(workload, config.fleet))


def probe_point(
    config: CapacityScenarioConfig,
    policy: PolicySpec,
    context_tokens: int,
    concurrency: int,
    rate: float | None = None,
) -> CapacityPoint:
    """Run one serving point to completion (or to tier exhaustion).

    Without ``rate``: a closed burst of ``concurrency`` prompts of
    exactly ``context_tokens`` tokens.  With ``rate``: the open-loop
    Poisson workload of :func:`_rate_requests` (``context_tokens`` then
    records the sweep's upper prompt bound).  A
    :class:`~repro.memory.CapacityExceeded` anywhere in the run marks
    the point infeasible and records which tier gave out; transfer and
    peak accounting still reflect everything moved up to the failure.
    """
    if rate is None:
        requests = _burst_requests(config, context_tokens, concurrency)
    else:
        requests = _rate_requests(config, policy, rate)
    feasible = True
    failed_tier: str | None = None
    duration_s = 0.0
    ttft_p50_s = 0.0
    slo_attainment = 0.0
    with ClusterSimulator(config.traffic_config(policy, concurrency)) as sim:
        try:
            report = sim.run(requests)
        except CapacityExceeded as exc:
            feasible = False
            failed_tier = exc.tier.value
        else:
            duration_s = report.duration_s
            ttft_p50_s = float(report.latency_summary()["ttft_s"]["p50"])
            slo_attainment = report.slo_attainment
        # Read through the replica handle so worker-resident engines
        # report the same accounting as in-process ones.
        stats = sim.fleet[0].handle.offload_stats()
    transfers = dict(stats["transfers"])
    peak_bytes = dict(stats["peak_bytes"])
    return CapacityPoint(
        policy=policy.name,
        concurrency=concurrency,
        context_tokens=context_tokens,
        feasible=feasible,
        failed_tier=failed_tier,
        rate=rate,
        duration_s=duration_s,
        ttft_p50_s=ttft_p50_s,
        slo_attainment=slo_attainment,
        transfers=transfers,
        peak_bytes=peak_bytes,
    )


class CapacityScenario:
    """Base class: one registered sweep strategy over the tier budgets."""

    name = "abstract"
    description = "abstract capacity scenario"

    def __init__(self, config: CapacityScenarioConfig | None = None) -> None:
        self.config = config if config is not None else CapacityScenarioConfig()

    def run(self) -> CapacityReport:
        """Execute the sweep and return its :class:`CapacityReport`."""
        raise NotImplementedError

    def _report(
        self,
        points: list[CapacityPoint],
        frontier: dict[str, dict[str, object]],
    ) -> CapacityReport:
        """Assemble the scenario's report from probed points + frontier."""
        return CapacityReport(
            scenario=self.name,
            policies=self.config.policy_names,
            tiers=(self.config.engine.tiers or TierBudgets()).to_dict(),
            engine=self.config.describe(),
            points=tuple(points),
            frontier=frontier,
        )


SCENARIOS = Registry("capacity scenario", CapacityScenario)


def run_scenario(
    name: str, config: CapacityScenarioConfig | None = None
) -> CapacityReport:
    """Build and run a registered scenario in one call."""
    return SCENARIOS.build(name, config).run()


@SCENARIOS.register("capacity_frontier")
class CapacityFrontierScenario(CapacityScenario):
    """Probe the full (context × concurrency) grid per policy.

    Every grid point runs (feasible points to completion, infeasible
    ones to the raising tier), so the report maps the entire feasible
    region — including non-monotone islands a bisection would skip.
    The frontier records, per policy and concurrency, the largest
    feasible context on the grid (0 when none is).
    """

    description = "map the feasible (context x concurrency) region per policy"

    def run(self) -> CapacityReport:
        """Probe the grid and derive the per-policy frontier."""
        points: list[CapacityPoint] = []
        frontier: dict[str, dict[str, object]] = {}
        for policy in self.config.policies:
            per_policy: dict[str, object] = {}
            for concurrency in self.config.concurrencies:
                best = 0
                for context in self.config.contexts():
                    point = probe_point(self.config, policy, context, concurrency)
                    points.append(point)
                    if point.feasible:
                        best = max(best, context)
                per_policy[str(concurrency)] = best
            frontier[policy.name] = per_policy
        return self._report(points, frontier)


@SCENARIOS.register("oom_finder")
class OOMFinderScenario(CapacityScenario):
    """Bisect the maximum feasible context per (policy, concurrency).

    Assumes feasibility is monotone in context length (more prompt
    tokens never free memory), which holds for every shipped policy:
    staging reservations and KV footprints only grow with context.
    Probes O(log n) grid points per pair instead of the full grid; the
    report's points are exactly the probes the bisection executed, in
    execution order.
    """

    description = "bisect the max feasible context per (policy, concurrency)"

    def run(self) -> CapacityReport:
        """Bisect each (policy, concurrency) pair over the context grid."""
        points: list[CapacityPoint] = []
        frontier: dict[str, dict[str, object]] = {}
        contexts = self.config.contexts()
        for policy in self.config.policies:
            per_policy: dict[str, object] = {}
            for concurrency in self.config.concurrencies:
                best = 0
                lo, hi = 0, len(contexts) - 1
                while lo <= hi:
                    mid = (lo + hi) // 2
                    point = probe_point(
                        self.config, policy, contexts[mid], concurrency
                    )
                    points.append(point)
                    if point.feasible:
                        best = contexts[mid]
                        lo = mid + 1
                    else:
                        hi = mid - 1
                per_policy[str(concurrency)] = best
            frontier[policy.name] = per_policy
        return self._report(points, frontier)


@SCENARIOS.register("latency_curve")
class LatencyCurveScenario(CapacityScenario):
    """Sweep the offered rate upward until the SLO collapses.

    Each policy serves open-loop Poisson traffic at every rate in
    ``rates`` (ascending) on a replica sized to the largest configured
    concurrency.  A policy's sweep stops at the first rate that either
    exhausts a tier or drops SLO attainment below ``slo_floor``; the
    frontier records the last sustained rate (0 when even the lowest
    rate fails).  Spill traffic is priced into every latency sample, so
    a policy that survives on SSD recalls collapses *earlier* on this
    curve than raw capacity alone would suggest.
    """

    description = "sweep offered rate to SLO collapse per policy"

    def run(self) -> CapacityReport:
        """Sweep rates per policy, stopping at collapse."""
        points: list[CapacityPoint] = []
        frontier: dict[str, dict[str, object]] = {}
        concurrency = max(self.config.concurrencies)
        for policy in self.config.policies:
            max_rate = 0.0
            for rate in sorted(self.config.rates):
                point = probe_point(
                    self.config,
                    policy,
                    self.config.context_max,
                    concurrency,
                    rate=rate,
                )
                points.append(point)
                if not point.feasible or point.slo_attainment < self.config.slo_floor:
                    break
                max_rate = rate
            frontier[policy.name] = {"max_rate": max_rate}
        return self._report(points, frontier)
