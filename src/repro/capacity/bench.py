"""Capacity benchmark: the ``repro capacity-bench`` CLI entry point.

Runs one registered sweep-to-failure scenario (:mod:`.scenarios`) under
explicit tier budgets and formats the resulting
:class:`~repro.capacity.report.CapacityReport` as a table.  The whole
benchmark is seeded arithmetic on the virtual clock, so a given
configuration prints byte-identical numbers on any machine — the
property ``BENCH_capacity.json`` pins (via :func:`deterministic_capacity`)
and ``scripts/check_perf.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..knobs import knob
from .report import CapacityReport
from .scenarios import SCENARIOS, CapacityScenarioConfig, run_scenario

__all__ = [
    "CapacityBenchConfig",
    "run_capacity_bench",
    "format_capacity_report",
    "deterministic_capacity",
]


@dataclass(frozen=True)
class CapacityBenchConfig:
    """One capacity-benchmark invocation: a scenario plus its knobs.

    Attributes
    ----------
    scenario:
        Registry name of the sweep strategy to run (see
        :data:`repro.capacity.SCENARIOS`).
    config:
        The shared scenario configuration — policies, tier budgets,
        sweep grid, SLO floor, seed.
    """

    scenario: str = knob(
        "capacity_frontier",
        "sweep strategy, resolved through the scenario registry (see `repro list`)",
    )
    config: CapacityScenarioConfig = field(default_factory=CapacityScenarioConfig)

    def __post_init__(self) -> None:
        SCENARIOS.check(self.scenario)


def run_capacity_bench(config: CapacityBenchConfig | None = None) -> CapacityReport:
    """Run the configured scenario and return its report."""
    config = config or CapacityBenchConfig()
    return run_scenario(config.scenario, config.config)


def format_capacity_report(report: CapacityReport) -> str:
    """Human-readable table of one capacity report."""
    tiers = ", ".join(
        f"{name}={report.tiers.get(f'{name}_bytes')}"
        for name in ("gpu", "host", "ssd")
        if report.tiers.get(f"{name}_bytes") is not None
    )
    feasible = sum(1 for point in report.points if point.feasible)
    lines = [
        f"[capacity-bench] scenario={report.scenario}  tiers: {tiers or 'unbounded'}",
        f"points probed: {len(report.points)}  feasible: {feasible}  "
        f"infeasible: {len(report.points) - feasible}",
    ]
    for policy in report.policies:
        edge = report.frontier.get(policy, {})
        rendered = "  ".join(f"{key}={value}" for key, value in sorted(edge.items()))
        lines.append(f"frontier {policy:14s} {rendered}")
    totals = report.transfer_totals()
    for policy in report.policies:
        moved = totals.get(policy)
        if moved is None:
            continue
        lines.append(
            f"transfers {policy:13s} "
            f"h2d={moved.get('h2d', 0)}  d2h={moved.get('d2h', 0)}  "
            f"h2s={moved.get('h2s', 0)}  s2h={moved.get('s2h', 0)}"
        )
    failures: dict[str, int] = {}
    for point in report.points:
        if not point.feasible and point.failed_tier:
            key = f"{point.policy}:{point.failed_tier}"
            failures[key] = failures.get(key, 0) + 1
    if failures:
        spread = ", ".join(f"{key} x{count}" for key, count in sorted(failures.items()))
        lines.append(f"tier exhaustion: {spread}")
    return "\n".join(lines)


def deterministic_capacity() -> dict[str, object]:
    """The pinned capacity payload guarded by ``scripts/check_perf.py``.

    Runs the default ``capacity_frontier`` sweep — ClusterKV vs the
    dense ``full`` baseline on the (context × concurrency) grid under
    ``gpu=320KiB,host=448KiB,ssd=4MiB`` — and returns the full report
    dict.  Every number in it is a deterministic function of seeds and
    configuration (virtual-clock seconds included), so the comparison
    against ``BENCH_capacity.json`` is exact.
    """
    return run_capacity_bench().to_dict()
