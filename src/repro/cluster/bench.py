"""Cluster benchmark: elastic serving under load for ``repro cluster-bench``.

Extends the traffic benchmark with the control plane: the same seeded
workloads (arrival process x request-shape mix, or a replayed trace) are
simulated over an *elastic* fleet with an autoscaler, an admission policy
and an optional failure plan.  On the default perfmodel clock the whole
benchmark — including every scaling decision, rejection and failure
retry — is arithmetic on seeded inputs, so a given configuration prints
byte-identical numbers on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..serving.bench import serving_engine_spec
from ..traffic.bench import TrafficBenchConfig, build_bench_requests, format_traffic_report
from ..traffic.report import TrafficReport
from .simulator import ClusterConfig, simulate_cluster

__all__ = ["ClusterBenchConfig", "run_cluster_bench", "format_cluster_report"]


@dataclass(frozen=True)
class ClusterBenchConfig(TrafficBenchConfig):
    """The cluster benchmark: the traffic benchmark over an elastic fleet.

    Same :class:`~repro.traffic.bench.WorkloadSpec`; ``fleet`` is a
    :class:`~repro.cluster.ClusterConfig`, so provisioning bounds,
    autoscaler, admission, failure plan, retry budget, drain migration
    and periodic checkpoints are that class's fields.  The default fleet
    scales one to four serving-tuned replicas on SLO attainment behind
    join-shortest-queue routing.
    """

    fleet: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(
            engine=serving_engine_spec(max_new_tokens=48),
            router="jsq",
            autoscaler="slo_attainment",
        )
    )


def run_cluster_bench(config: ClusterBenchConfig | None = None) -> TrafficReport:
    """Simulate the benchmark workload over the elastic fleet."""
    config = config or ClusterBenchConfig()
    return simulate_cluster(build_bench_requests(config), config.fleet)


def format_cluster_report(report: TrafficReport) -> str:
    """Human-readable table of one cluster-simulation report.

    The traffic table first, then the control-plane outcome: autoscaler
    and admission identity, rejection/retry counters and the scaling
    timeline (boot / ready / drain / remove / fail transitions).
    """
    lines = [format_traffic_report(report)]
    autoscaler = report.autoscaler.get("name", "?")
    bounds = (
        f"[{report.autoscaler.get('min_replicas', '?')}, "
        f"{report.autoscaler.get('max_replicas', '?')}]"
    )
    admission = report.admission.get("name", "?")
    lines.append(
        f"cluster: autoscaler={autoscaler} bounds={bounds} admission={admission}  "
        f"peak replicas: {report.num_replicas}"
    )
    lines.append(
        f"retries: {report.num_retries}  lost tokens: {report.lost_tokens}  "
        f"failures: {len(report.failures)}"
    )
    if report.num_migrations or report.num_recoveries:
        lines.append(
            f"migrations: {report.num_migrations}  "
            f"checkpoint recoveries: {report.num_recoveries}"
        )
    if report.scaling:
        lines.append("scaling timeline:")
        for entry in report.scaling:
            lines.append(
                f"  t={entry['time_s']:8.2f}s {entry['action']:<6} "
                f"replica {entry['replica']} (fleet {entry['provisioned']}) "
                f"- {entry['reason']}"
            )
    return "\n".join(lines)
