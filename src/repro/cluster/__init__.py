"""Elastic cluster serving: autoscaling, admission control, failure injection.

This subsystem holds the one fleet simulator,
:class:`ClusterSimulator` — a static :class:`~repro.traffic.TrafficConfig`
fleet runs through it as the degenerate cluster — and the control plane
over its replica set: the layer that decides how much capacity exists,
which requests get in, and what happens when a replica dies:

* :mod:`~repro.cluster.autoscaler` — pluggable fleet-sizing policies
  (``static``, ``queue_depth``, ``slo_attainment``, ``interactive_slo``)
  deciding on frozen :class:`FleetView` snapshots; scale-ups pay a
  warm-up cost priced by the perfmodel, scale-downs drain (finish
  in-flight work, then remove) or — with ``migrate_on_drain`` —
  checkpoint-migrate their in-flight requests to other replicas through
  :mod:`repro.seqstate` and remove immediately;
* :mod:`~repro.cluster.admission` — pluggable door policies (``always``,
  ``token_budget``, ``queue_deadline``, ``slo_class``) that reject early
  instead of blowing the tail, with rejections first-class in the report;
* :mod:`~repro.cluster.failures` — seeded :class:`FailurePlan` schedules
  that kill replicas (or, with ``num_zones``, whole correlated zones)
  mid-run; lost requests re-dispatch deterministically from their
  prompts — or, with ``checkpoint_interval_s``, resume from their last
  periodic checkpoint with only the post-checkpoint tokens lost — and
  reproduce their failure-free outputs token for token.

Entry points: :func:`simulate_cluster` (which :func:`repro.traffic.simulate`
and :func:`repro.api.simulate` forward to), :func:`run_cluster_bench`
behind the ``repro cluster-bench`` CLI command, and the registries
(:func:`build_autoscaler`, :func:`build_admission`) that make both
policy families pluggable the same way :mod:`repro.policies` makes
compression methods pluggable.
"""

from .admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    QueueDeadlineAdmission,
    SLOClassAdmission,
    TokenBudgetAdmission,
    admission_names,
    build_admission,
    register_admission,
    resolve_admission,
)
from .autoscaler import (
    Autoscaler,
    InteractiveSLOAutoscaler,
    QueueDepthAutoscaler,
    ScaleDecision,
    SLOAttainmentAutoscaler,
    StaticAutoscaler,
    autoscaler_names,
    build_autoscaler,
    register_autoscaler,
    resolve_autoscaler,
)
from .bench import ClusterBenchConfig, format_cluster_report, run_cluster_bench
from .failures import FailureEvent, FailurePlan
from .fleet import FleetView, ReplicaInfo, ReplicaLifecycle
from .simulator import ClusterConfig, ClusterReplica, ClusterSimulator, simulate_cluster

__all__ = [
    "ReplicaLifecycle",
    "ReplicaInfo",
    "FleetView",
    "ScaleDecision",
    "Autoscaler",
    "StaticAutoscaler",
    "QueueDepthAutoscaler",
    "SLOAttainmentAutoscaler",
    "InteractiveSLOAutoscaler",
    "register_autoscaler",
    "build_autoscaler",
    "resolve_autoscaler",
    "autoscaler_names",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "TokenBudgetAdmission",
    "QueueDeadlineAdmission",
    "SLOClassAdmission",
    "register_admission",
    "build_admission",
    "resolve_admission",
    "admission_names",
    "FailureEvent",
    "FailurePlan",
    "ClusterConfig",
    "ClusterReplica",
    "ClusterSimulator",
    "simulate_cluster",
    "ClusterBenchConfig",
    "run_cluster_bench",
    "format_cluster_report",
]
