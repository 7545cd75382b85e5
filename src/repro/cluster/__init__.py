"""Elastic cluster serving: autoscaling, admission control, failure injection.

This subsystem holds the one fleet config, :class:`ClusterConfig`, and
the one fleet simulator, :class:`ClusterSimulator` — a static fleet
(:func:`repro.traffic.TrafficConfig`) runs through it as the degenerate
cluster — and the control plane
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
and :func:`repro.api.simulate` forward to; the ``repro cluster-bench``
CLI command runs :func:`repro.traffic.run_traffic_bench` on an
autoscaled default fleet), and the registries :data:`AUTOSCALERS` and
:data:`ADMISSIONS` (:class:`repro.registry.Registry`) that make both
policy families pluggable the same way :mod:`repro.policies` makes
compression methods pluggable.
"""

from .admission import ADMISSIONS, AdmissionPolicy, TokenBudgetAdmission
from .autoscaler import (
    AUTOSCALERS,
    Autoscaler,
    QueueDepthAutoscaler,
    ScaleDecision,
    SLOAttainmentAutoscaler,
    StaticAutoscaler,
)
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
    "AUTOSCALERS",
    "AdmissionPolicy",
    "TokenBudgetAdmission",
    "ADMISSIONS",
    "FailureEvent",
    "FailurePlan",
    "ClusterConfig",
    "ClusterReplica",
    "ClusterSimulator",
    "simulate_cluster",
]
