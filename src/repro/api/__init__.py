"""Public session API: the stable facade over the whole reproduction.

``repro.api`` is the entry point applications should use:

* :class:`EngineSpec` — one declarative, JSON-round-trippable config
  object describing model, default policy, budget, decoding and scheduler
  knobs, including the cross-request prefix cache
  (``prefix_cache_tokens`` capacity, ``prefix_block_tokens`` radix block
  size, ``prefix_semantic_reuse`` for ClusterKV cluster-state reuse —
  see :mod:`repro.prefixcache`).
* :class:`Session` — built from an ``EngineSpec`` (or its fields as
  keyword arguments); exposes ``generate()`` for one-shot calls,
  ``submit()``/``step()``/``run()`` for batched serving, and ``stream()``
  yielding per-token :class:`TokenEvent` objects.
* :func:`simulate` — open-loop traffic simulation: a workload from
  :mod:`repro.traffic` served over one or more replicas (each described
  by an ``EngineSpec``) on a virtual clock, returning a
  :class:`~repro.traffic.TrafficReport` of TTFT/TPOT percentiles and
  SLO goodput.

Compression methods are referred to declaratively through
:mod:`repro.policies`; every request can carry its own policy, so a single
session serves heterogeneous traffic.
"""

from dataclasses import fields

from .session import Session, TokenEvent
from .spec import EngineSpec

__all__ = ["EngineSpec", "Session", "TokenEvent", "simulate"]


def simulate(
    requests,
    config=None,
    router=None,
    clock=None,
    *,
    autoscaler=None,
    admission=None,
    failures=None,
    min_replicas=None,
    max_replicas=None,
    max_retries=None,
    workers=None,
):
    """Run one open-loop traffic simulation, static or elastic.

    ``config`` is either fleet description: a
    :class:`~repro.traffic.TrafficConfig` (the default; a fixed fleet of
    ``num_replicas`` replicas, every request admitted) or a full
    :class:`~repro.cluster.ClusterConfig` (autoscaler, admission policy
    and failure plan included).  Both run through the one
    :class:`~repro.cluster.ClusterSimulator` event loop.  Passing any
    cluster knob turns the config's shared fleet fields into an elastic
    :class:`~repro.cluster.ClusterConfig`:

    * ``autoscaler`` / ``admission`` — control-plane policies, as
      instances or compact spec strings (``"queue_depth:high=2"``,
      ``"token_budget"``);
    * ``failures`` — a :class:`~repro.cluster.FailurePlan` of replica
      kills;
    * ``min_replicas`` / ``max_replicas`` — provisioning bounds
      (defaults: ``config.num_replicas`` and twice that);
    * ``max_retries`` — failure re-dispatch budget per request.

    ``workers`` selects the multiprocess execution backend with that many
    worker processes (see :mod:`repro.execbackend`); reports are
    byte-identical to the serial default.

    Imported lazily because :mod:`repro.traffic` and
    :mod:`repro.cluster` build their replicas from this module's
    :class:`EngineSpec`.
    """
    from ..traffic import FleetConfig, TrafficConfig, simulate as _simulate

    cluster_knobs = (autoscaler, admission, failures, min_replicas, max_replicas, max_retries)
    if any(knob is not None for knob in cluster_knobs):
        from ..cluster import ClusterConfig

        base = config or TrafficConfig()
        floor = base.num_replicas if min_replicas is None else min_replicas
        # Knobs left unset fall back to ClusterConfig's own field defaults.
        knobs = {
            "autoscaler": autoscaler,
            "admission": admission,
            "failures": failures,
            "max_retries": max_retries,
            "max_replicas": 2 * floor if max_replicas is None else max_replicas,
        }
        config = ClusterConfig(
            **{item.name: getattr(base, item.name) for item in fields(FleetConfig)},
            min_replicas=floor,
            **{name: value for name, value in knobs.items() if value is not None},
        )
    return _simulate(requests, config, router=router, clock=clock, workers=workers)
