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
  :mod:`repro.traffic` served over a :class:`~repro.cluster.ClusterConfig`
  fleet (each replica described by an ``EngineSpec``) on a virtual clock,
  returning a :class:`~repro.traffic.TrafficReport` of TTFT/TPOT
  percentiles and SLO goodput.

Compression methods are referred to declaratively through
:mod:`repro.policies`; every request can carry its own policy, so a single
session serves heterogeneous traffic.
"""

from .session import Session, TokenEvent
from .spec import EngineSpec

__all__ = ["EngineSpec", "Session", "TokenEvent", "simulate"]


def simulate(requests, config=None, router=None, clock=None, *, workers=None):
    """Run one open-loop fleet simulation: :func:`repro.cluster.simulate_cluster`.

    ``config`` is a :class:`~repro.cluster.ClusterConfig` (default: one
    static replica); :func:`~repro.traffic.TrafficConfig` builds a static
    fleet of ``num_replicas`` replicas, and ``dataclasses.replace`` adds
    an autoscaler, an admission policy or a failure plan.  ``workers``
    selects the multiprocess execution backend with that many worker
    processes (see :mod:`repro.execbackend`); reports are byte-identical
    to the serial default.

    Imported lazily because :mod:`repro.cluster` builds its replicas from
    this module's :class:`EngineSpec`.
    """
    from ..cluster import simulate_cluster

    return simulate_cluster(requests, config, router=router, clock=clock, workers=workers)
