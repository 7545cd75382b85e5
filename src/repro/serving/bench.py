"""The serving-tuned defaults every benchmark starts from.

:func:`serving_engine_spec` is the engine (KV budget 48, one full layer,
eight sink tokens) and :func:`serving_policy_spec` the policy
configuration of a bare method name; :func:`resolve_serving_policies`
turns a benchmark's policy list into specs through both.
:data:`POLICY_FLAG` is how every benchmark spells its ``--policy`` flag
and :data:`BENCH_SET_FIELDS` the engine fields a benchmark sets itself.

Used by ``traffic-bench``, ``cluster-bench`` and ``capacity-bench``
(:mod:`repro.traffic.bench`, :mod:`repro.capacity.scenarios`), the
pinned hot-path scenarios (:mod:`repro.perf.hotpaths`) and the
wall-clock workloads of ``bench/workloads.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..policies import PolicySpec, available_policies, resolve_policy_spec

if TYPE_CHECKING:
    from ..api import EngineSpec

__all__ = [
    "serving_policy_spec",
    "resolve_serving_policies",
    "serving_engine_spec",
]


# How every benchmark spells its ``policies`` field on the command line.
POLICY_FLAG = {"flag": "--policy", "metavar": "NAME[:KEY=VAL,...]"}

# The engine knob traffic- and cluster-bench set themselves next to the
# policy (which has no flag on any bench), so it gets no CLI flag: a
# per-step prefill cap as wide as the batch, so ``max_batch_size`` alone
# sizes the admission burst.
BENCH_SET_FIELDS = ("max_prefills_per_step",)


def serving_engine_spec(**overrides: object) -> EngineSpec:
    """The serving-tuned engine every benchmark's default starts from.

    KV budget 48, one full layer and eight sink tokens; ``overrides`` are
    :class:`~repro.api.EngineSpec` fields.  Imported lazily:
    :mod:`repro.api` sits above this package.
    """
    from ..api import EngineSpec

    tuned = {"budget": 48, "num_full_layers": 1, "num_sink_tokens": 8}
    return EngineSpec(**{**tuned, **overrides})


def serving_policy_spec(name: str, num_sink_tokens: int = 8) -> PolicySpec:
    """Serving-tuned policy spec for a method name.

    ClusterKV uses a serving-tuned configuration (larger clusters and a
    longer re-clustering window than the accuracy experiments) so that the
    per-step selection overhead matches a throughput-oriented deployment;
    every other method uses its registered defaults.  The single source of
    these constants: every benchmark resolves bare policy names through
    this function.
    """
    if name == "clusterkv":
        return PolicySpec(
            name,
            {
                "tokens_per_cluster": 32,
                "decode_window": 32,
                "decode_clusters": 2,
                "num_sink_tokens": num_sink_tokens,
            },
        )
    return PolicySpec(name)


def resolve_serving_policies(
    policies: Iterable[PolicySpec | str], num_sink_tokens: int = 8
) -> tuple[PolicySpec, ...]:
    """Normalise a benchmark's policy list (specs or spec strings).

    A bare name — ``"clusterkv"`` or ``PolicySpec("clusterkv")`` —
    resolves to the serving-tuned :func:`serving_policy_spec`; a spec with
    any explicit key (``"clusterkv:tokens_per_cluster=16"``) is used
    verbatim.  The one resolver behind traffic-, cluster- and
    capacity-bench; a registered policy's keys and value types are
    checked here (:meth:`~repro.policies.RegisteredPolicy.check`), so a
    bench config refuses them while it is built.
    """
    specs = tuple(resolve_policy_spec(item) for item in policies)
    registered = available_policies()
    for spec in specs:
        if spec.name in registered:  # an unknown name fails where the policy is built
            registered[spec.name].check(spec.kwargs)
    return tuple(
        spec if spec.kwargs else serving_policy_spec(spec.name, num_sink_tokens)
        for spec in specs
    )
