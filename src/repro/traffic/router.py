"""Pluggable request routing across serving replicas.

A :class:`Router` picks, for every arriving request, the replica that will
serve it.  Routers see lightweight :class:`ReplicaView` snapshots — queue
depth, active decodes, reserved KV bytes, the replica clock — and must be
deterministic: ties break toward the lowest replica index, so a simulation
is bit-reproducible regardless of the routing strategy.

Strategies self-register in a name registry mirroring
:mod:`repro.policies`: ``@register_router("name")`` makes a strategy
available to :func:`build_router`, the ``repro traffic-bench --router``
flag and `repro list` at once.  Built-ins:

* ``round_robin`` — cycle replicas in arrival order, load-blind;
* ``jsq`` — join the shortest queue (queued + active requests), the
  classic latency-optimal policy for homogeneous replicas;
* ``least_kv`` — join the replica with the fewest reserved KV bytes,
  which accounts for request *size* (long prompts and long decodes
  reserve more) rather than request *count*;
* ``prefix_affine`` — hash the request's leading prompt block to a
  replica, so requests sharing a prompt prefix land on the same
  replica-local prefix cache;
* ``slo_aware`` — class-aware placement: interactive requests join the
  shortest queue, batch requests join the replica with the most
  batch-class work, concentrating preemptible filler on few replicas so
  the rest stay responsive.
"""

from __future__ import annotations

import zlib
from typing import Callable, Protocol, Sequence

import numpy as np

from .workload import TrafficRequest

__all__ = [
    "ReplicaView",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "LeastKVBytesRouter",
    "PrefixAffineRouter",
    "SLOAwareRouter",
    "register_router",
    "build_router",
    "router_names",
]


class ReplicaView(Protocol):
    """The slice of replica state a routing decision may read."""

    index: int
    clock_s: float

    @property
    def queued(self) -> int:
        """Requests waiting in the replica's admission queue."""
        ...

    @property
    def active(self) -> int:
        """Requests currently decoding on the replica."""
        ...

    @property
    def reserved_kv_bytes(self) -> int:
        """Projected KV bytes of the replica's in-flight and queued requests."""
        ...


class Router:
    """Base class of routing strategies (stateful per simulation run)."""

    name = "abstract"

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """Index of the replica that serves ``request``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run cursor state (called at the start of every run)."""

    def describe(self) -> dict[str, object]:
        """Identifying configuration of this router (for reports)."""
        return {"name": self.name}


_ROUTERS: dict[str, type] = {}


def register_router(name: str) -> Callable[[type], type]:
    """Class decorator registering a :class:`Router` under ``name``."""

    def decorator(cls: type) -> type:
        existing = _ROUTERS.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"router name {name!r} is already registered")
        _ROUTERS[name] = cls
        cls.name = name
        return cls

    return decorator


def router_names() -> tuple[str, ...]:
    """Sorted names of all registered routing strategies."""
    return tuple(sorted(_ROUTERS))


def build_router(name: str, **kwargs: object) -> Router:
    """Instantiate a registered router from its name and kwargs."""
    cls = _ROUTERS.get(name)
    if cls is None:
        known = ", ".join(router_names()) or "<none registered>"
        raise ValueError(f"unknown router {name!r}; registered: {known}")
    return cls(**kwargs)


@register_router("round_robin")
class RoundRobinRouter(Router):
    """Cycle through replicas in arrival order, ignoring load."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """The next replica in cyclic order."""
        index = self._next % len(replicas)
        self._next += 1
        return index

    def reset(self) -> None:
        """Restart the cycle at replica 0."""
        self._next = 0


@register_router("jsq")
class JoinShortestQueueRouter(Router):
    """Join the replica with the fewest in-system requests.

    The load of a replica is ``queued + active``; ties break toward the
    lowest replica index.
    """

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """The replica with the fewest queued plus active requests."""
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].queued + replicas[i].active, i),
        )


@register_router("least_kv")
class LeastKVBytesRouter(Router):
    """Join the replica with the fewest reserved KV bytes.

    Unlike ``jsq`` this weighs requests by their projected KV footprint,
    so one replica holding a few very long requests is considered more
    loaded than one holding many short ones.
    """

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """The replica with the smallest reserved KV footprint."""
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].reserved_kv_bytes, i),
        )


@register_router("prefix_affine")
class PrefixAffineRouter(Router):
    """Route requests sharing a prompt prefix to the same replica.

    Prefix caches are replica-local, so a load-blind or size-aware router
    spreads requests with a common preamble across replicas and every
    replica pays the preamble's prefill once.  This router hashes the
    request's first ``block_tokens`` prompt tokens (the whole prompt when
    shorter) with CRC-32 and maps the hash onto the fleet, so all requests
    whose prompts agree on that leading block land on one replica and hit
    its cache.  The hash depends only on the token ids — deterministic
    across runs and machines.

    Parameters
    ----------
    block_tokens:
        Length of the hashed leading block; align it with the cache's
        ``prefix_block_tokens`` so routing granularity matches caching
        granularity.
    """

    def __init__(self, block_tokens: int = 32) -> None:
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        self.block_tokens = block_tokens

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """The replica owning the hash bucket of the leading prompt block."""
        prompt = np.ascontiguousarray(
            np.asarray(request.prompt_ids, dtype=np.int64)[: self.block_tokens]
        )
        return int(zlib.crc32(prompt.tobytes()) % len(replicas))

    def describe(self) -> dict[str, object]:
        """Router name plus the hashed block length."""
        return {"name": self.name, "block_tokens": self.block_tokens}


@register_router("slo_aware")
class SLOAwareRouter(Router):
    """Class-aware placement: spread interactive, concentrate batch.

    Interactive requests join the shortest queue (their TTFT is the
    product).  Batch requests prefer the replica already holding the most
    in-system work — packing the preemptible filler onto few replicas
    keeps the remaining ones lightly loaded for interactive traffic, and
    on preemption-enabled engines the packed batch work is exactly what
    gets checkpointed out of an interactive head's way.  Both halves are
    deterministic with ties toward the lowest index.
    """

    def choose(self, replicas: Sequence[ReplicaView], request: TrafficRequest) -> int:
        """Shortest queue for interactive, fullest replica for batch."""
        if getattr(request, "slo_class", "interactive") == "batch":
            return min(
                range(len(replicas)),
                key=lambda i: (-(replicas[i].queued + replicas[i].active), i),
            )
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].queued + replicas[i].active, i),
        )
