"""Seeded open-loop arrival processes for the traffic simulator.

An arrival process turns ``(num_requests, seed)`` into a deterministic,
non-decreasing sequence of arrival timestamps in seconds.  Processes
register in :data:`ARRIVALS` (a :class:`~repro.registry.Registry`), so the
CLI (``repro traffic-bench --arrivals poisson``), config files and
third-party processes all resolve through ``ARRIVALS.build``:

* ``constant`` — evenly spaced arrivals at a fixed rate (the open-loop
  analogue of a paced load generator);
* ``poisson`` — exponential inter-arrival gaps at a mean rate, the
  classic memoryless model of independent users;
* ``onoff`` — a bursty on/off (interrupted Poisson) process: ON phases
  arrive at ``rate * burstiness``, OFF phases produce nothing, with the
  phase lengths chosen so the *mean* rate stays ``rate``.  This is the
  regime where tail latencies and queue waits separate routing policies;
* ``trace`` — replay explicit timestamps (see :mod:`repro.traffic.trace`
  for the JSONL on-disk form).

All randomness comes from ``numpy.random.default_rng(seed)``, so two
processes built with equal configuration emit bit-identical timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..registry import Registry

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "TraceArrivals",
    "ARRIVALS",
]


class ArrivalProcess:
    """Base class: a deterministic generator of arrival timestamps."""

    name = "abstract"

    def times(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """Arrival timestamps in seconds, shape ``(num_requests,)``, sorted."""
        raise NotImplementedError

    def describe(self) -> dict[str, object]:
        """Identifying configuration of this process (for reports)."""
        return {"name": self.name}


ARRIVALS = Registry("arrival process", ArrivalProcess)


@ARRIVALS.register("constant")
@dataclass(frozen=True)
class ConstantArrivals(ArrivalProcess):
    """Evenly spaced arrivals: request ``i`` arrives at ``i / rate``."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def times(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """Evenly spaced timestamps (the seed is unused: no randomness)."""
        return np.arange(num_requests, dtype=np.float64) / self.rate

    def describe(self) -> dict[str, object]:
        """Name and rate of this process."""
        return {"name": self.name, "rate": self.rate}


@ARRIVALS.register("poisson")
@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson process: i.i.d. exponential gaps with mean ``1 / rate``."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def times(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """Cumulative sums of seeded exponential inter-arrival gaps."""
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / self.rate, size=num_requests)
        return np.cumsum(gaps)

    def describe(self) -> dict[str, object]:
        """Name and rate of this process."""
        return {"name": self.name, "rate": self.rate}


@ARRIVALS.register("onoff")
@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty on/off arrivals with mean rate ``rate``.

    The process alternates exponentially-long ON and OFF phases.  During
    ON phases requests arrive as a Poisson stream at ``rate * burstiness``;
    OFF phases are silent.  The duty cycle is ``1 / burstiness``, so the
    long-run mean rate equals ``rate`` while the instantaneous rate during
    a burst is ``burstiness`` times higher — the bursty-load regime where
    queue waits and routing policies matter.

    Attributes
    ----------
    rate:
        Long-run mean arrival rate (requests per second).
    burstiness:
        Peak-to-mean rate ratio (>= 1; 1 degenerates to Poisson).
    mean_burst:
        Mean number of requests per ON phase.
    """

    rate: float = 1.0
    burstiness: float = 4.0
    mean_burst: float = 8.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be at least 1")
        if self.mean_burst <= 0:
            raise ValueError("mean_burst must be positive")

    def times(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """Seeded bursty timestamps: Poisson ON phases, silent OFF phases."""
        rng = np.random.default_rng(seed)
        peak_rate = self.rate * self.burstiness
        # ON phase: mean_burst arrivals at peak_rate -> mean length
        # mean_burst / peak_rate.  OFF phase balances the duty cycle to
        # 1 / burstiness: off = on * (burstiness - 1).
        mean_on = self.mean_burst / peak_rate
        mean_off = mean_on * (self.burstiness - 1.0)
        times: list[float] = []
        now = 0.0
        while len(times) < num_requests:
            on_end = now + rng.exponential(mean_on)
            while len(times) < num_requests:
                now += rng.exponential(1.0 / peak_rate)
                if now > on_end:
                    now = on_end
                    break
                times.append(now)
            if mean_off > 0:
                now += rng.exponential(mean_off)
        return np.asarray(times[:num_requests], dtype=np.float64)

    def describe(self) -> dict[str, object]:
        """Name, mean rate and burst shape of this process."""
        return {
            "name": self.name,
            "rate": self.rate,
            "burstiness": self.burstiness,
            "mean_burst": self.mean_burst,
        }


@ARRIVALS.register("trace")
@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay of explicit arrival timestamps (e.g. loaded from a trace)."""

    timestamps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(float(t) for t in self.timestamps)
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("trace timestamps must be non-decreasing")
        if any(t < 0 for t in ordered):
            raise ValueError("trace timestamps must be non-negative")
        object.__setattr__(self, "timestamps", ordered)

    @classmethod
    def from_sequence(cls, timestamps: Sequence[float]) -> "TraceArrivals":
        """Build from any sequence of non-decreasing timestamps."""
        return cls(timestamps=tuple(float(t) for t in timestamps))

    def times(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """The first ``num_requests`` recorded timestamps, verbatim."""
        if num_requests > len(self.timestamps):
            raise ValueError(
                f"trace holds {len(self.timestamps)} arrivals, "
                f"{num_requests} requested"
            )
        return np.asarray(self.timestamps[:num_requests], dtype=np.float64)

    def describe(self) -> dict[str, object]:
        """Name and length of the replayed trace."""
        return {"name": self.name, "num_timestamps": len(self.timestamps)}
