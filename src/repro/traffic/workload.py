"""Request-shape mixes: turning arrival times into concrete requests.

A :class:`RequestShape` describes one class of traffic — a prompt-length
range, a decode length and an optional per-request compression policy —
and a weight.  :func:`generate_traffic` composes a shape mix with an
arrival process into a deterministic list of
:class:`~repro.serving.request.ServeRequest` objects stamped with their
arrival instants: everything (shape choice, prompt lengths, prompt token
ids) is drawn from one seeded generator, so equal ``(shapes, arrivals,
seed)`` produce bit-identical workloads.

The prompt token ids are drawn uniformly over the vocabulary; richer
content — planted-span retrieval documents, LongBench-analogue tasks —
can be substituted per shape through ``prompt_sampler``, which receives
the seeded generator and the drawn length and returns the token ids (the
:mod:`repro.workloads` generators compose here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..policies import PolicySpec, resolve_policy_spec
from ..serving.request import SLO_CLASSES, ServeRequest

__all__ = ["RequestShape", "generate_traffic"]

PromptSampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class RequestShape:
    """One class of requests in a traffic mix.

    Attributes
    ----------
    prompt_len_range:
        Inclusive ``(lo, hi)`` range prompt lengths are drawn from
        (uniformly).
    max_new_tokens:
        Decode length of requests of this shape.
    policy:
        KV compression policy of requests of this shape (spec or policy
        string, resolved at construction); ``None`` uses the engine
        default.
    weight:
        Relative frequency of this shape in the mix.
    slo_class:
        Service class of requests of this shape (``"interactive"`` or
        ``"batch"``).
    prompt_sampler:
        Optional override producing the prompt token ids from the seeded
        generator and the drawn length; defaults to uniform ids over the
        vocabulary.
    """

    prompt_len_range: tuple[int, int] = (48, 96)
    max_new_tokens: int = 32
    policy: PolicySpec | str | None = None
    weight: float = 1.0
    slo_class: str = "interactive"
    prompt_sampler: PromptSampler | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        lo, hi = self.prompt_len_range
        if lo <= 0 or hi < lo:
            raise ValueError("prompt_len_range must satisfy 0 < lo <= hi")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"slo_class must be one of {SLO_CLASSES}, got {self.slo_class!r}"
            )
        if self.policy is not None:
            object.__setattr__(self, "policy", resolve_policy_spec(self.policy))


def generate_traffic(
    shapes: Sequence[RequestShape],
    arrival_times: np.ndarray | Sequence[float],
    vocab_size: int,
    seed: int = 0,
    id_prefix: str = "t",
) -> list[ServeRequest]:
    """Compose a shape mix with arrival times into concrete requests.

    Parameters
    ----------
    shapes:
        The request-shape mix; shape ``i`` is chosen with probability
        proportional to its weight.
    arrival_times:
        Arrival timestamps (seconds), one per request, non-decreasing —
        typically from an :class:`~repro.traffic.arrivals.ArrivalProcess`.
    vocab_size:
        Vocabulary size of the served model (prompt ids are drawn from
        ``[4, vocab_size)``, skipping special-token ids, as the serving
        benchmark does).
    seed:
        Seed of the generator driving shape choice, prompt lengths and
        prompt contents.
    id_prefix:
        Request ids are ``f"{id_prefix}{index}"``.

    Returns
    -------
    list of ServeRequest
        One request per arrival time, in arrival order.
    """
    if not shapes:
        raise ValueError("shapes must be non-empty")
    times = np.asarray(arrival_times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("arrival_times must be 1-D")
    if np.any(np.diff(times) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    rng = np.random.default_rng(seed)
    weights = np.asarray([shape.weight for shape in shapes], dtype=np.float64)
    weights = weights / weights.sum()
    requests: list[ServeRequest] = []
    for index, arrival in enumerate(times.tolist()):
        shape = shapes[int(rng.choice(len(shapes), p=weights))]
        lo, hi = shape.prompt_len_range
        length = int(rng.integers(lo, hi + 1))
        if shape.prompt_sampler is not None:
            prompt_ids = np.asarray(shape.prompt_sampler(rng, length), dtype=np.int64)
        else:
            prompt_ids = rng.integers(4, vocab_size, size=length).astype(np.int64)
        requests.append(
            ServeRequest(
                request_id=f"{id_prefix}{index}",
                prompt_ids=prompt_ids,
                max_new_tokens=shape.max_new_tokens,
                policy=shape.policy,  # type: ignore[arg-type]
                arrival_time_s=float(arrival),
                slo_class=shape.slo_class,
            )
        )
    return requests
