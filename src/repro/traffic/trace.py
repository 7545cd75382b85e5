"""JSONL traffic traces: record and replay open-loop workloads.

A trace is one JSON object per line, in arrival order::

    {"arrival_time_s": 0.41, "max_new_tokens": 32,
     "policy": {"name": "clusterkv", "tokens_per_cluster": 32},
     "prompt_len": 72, "seed": null, "slo_class": "interactive"}

``policy`` is the flat :meth:`repro.policies.PolicySpec.to_dict` form;
``null`` there, or in ``max_new_tokens`` or the per-request sampling
``seed``, means the engine default.  ``slo_class`` keeps a class-mixed
workload class-mixed on replay; records written without it (or without
``seed``) load as ``"interactive"`` (and ``None``).  A record may carry
explicit ``"prompt_ids"`` for exact replay; otherwise :func:`load_trace`
regenerates the prompt contents deterministically from its ``seed``
argument, so a trace stores shapes and timing — the load pattern — in a
few bytes per request while replays remain bit-reproducible.

:func:`save_trace` writes the requests produced by
:func:`~repro.traffic.workload.generate_traffic` (or completed runs), and
round-trips with :func:`load_trace`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from ..policies import PolicySpec
from ..serving.request import ServeRequest

__all__ = ["save_trace", "load_trace"]


def save_trace(
    path: str | Path,
    requests: Iterable[ServeRequest],
    include_prompt_ids: bool = False,
) -> int:
    """Write requests as a JSONL trace; returns the number of records.

    With ``include_prompt_ids`` the exact token ids are embedded (larger
    files, exact replay without a seed); otherwise only the prompt length
    is stored and replay regenerates contents from ``load_trace``'s seed.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for request in requests:
            record: dict[str, object] = {
                "arrival_time_s": request.arrival_time_s,
                "prompt_len": request.prompt_length(),
                "max_new_tokens": request.max_new_tokens,
                "policy": None if request.policy is None else request.policy.to_dict(),
                "seed": request.seed,
                "slo_class": request.slo_class,
            }
            if include_prompt_ids:
                record["prompt_ids"] = [int(t) for t in request.prompt_ids]
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def load_trace(
    path: str | Path,
    vocab_size: int,
    seed: int = 0,
    id_prefix: str = "t",
    limit: int | None = None,
) -> list[ServeRequest]:
    """Load a JSONL trace into replayable :class:`~repro.serving.ServeRequest` objects.

    Records without embedded ``prompt_ids`` get deterministic contents
    drawn from ``numpy.random.default_rng(seed)`` at their recorded
    length, so two loads with equal arguments replay identical workloads.
    ``limit`` caps the number of records read (a prefix of the trace);
    ``None`` loads everything.

    Raises
    ------
    ValueError
        Prefixed ``path:line:``, on any record it cannot replay: malformed
        JSON, neither ``prompt_len`` nor ``prompt_ids``, a decreasing
        arrival time (traces are in arrival order), or any field
        :class:`~repro.serving.ServeRequest` refuses (e.g. a NaN arrival).
    """
    path = Path(path)
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive when set")
    rng = np.random.default_rng(seed)
    requests: list[ServeRequest] = []
    previous_arrival = 0.0
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if limit is not None and len(requests) >= limit:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = _parse_record(line, f"{id_prefix}{len(requests)}", vocab_size, rng)
                if request.arrival_time_s < previous_arrival:
                    raise ValueError(
                        "arrival times must be non-decreasing (traces are in arrival order)"
                    )
            except (ValueError, TypeError) as error:
                raise ValueError(f"{path}:{line_number}: {error}") from None
            previous_arrival = request.arrival_time_s
            requests.append(request)
    return requests


def _parse_record(
    line: str, request_id: str, vocab_size: int, rng: np.random.Generator
) -> ServeRequest:
    """The request one trace line records; ``ValueError`` or ``TypeError`` if it cannot."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed JSON: {error}") from None
    if not isinstance(record, dict):
        raise ValueError("trace records must be objects")
    if "prompt_ids" in record:
        prompt_ids = np.asarray(record["prompt_ids"], dtype=np.int64)
    elif "prompt_len" in record:
        length = int(record["prompt_len"])
        if length <= 0:
            raise ValueError("prompt_len must be positive")
        prompt_ids = rng.integers(4, vocab_size, size=length).astype(np.int64)
    else:
        raise ValueError("record needs prompt_len or prompt_ids")
    policy = record.get("policy")
    max_new_tokens = record.get("max_new_tokens", 32)
    seed = record.get("seed")
    return ServeRequest(
        request_id=request_id,
        prompt_ids=prompt_ids,
        max_new_tokens=None if max_new_tokens is None else int(max_new_tokens),
        policy=None if policy is None else PolicySpec.from_dict(policy),
        arrival_time_s=float(record.get("arrival_time_s", 0.0)),
        seed=None if seed is None else int(seed),
        slo_class=record.get("slo_class", "interactive"),
    )
