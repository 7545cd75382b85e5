"""FIFO admission queue of the serving engine.

The queue assigns each submitted request a monotonically increasing
``arrival_order`` and hands requests to the scheduler strictly in that
order.  Keeping the queue dumb (no reordering, no priorities) makes the
scheduler the single place where admission policy lives.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..policies import PolicySpec
from .request import ServeRequest

__all__ = ["RequestQueue"]


class RequestQueue:
    """First-come-first-served queue of pending :class:`ServeRequest`."""

    def __init__(self) -> None:
        self._pending: deque[ServeRequest] = deque()
        self._next_arrival = 0
        self._next_auto_id = 0
        self._issued_ids: set[str] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def submit(
        self,
        prompt_ids: np.ndarray | list[int],
        request_id: str | None = None,
        max_new_tokens: int | None = None,
        seed: int | None = None,
        policy: PolicySpec | None = None,
        arrival_time_s: float = 0.0,
        slo_class: str = "interactive",
    ) -> ServeRequest:
        """Enqueue a new request and return it.

        The queue is the sole issuer of request ids: ``request_id`` defaults
        to ``"req-<n>"`` with a counter that skips already-issued ids, and an
        explicit id that was ever issued through this queue is rejected —
        ids key KV buffer names and report entries downstream, so uniqueness
        is load-bearing and enforced for the queue's whole lifetime.

        Raises
        ------
        ValueError
            If ``request_id`` was already issued through this queue, or
            the request is invalid (:class:`ServeRequest` checks it before
            the id is issued).
        """
        if request_id is None:
            while f"req-{self._next_auto_id}" in self._issued_ids:
                self._next_auto_id += 1
            request_id = f"req-{self._next_auto_id}"
        elif request_id in self._issued_ids:
            raise ValueError(f"request id {request_id!r} was already submitted")
        # Built before the id is issued: an invalid request burns no id.
        request = ServeRequest(
            request_id=request_id,
            prompt_ids=np.asarray(prompt_ids, dtype=np.int64),
            max_new_tokens=max_new_tokens,
            seed=seed,
            policy=policy,
            arrival_order=self._next_arrival,
            arrival_time_s=arrival_time_s,
            slo_class=slo_class,
        )
        self._issued_ids.add(request_id)
        self._next_arrival += 1
        self._pending.append(request)
        return request

    def reserve_id(self, request_id: str) -> None:
        """Mark ``request_id`` as issued without enqueueing anything.

        The restore path of the serving engine re-creates a request from a
        :class:`repro.seqstate.SequenceCheckpoint` directly into the active
        set, bypassing :meth:`submit`; reserving the id here keeps the
        queue the single authority on id uniqueness — a later explicit
        submission of the same id is still rejected.  Reserving an id that
        is already issued is a no-op (a request resumed on the engine that
        originally issued it keeps its id).
        """
        self._issued_ids.add(request_id)

    def peek(self) -> ServeRequest | None:
        """The request at the head of the queue, without removing it."""
        return self._pending[0] if self._pending else None

    def pop(self) -> ServeRequest:
        """Remove and return the request at the head of the queue."""
        if not self._pending:
            raise IndexError("pop from an empty request queue")
        return self._pending.popleft()

    def pending(self) -> list[ServeRequest]:
        """Snapshot of the queued requests in arrival order."""
        return list(self._pending)
