"""Row lanes: row-independent prefill work on every CPU the process owns.

Prefill is row-independent block by block (query rows of the causal
attention, token rows of the dense projections), and NumPy releases the GIL
inside every GEMM and ufunc it runs, so plain threads scale it across cores
while BLAS itself stays pinned to one thread (BLAS-internal threading buys
nothing at these matrix sizes).  A *lane* is one share of such work: lane 0
runs on the calling thread, lanes 1.. on threads that live only inside
:func:`run_lanes`.  There is no pool, no module-level thread and no
``atexit`` hook, so a process forked after a laned call is sound and
``threading.active_count()`` is the same before and after every call.

Lanes may call only NumPy and the pure per-layer blocks of
:class:`~repro.model.transformer.TransformerModel`.  Op counters, the KV
store, selector state and anything a tracer wraps stay on the calling
thread — :mod:`repro.perf.counters` is a plain dict and outside-in tracers
keep one span stack.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

# Upper bound on the lanes of this process, or None for "every CPU it may
# run on".  Only a multiprocess-backend worker sets it (its share of the box).
_lane_cap: int | None = None


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def set_lane_cap(cap: int | None) -> None:
    """Bound this process's lanes to ``cap`` (``None`` lifts the bound)."""
    global _lane_cap
    _lane_cap = cap


def lane_count(work: int, minimum: int) -> int:
    """Lanes for ``work`` units when a lane needs ``minimum`` of them to pay.

    One CPU, a short prompt or a small chunk yields 1: the serial path
    through the same loop.
    """
    cpus = available_cpus()
    if _lane_cap is not None:
        cpus = min(cpus, _lane_cap)
    return max(1, min(cpus, work // minimum))


def run_lanes(work: Callable[[int], None], lanes: int) -> None:
    """Run ``work(lane)`` for every lane in ``range(lanes)`` and wait.

    Lane 0 runs on the calling thread.  Every helper thread is joined
    before this returns or raises; the first exception (the caller's own
    lane first) is re-raised on the caller.
    """
    errors: list[BaseException] = []

    def guarded(lane: int) -> None:
        try:
            work(lane)
        except BaseException as exc:  # noqa: BLE001 — re-raised on the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(lane,), name=f"prefill-lane-{lane}")
        for lane in range(1, lanes)
    ]
    started: list[threading.Thread] = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
