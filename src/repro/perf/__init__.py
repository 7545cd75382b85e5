"""Persistent performance guard: op counters and the pinned scenarios they count.

Two pieces:

* :mod:`repro.perf.counters` — zero-overhead-when-disabled counters of
  deterministic hot-path events (GEMM launches, k-means iterations), the
  basis of the ``scripts/check_perf.py`` regression guard;
* :mod:`repro.perf.hotpaths` — the pinned scenarios ``repro perf-bench``
  runs under those counters; their payload is ``BENCH_hotpaths.json``.

Nothing in this package reads a clock; wall-clock numbers come from
``bench/run.py`` alone.
"""

from . import counters
from .counters import OpCounter, count_ops, record
from .hotpaths import (
    PerfBenchConfig,
    deterministic_counters,
    format_perf_bench,
    run_perf_bench,
)

__all__ = [
    "OpCounter",
    "count_ops",
    "record",
    "PerfBenchConfig",
    "deterministic_counters",
    "run_perf_bench",
    "format_perf_bench",
]
