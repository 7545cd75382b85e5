#!/usr/bin/env python
"""Deterministic performance regression guard.

Recomputes the repo's two checked-in baselines and compares each against
its file, key by key:

* ``BENCH_hotpaths.json`` — engine steps, GEMM-launch counts (via
  :mod:`repro.perf.counters`), prefill score elements and k-means
  iteration counts on pinned configurations;
* ``BENCH_capacity.json`` — the pinned capacity-frontier sweep (frontier
  contexts, per-direction transfer bytes, virtual-clock seconds).

Every value is a pure function of seeds, configuration and control flow,
so the comparison is exact and machine-independent: a vectorisation
regression (say, attention falling back to one GEMM per head) multiplies
the counts and fails tier-1 (``tests/test_perf_guard.py``) even though
every output token is unchanged.  No wall-clock number lives in either
file — seconds are recorded by ``bench/run.py`` — so both are
byte-for-byte regenerable, and ``--update`` here is the only code that
writes them.

    python scripts/check_perf.py            # verify against the baselines
    python scripts/check_perf.py --update   # recompute and rewrite both

Run with ``src`` on ``sys.path`` (the script inserts it itself when
needed), in the style of ``scripts/check_docs.py`` / ``check_api.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_hotpaths.json"
CAPACITY_BENCH_PATH = REPO_ROOT / "BENCH_capacity.json"
SOURCE_ROOT = REPO_ROOT / "src"

if str(SOURCE_ROOT) not in sys.path:
    sys.path.insert(0, str(SOURCE_ROOT))


def current_hotpaths() -> dict:
    """Freshly computed ``BENCH_hotpaths.json`` payload."""
    from repro.perf import run_perf_bench

    return run_perf_bench()


def current_capacity() -> dict:
    """Freshly computed ``BENCH_capacity.json`` payload."""
    from repro.capacity import deterministic_capacity

    return {"deterministic": deterministic_capacity()}


# Baseline file -> the function that recomputes its whole payload.
BASELINES = {BENCH_PATH: current_hotpaths, CAPACITY_BENCH_PATH: current_capacity}


def _flatten(prefix: str, value: object, into: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], into)
    else:
        into[prefix] = value


def baseline_diff(path: Path) -> list[str]:
    """Mismatch lines between one baseline file and its live payload (empty = ok)."""
    baseline: dict = {}
    live: dict = {}
    _flatten("", json.loads(path.read_text(encoding="utf-8")), baseline)
    _flatten("", BASELINES[path](), live)
    return [
        f"{key}: baseline={baseline.get(key)!r} current={live.get(key)!r}"
        for key in sorted(set(baseline) | set(live))
        if baseline.get(key) != live.get(key)
    ]


def main(argv: list[str]) -> int:
    """CLI entry point; returns a process exit code."""
    if "--update" in argv:
        for path, recompute in BASELINES.items():
            text = json.dumps(recompute(), indent=2, sort_keys=True) + "\n"
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
        return 0
    failed = False
    for path in BASELINES:
        if not path.exists():
            print(f"missing {path}; create it with: python scripts/check_perf.py --update")
            return 1
        mismatches = baseline_diff(path)
        if mismatches:
            print(f"live values drifted from {path.name}:")
            for line in mismatches:
                print(f"  {line}")
            print("intentional? run: python scripts/check_perf.py --update")
            failed = True
        else:
            print(f"live values match {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
