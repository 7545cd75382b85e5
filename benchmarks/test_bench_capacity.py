"""Capacity benchmark: the headline tiered-memory claim, pinned.

Under identical GPU→host→SSD tier budgets (``gpu=320KiB, host=448KiB,
ssd=4MiB``), the host-resident ClusterKV policy sustains the pinned
(context 192 × concurrency 3) serving point — paying for its SSD spills
in virtual-clock latency — while the dense ``full`` baseline cannot even
admit it: the GPU tier raises :class:`~repro.memory.CapacityExceeded` at
admission.  The whole sweep is seeded arithmetic on the perfmodel clock,
so the report is byte-reproducible and the checked-in
``BENCH_capacity.json`` (enforced by ``scripts/check_perf.py`` and CI)
pins every number in it.
"""

import json
from pathlib import Path

from repro.capacity import (
    format_capacity_report,
    run_capacity_bench,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_capacity.json"

# The pinned design point of the headline claim.
CONTEXT = 192
CONCURRENCY = 3


def test_bench_capacity_frontier():
    """ClusterKV sustains the pinned point where ``full`` exhausts the GPU."""
    report = run_capacity_bench()
    print()
    print(format_capacity_report(report))

    by_key = {
        (p.policy, p.context_tokens, p.concurrency): p for p in report.points
    }
    clusterkv = by_key[("clusterkv", CONTEXT, CONCURRENCY)]
    full = by_key[("full", CONTEXT, CONCURRENCY)]

    # The headline: same budgets, opposite verdicts.
    assert clusterkv.feasible
    assert not full.feasible
    assert full.failed_tier == "gpu"

    # The survivor paid for it: real SSD traffic in both directions,
    # priced into the virtual-clock latency of the run.
    assert clusterkv.transfers["h2s"] > 0
    assert clusterkv.transfers["s2h"] > 0
    assert clusterkv.duration_s > 0.0
    assert clusterkv.peak_bytes["ssd"] > 0

    # Tier peaks respect the configured budgets at every probed point.
    for point in report.points:
        assert point.peak_bytes["gpu"] <= 320 * 1024
        assert point.peak_bytes["cpu"] <= 448 * 1024
        assert point.peak_bytes["ssd"] <= 4 * 1024**2

    # Frontier semantics: clusterkv holds the full grid; full degrades
    # with concurrency.
    assert report.frontier["clusterkv"] == {"1": 192, "2": 192, "3": 192}
    assert report.frontier["full"] == {"1": 192, "2": 128, "3": 64}


def test_bench_capacity_byte_reproducible():
    """Two sweeps emit byte-identical JSON, matching BENCH_capacity.json."""
    report = run_capacity_bench()
    again = run_capacity_bench()
    assert report.to_json() == again.to_json()

    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert report.to_dict() == baseline["deterministic"]
