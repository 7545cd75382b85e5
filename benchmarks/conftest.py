"""Shared configuration of the paper-figure tests.

Every test here regenerates one table or figure of the paper (or one
headline claim of the serving stack), prints the corresponding rows/series
and checks their shape or deterministic counters.  Nothing is
timed: seconds are recorded by ``bench/run.py`` alone.  Two sizes are
supported:

* the default (CI-friendly) size runs each experiment at a reduced context
  scale so the whole suite finishes in about a minute on a CPU;
* setting the environment variable ``REPRO_BENCH_FULL`` to ``1``, ``true``
  or ``yes`` (any case) switches the accuracy experiments to the default
  simulation scale used in EXPERIMENTS.md (about 16x more tokens,
  correspondingly slower).  Any other value is the CI size.

The performance-model tests (Fig. 12/13) always run at the paper's true
scale — they are analytic and fast.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.experiments import ContextScale, Fig9Config
from repro.experiments.fig9_longbench import Fig9Result, run_fig9

FULL_SIZE = os.environ.get("REPRO_BENCH_FULL", "").lower() in ("1", "true", "yes")

# sha256(text)[:16] of the text the slow accuracy tests print, at the CI size,
# pinned at commit 21914e3.  ``repro fig9`` / ``fig10`` / ``fig11`` print the
# same formatters but take 3-16 s at CLI scale, too slow to pin their stdout
# in tests/test_cli.py; these digests cost no extra compute.
FORMAT_GOLDEN = {
    "fig9": "f6f42d3d2a5c095c",
    "table1": "8a600492272790d5",
    "fig10": "e7a082f5521ecacc",
    "fig11a": "90368d207157c977",
    "fig11b": "e2e7487ee7d260e3",
}


def check_format_golden(name: str, text: str) -> None:
    """Assert that a figure's formatted text is the pinned one (CI size only)."""
    if not FULL_SIZE:
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == FORMAT_GOLDEN[name], f"{name} text moved: {digest}"


@pytest.fixture(scope="session")
def bench_scale() -> ContextScale:
    """Context scale used by the accuracy tests."""
    return ContextScale(16) if FULL_SIZE else ContextScale(64)


@pytest.fixture(scope="session")
def bench_samples() -> int:
    """Number of samples per task used by the accuracy tests."""
    return 4 if FULL_SIZE else 1


@pytest.fixture(scope="session")
def fig9_result(bench_scale, bench_samples) -> Fig9Result:
    """The eight-task Fig. 9 run, shared by the Fig. 9 and Table I tests."""
    return run_fig9(Fig9Config(scale=bench_scale, num_samples=bench_samples))
