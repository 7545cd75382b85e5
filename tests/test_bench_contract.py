"""The wall-clock benchmark's hooks into ``src/`` still exist.

``bench/trace.py`` wraps the callables named in its ``TARGETS`` table from
the outside; a rename under ``src/`` would otherwise surface only when
someone runs ``bench/run.py --trace 1``.  Read-only use of ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PATH = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def _trace_targets():
    # Loaded by path under a private name: the file shadows the standard
    # library's ``trace`` module.
    spec = importlib.util.spec_from_file_location("_bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,path", sorted({(target[0], target[1]) for target in _trace_targets()})
)
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
