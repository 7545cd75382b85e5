#!/usr/bin/env python
"""Public-API surface check for the ``repro`` package.

Renders every ``__all__`` export of the public modules — with call
signatures for callables, the kind and registered names for registries
and reprs for simple constants — and
compares the result against the committed snapshot
``scripts/api_surface.txt``.  An accidental rename, a removed export or a
changed signature therefore fails tier-1
(``tests/test_public_api.py``) instead of silently breaking downstream
users; an *intentional* API change is one ``--update`` away:

    python scripts/check_api.py            # verify against the snapshot
    python scripts/check_api.py --update   # rewrite the snapshot

Run with ``src`` on ``sys.path`` (the script inserts it itself when
needed), in the style of ``scripts/check_docs.py``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = REPO_ROOT / "scripts" / "api_surface.txt"

# Modules whose ``__all__`` constitutes the supported public surface.
PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.policies",
    "repro.baselines",
    "repro.core",
    "repro.model",
    "repro.memory",
    "repro.capacity",
    "repro.metrics",
    "repro.perf",
    "repro.serving",
    "repro.execbackend",
    "repro.specdec",
    "repro.seqstate",
    "repro.prefixcache",
    "repro.traffic",
    "repro.cluster",
    "repro.experiments",
    "repro.perfmodel",
    "repro.workloads",
    "repro.analysis",
)


def _describe_object(obj: object) -> str:
    """One deterministic line fragment describing an exported object."""
    from repro.registry import Registry

    if isinstance(obj, Registry):
        return f": Registry({obj.kind!r}: {', '.join(obj.names())})"
    if callable(obj):
        try:
            return str(inspect.signature(obj))
        except (ValueError, TypeError):
            return "(...)"
    if isinstance(obj, (str, int, float, bool, tuple)) or obj is None:
        return f" = {obj!r}"
    return f": {type(obj).__name__}"


def api_surface() -> list[str]:
    """Render the public API surface, one sorted line per export."""
    lines: list[str] = []
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", ())
        for name in sorted(exported):
            obj = getattr(module, name)
            lines.append(f"{module_name}.{name}{_describe_object(obj)}")
    return lines


def load_snapshot() -> list[str]:
    """The committed surface snapshot (empty when missing)."""
    if not SNAPSHOT_PATH.exists():
        return []
    return SNAPSHOT_PATH.read_text(encoding="utf-8").splitlines()


def surface_diff() -> tuple[list[str], list[str]]:
    """(missing, unexpected) lines of the current surface vs. the snapshot."""
    current = api_surface()
    snapshot = load_snapshot()
    missing = sorted(set(snapshot) - set(current))
    unexpected = sorted(set(current) - set(snapshot))
    return missing, unexpected


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: verify (default) or ``--update`` the snapshot."""
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--update"]:
        SNAPSHOT_PATH.write_text("\n".join(api_surface()) + "\n", encoding="utf-8")
        print(f"wrote {SNAPSHOT_PATH}")
        return 0
    if argv:
        print(__doc__)
        return 2
    missing, unexpected = surface_diff()
    if not missing and not unexpected:
        print(f"public API surface OK ({len(api_surface())} exports)")
        return 0
    if missing:
        print(f"{len(missing)} export(s) removed or changed:")
        for line in missing:
            print(f"  - {line}")
    if unexpected:
        print(f"{len(unexpected)} export(s) added or changed:")
        for line in unexpected:
            print(f"  + {line}")
    print("intentional? run: python scripts/check_api.py --update")
    return 1


if __name__ == "__main__":
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
