"""In-process execution backend: the serial reference path.

Every handle wraps a live :class:`~repro.serving.BatchedEngine` in the
simulator's own process and runs the shared command table
(:func:`~repro.execbackend.base.serve_command`) on it directly.  Steps
never run ahead: the engine steps once inside
:meth:`~repro.execbackend.ReplicaHandle.finish_step`, at exactly the
moment the simulator processes the outcome, so the simulator opens no
step windows on this backend, and every router and control-plane
observation reads what the last processed command returned, as on the
multiprocess backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..serving import BatchedEngine
from .base import ExecutionBackend, ReplicaHandle, engine_state_view, serve_command

if TYPE_CHECKING:
    from ..api import EngineSpec
    from ..model import TransformerModel

__all__ = ["LocalReplicaHandle", "SerialBackend"]


class LocalReplicaHandle(ReplicaHandle):
    """Handle over an engine living in the simulator's process."""

    def __init__(self, engine: BatchedEngine) -> None:
        super().__init__(engine_state_view(engine))
        self._engine = engine

    @property
    def engine(self) -> BatchedEngine:
        """The wrapped live engine (serial-backend only)."""
        return self._engine

    def _call(self, command: str, *args: object):
        """Run the command on the in-process engine."""
        return serve_command(self._engine, command, args)


def build_engine(model: "TransformerModel", spec: "EngineSpec") -> BatchedEngine:
    """One replica engine from its spec (the single construction recipe).

    Shared by both backends — the multiprocess worker runs exactly this
    against its shared-memory model, which is what makes worker engines
    byte-equivalent to in-process ones.
    """
    return BatchedEngine(
        model,
        selector=spec.build_policy(),
        generation_config=spec.generation_config(),
        scheduler_config=spec.scheduler_config(),
        tiers=spec.tiers,
        speculation=spec.speculation_config(),
    )


class SerialBackend(ExecutionBackend):
    """All replica engines in-process, stepping one at a time."""

    name = "serial"

    def __init__(self, model: "TransformerModel", spec: "EngineSpec") -> None:
        self._model = model
        self._spec = spec

    def create_handle(self) -> LocalReplicaHandle:
        """A fresh in-process engine behind a local handle."""
        return LocalReplicaHandle(build_engine(self._model, self._spec))

    def describe(self) -> dict[str, object]:
        """Identity of this backend (for reports)."""
        return {"name": self.name, "workers": 0}
