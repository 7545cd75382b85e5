"""Execution backends: where replica engines live and how steps run.

The simulator drives every replica through one concrete
:class:`ReplicaHandle`, whose commands run one command table and refresh
one :class:`ReplicaStateView`; a backend supplies only the transport.
``serial`` keeps every :class:`~repro.serving.BatchedEngine` in the
simulator's process and reproduces the pre-backend simulators bit for
bit.  ``multiprocess`` hosts engines in a persistent worker pool sharing
one read-only weight arena, where each replica runs ahead in a step
window bounded by the simulator's own event gate, overlapping step
compute across cores while keeping reports, tokens, logprobs and GEMM
counters byte-identical (the determinism argument lives in
:mod:`repro.execbackend.base`).
"""

from .base import (
    ExecutionBackend,
    ReplicaHandle,
    ReplicaStateView,
    StepOutcome,
    StepWindow,
    StepWindowOpen,
    WorkerCrashed,
    engine_offload_stats,
    engine_state_view,
)
from .mp import MultiprocessBackend
from .serial import LocalReplicaHandle, SerialBackend, build_engine

__all__ = [
    "ExecutionBackend",
    "ReplicaHandle",
    "ReplicaStateView",
    "StepOutcome",
    "StepWindow",
    "StepWindowOpen",
    "WorkerCrashed",
    "SerialBackend",
    "LocalReplicaHandle",
    "MultiprocessBackend",
    "build_engine",
    "engine_state_view",
    "engine_offload_stats",
]
