"""Batched multi-request serving with continuous scheduling.

This subsystem turns the single-sequence reproduction into a small serving
engine: a :class:`RequestQueue` of pending prompts, a
:class:`ContinuousBatchingScheduler` that admits prefills under batch-slot
and global KV-memory budgets, and a :class:`BatchedEngine` that interleaves
per-step decodes across all active sequences, retiring requests as they
finish.  Every request can carry its own compression policy (a
:class:`~repro.policies.PolicySpec`, resolved through the policy registry
at submission), so one engine serves heterogeneous traffic — each
request's tokens are those of serving it under that policy alone (a
request narrower than its batch's widest selection can move its
log-probabilities in the last bits).
All requests share one transformer, one
:class:`~repro.memory.OffloadManager` (so tier usage and transfer traffic
are accounted globally) and one
:class:`~repro.model.generation.EngineCore`, whose batched decode path is
also the single-sequence path — a batch of one is bit-identical to
:class:`repro.model.InferenceEngine`.
"""

from .engine import (
    BatchedEngine,
    EngineSnapshot,
    ServeReport,
    StepRequestTrace,
    StepTrace,
    serve_prompts,
)
from .queue import RequestQueue
from .request import (
    SLO_CLASSES,
    ActiveRequest,
    CompletedRequest,
    RequestStatus,
    ServeRequest,
)
from .scheduler import ContinuousBatchingScheduler, SchedulerConfig

__all__ = [
    "SLO_CLASSES",
    "BatchedEngine",
    "EngineSnapshot",
    "ServeReport",
    "StepTrace",
    "StepRequestTrace",
    "serve_prompts",
    "RequestQueue",
    "ServeRequest",
    "ActiveRequest",
    "CompletedRequest",
    "RequestStatus",
    "ContinuousBatchingScheduler",
    "SchedulerConfig",
]
