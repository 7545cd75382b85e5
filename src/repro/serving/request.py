"""Request objects of the batched serving engine.

A :class:`ServeRequest` is what a client submits: a prompt plus optional
per-request overrides — including its own KV compression policy as a
declarative :class:`~repro.policies.PolicySpec`, so one engine can serve a
batch mixing ClusterKV, Quest, StreamingLLM and full-KV traffic.  It is
the one request record of the whole stack: generated workloads and
replayed traces (:mod:`repro.traffic`), the fleet simulator's routing and
re-dispatch (:mod:`repro.cluster`) and checkpoints
(:class:`~repro.seqstate.SequenceCheckpoint`) all carry it.  While a
request is in flight the engine wraps it in an :class:`ActiveRequest` that
carries the mutable decoding state (the
:class:`~repro.model.generation.SequenceState`) and every engine resource
the request holds; once it retires the engine
emits a :class:`CompletedRequest` pairing the original request with its
:class:`~repro.model.generation.GenerationResult` and scheduling timeline.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..model.generation import GenerationResult, SequenceState
from ..policies import PolicySpec
from ..prefixcache import PrefixMatch

__all__ = [
    "SLO_CLASSES",
    "RequestStatus",
    "ServeRequest",
    "ActiveRequest",
    "CompletedRequest",
]


class RequestStatus(enum.Enum):
    """Lifecycle stage of a serving request."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    FINISHED = "finished"


#: Valid values of :attr:`ServeRequest.slo_class`.
SLO_CLASSES = ("interactive", "batch")


@dataclass(frozen=True, eq=False)
class ServeRequest:
    """One client request to the batched serving engine.

    Two requests are equal when their prompts hold the same token ids and
    every other field is equal; like any mutable-array holder, a request
    is not hashable.

    Attributes
    ----------
    request_id:
        Unique identifier; assigned by the engine at submission when the
        caller does not provide one.
    prompt_ids:
        Prompt token ids, shape ``(L,)``, dtype int64.
    max_new_tokens:
        Per-request decode length; ``None`` falls back to the engine's
        :class:`~repro.model.config.GenerationConfig.max_new_tokens`.
    seed:
        Per-request sampling seed; ``None`` falls back to the engine
        configuration (only relevant for non-greedy decoding).
    policy:
        Per-request KV compression policy as a declarative
        :class:`~repro.policies.PolicySpec`; ``None`` falls back to the
        engine's default selector.  :meth:`repro.serving.BatchedEngine.
        submit` resolves and validates the spec through the policy
        registry eagerly (typos fail at submission); the engine builds the
        request's selector factory from it again at admission.
    arrival_order:
        Monotonically increasing submission index, assigned by the queue.
        The FCFS scheduler admits strictly in this order.
    arrival_time_s:
        Arrival timestamp in seconds on the caller's clock (the virtual
        clock of the :mod:`repro.traffic` simulator, or wall time).  The
        engine never reads it; it flows through to
        :class:`CompletedRequest` so latency metrics (TTFT, queue wait)
        can be computed against the arrival instant.  Must be finite
        and non-negative; defaults to 0.0 for closed-loop callers that do not
        track time.
    slo_class:
        Service class of the request: ``"interactive"`` (latency-bound,
        never preempted) or ``"batch"`` (throughput work that a preempting
        scheduler may checkpoint under KV pressure and resume later).
        Class-aware admission, routing and autoscaling read it in the
        cluster layer.
    """

    request_id: str
    prompt_ids: np.ndarray
    max_new_tokens: int | None = None
    seed: int | None = None
    policy: PolicySpec | None = None
    arrival_order: int = 0
    arrival_time_s: float = 0.0
    slo_class: str = "interactive"

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt_ids, dtype=np.int64)
        if prompt.ndim != 1 or prompt.shape[0] == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D array")
        object.__setattr__(self, "prompt_ids", prompt)
        if self.max_new_tokens is not None and self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive when set")
        if not 0 <= self.arrival_time_s < math.inf:  # also refuses NaN
            raise ValueError("arrival_time_s must be non-negative and finite")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"slo_class must be one of {SLO_CLASSES}, got {self.slo_class!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServeRequest):
            return NotImplemented
        return all(
            getattr(self, item.name) == getattr(other, item.name)
            for item in fields(self)
            if item.name != "prompt_ids"
        ) and np.array_equal(self.prompt_ids, other.prompt_ids)

    def prompt_length(self) -> int:
        """Number of prompt tokens."""
        return int(self.prompt_ids.shape[0])


@dataclass
class ActiveRequest:
    """A request currently holding a slot in the decode batch.

    The object owns every engine resource held for the request — its KV
    sequence, budget reservation, GPU staging and prefix-cache match.
    :class:`repro.serving.BatchedEngine` builds it on the one enter path
    (admission or restore) and frees those resources on the one leave
    path (retirement or preemption), zeroing the fields that name them.

    Attributes
    ----------
    request:
        The originating :class:`ServeRequest`.
    sequence:
        Per-request decoding state (KV store, selector states, RNG).
    max_new_tokens:
        Resolved decode length of this request.
    current_token:
        Most recently sampled token, fed back at the next decode step.
    decode_step:
        Zero-based index of the next decode step of *this* request (requests
        admitted at different engine steps sit at different decode steps).
    admitted_at_step:
        Engine step at which the request was admitted (prefilled).
    first_token_step:
        Engine step at which the first token was sampled.  Monolithic
        prefill samples the first token in the admission step, so there it
        equals ``admitted_at_step``; under chunked prefill the last chunk
        may land several steps later and the two diverge.
    prefill_pos:
        Number of prompt tokens prefilled so far (chunked prefill advances
        this until it reaches the prompt length; monolithic prefill jumps
        it in one step).
    status:
        Current lifecycle stage.
    reserved_bytes:
        Projected lifetime KV footprint reserved against the scheduler's
        memory budget.
    staging_bytes:
        GPU staging allocation of a CPU-resident request in capacity mode
        (``0`` when none is held).
    prefix_match:
        The prefix-cache match whose blocks the request attached; holding
        it keeps those blocks from eviction.  ``None`` on a miss.
    """

    request: ServeRequest
    sequence: SequenceState
    max_new_tokens: int
    current_token: int = -1
    decode_step: int = 0
    admitted_at_step: int = 0
    first_token_step: int = -1
    prefill_pos: int = 0
    status: RequestStatus = RequestStatus.PREFILLING
    reserved_bytes: int = 0
    staging_bytes: int = 0
    prefix_match: PrefixMatch | None = None

    @property
    def tokens_generated(self) -> int:
        """Number of tokens emitted so far."""
        return len(self.sequence.result.output_ids)

    @property
    def is_finished(self) -> bool:
        """Whether the request has emitted all its tokens."""
        return self.tokens_generated >= self.max_new_tokens


@dataclass
class CompletedRequest:
    """A retired request together with its result and scheduling timeline.

    ``queue_delay_steps`` counts engine steps between submission and
    admission — the head-of-line latency the fairness tests assert on.
    ``first_token_step`` and ``finish_step`` are the step-resolution timing
    points the traffic layer converts into TTFT/TPOT seconds.
    """

    request: ServeRequest
    result: GenerationResult
    admitted_at_step: int
    finished_at_step: int
    submitted_at_step: int = 0
    first_token_step: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def queue_delay_steps(self) -> int:
        """Engine steps the request spent waiting in the queue."""
        return self.admitted_at_step - self.submitted_at_step

    @property
    def finish_step(self) -> int:
        """Engine step at which the request retired (= ``finished_at_step``)."""
        return self.finished_at_step

    @property
    def arrival_time_s(self) -> float:
        """Arrival timestamp of the originating request (seconds)."""
        return self.request.arrival_time_s
