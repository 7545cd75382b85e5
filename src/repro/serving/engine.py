"""Batched multi-request serving engine with continuous batching.

:class:`BatchedEngine` drives N concurrent generation requests through the
shared :class:`~repro.model.generation.EngineCore`:

* each engine step first asks the
  :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` which queued
  requests to admit (bounded by batch slots and the global KV memory
  budget), prefills them and samples their first token;
* then one decode step runs for *all* active requests at once —
  :meth:`~repro.model.generation.EngineCore.decode_step_batch` batches the
  per-token transformer blocks across requests while KV selection and
  attention remain per-request (each request has its own cache length,
  selector state and budget accounting);
* finished requests retire immediately, releasing their KV buffers from the
  shared :class:`~repro.memory.OffloadManager` so the freed memory is
  available to the very next admission decision.

Because admitted requests join the decode batch mid-flight and retire
mid-flight, the batch composition changes continuously — no request waits
for a "generation round" to end (continuous batching, as opposed to static
batching).  A batch of size one executes exactly the operations of
:class:`~repro.model.generation.InferenceEngine`, token for token and bit
for bit.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import KVSelectorFactory
from ..baselines.full import FullKVSelector
from ..memory import OffloadManager, TierBudgets, TierKind, TransferLedger
from ..model.config import GenerationConfig
from ..model.generation import EngineCore, GenerationResult, SequenceState
from ..model.transformer import TransformerModel
from ..perf import counters
from ..policies import PolicySpec, build_policy, resolve_policy_spec
from ..prefixcache import PrefixCacheConfig, PrefixMatch, RadixPrefixCache
from ..seqstate import SequenceCheckpoint, policy_signature
from ..specdec import Drafter, SpeculationConfig
from ..specdec.verify import speculation_summary, speculative_round
from .queue import RequestQueue
from .request import ActiveRequest, CompletedRequest, RequestStatus, ServeRequest
from .scheduler import ContinuousBatchingScheduler, SchedulerConfig

__all__ = [
    "StepRequestTrace",
    "StepTrace",
    "EngineSnapshot",
    "ServeReport",
    "BatchedEngine",
    "serve_prompts",
]


@dataclass(frozen=True)
class EngineSnapshot:
    """Point-in-time inventory of an engine's queued and in-flight work.

    The snapshot is the failure/drain hook of the cluster layer: it carries
    exactly what is needed to re-dispatch every request the engine holds —
    the original :class:`~repro.serving.request.ServeRequest` objects
    (prompt, per-request policy, seed, decode length, arrival instant) plus
    how many tokens each active request had already decoded, which is the
    work lost if the replica dies.  Because decoding is deterministic given
    the request alone, resubmitting a snapshot entry from its prompt
    reproduces the original output token for token.

    Attributes
    ----------
    queued:
        Requests admitted to the engine queue but not yet prefilled.
    active:
        ``(request, tokens_generated)`` pairs for the in-flight requests,
        in admission order.
    """

    queued: tuple[ServeRequest, ...] = ()
    active: tuple[tuple[ServeRequest, int], ...] = ()

    @property
    def request_ids(self) -> tuple[str, ...]:
        """Ids of every request held by the engine, queued first."""
        return tuple(r.request_id for r in self.queued) + tuple(
            r.request_id for r, _ in self.active
        )

    @property
    def tokens_in_flight(self) -> int:
        """Decoded tokens the active requests hold (lost on a kill)."""
        return sum(tokens for _, tokens in self.active)


@dataclass(frozen=True)
class StepRequestTrace:
    """Per-request slice of one engine step, for step-cost accounting.

    Attributes
    ----------
    request_id:
        The request this entry belongs to.
    policy_name:
        Name of the selector factory actually serving the request
        (``"clusterkv"``, ``"full"``, ...), which is what a cost model
        needs to charge the right selection/transfer overheads.
    context_length:
        For a prefill entry, the *total* prompt length; for a decode
        entry, the KV context length attended at this step (after
        appending the new token).
    budget:
        The KV budget the request decodes under (``None`` when the request
        attends the full context — either the engine has no budget or the
        request's policy is ``full``).
    cache_hit_rate:
        Live token-level hit rate of the request's cluster caches
        (``None`` for selectors without a cache), so step costs can charge
        only the cache-missed KV transfer bytes.
    chunk_start / chunk_tokens:
        For a prefill entry under chunked prefill, the prompt range
        ``[chunk_start, chunk_start + chunk_tokens)`` processed at this
        step; a monolithic prefill carries ``(0, context_length)``.
        Decode entries leave ``chunk_tokens`` as ``None``.
    """

    request_id: str
    policy_name: str
    context_length: int
    budget: int | None
    cache_hit_rate: float | None
    chunk_start: int = 0
    chunk_tokens: int | None = None


@dataclass
class StepTrace:
    """What happened during one :meth:`BatchedEngine.step` call.

    The trace is the engine's per-step timing hook: it carries enough
    information — who was prefilled at which prompt length, who decoded at
    which context length under which policy — for an external clock (the
    :mod:`repro.traffic` virtual-clock simulator charging
    :class:`repro.perfmodel.StepCostModel` costs, or a wall-clock fallback)
    to assign the step a duration without re-deriving engine state.
    """

    engine_step: int
    prefills: list[StepRequestTrace] = field(default_factory=list)
    decodes: list[StepRequestTrace] = field(default_factory=list)
    # Prefix-cache attaches of this step: one entry per admitted request
    # that adopted cached KV, with ``context_length`` equal to the number
    # of attached tokens (priced as a KV transfer, not as prefill compute).
    attaches: list[StepRequestTrace] = field(default_factory=list)
    wall_seconds: float = 0.0
    # KV tokens the host->SSD pager moved during this step (capacity mode
    # only; zero otherwise).  The perfmodel clock prices them at NVMe
    # bandwidth on top of the step's compute and PCIe costs.
    spilled_tokens: int = 0
    recalled_tokens: int = 0


@dataclass
class ServeReport:
    """Aggregate outcome of draining the request queue once.

    Attributes
    ----------
    completed:
        Retired requests in retirement order, each with its
        :class:`~repro.model.generation.GenerationResult`.
    engine_steps:
        Number of engine steps executed (admission + batched decode).
    total_generated_tokens:
        Tokens emitted across all requests.
    occupancy:
        Decode-batch size at every engine step; its mean is the
        continuous-batching utilisation.
    ledger:
        The shared transfer ledger covering all requests.
    peak_gpu_bytes / peak_cpu_bytes / peak_ssd_bytes:
        High-water marks of the shared memory tiers.
    wall_time_seconds:
        Wall-clock duration of the :meth:`BatchedEngine.run` call.
    prefix_cache:
        Accounting snapshot of the engine's cross-request prefix cache
        (:meth:`repro.prefixcache.RadixPrefixCache.stats`); empty when
        prefix caching is disabled.
    """

    completed: list[CompletedRequest] = field(default_factory=list)
    engine_steps: int = 0
    total_generated_tokens: int = 0
    occupancy: list[int] = field(default_factory=list)
    ledger: TransferLedger | None = None
    peak_gpu_bytes: int = 0
    peak_cpu_bytes: int = 0
    peak_ssd_bytes: int = 0
    wall_time_seconds: float = 0.0
    prefix_cache: dict[str, object] = field(default_factory=dict)

    @property
    def mean_batch_occupancy(self) -> float:
        """Average number of requests decoding per engine step."""
        if not self.occupancy:
            return 0.0
        return float(np.mean(self.occupancy))

    @property
    def tokens_per_second(self) -> float:
        """Generated-token throughput of the run (0 when untimed)."""
        if self.wall_time_seconds <= 0.0:
            return 0.0
        return self.total_generated_tokens / self.wall_time_seconds

    def results(self) -> dict[str, GenerationResult]:
        """Per-request results keyed by request id."""
        return {c.request.request_id: c.result for c in self.completed}

    def queue_waits(self) -> dict[str, int]:
        """Per-request queue wait in engine steps, keyed by request id."""
        return {c.request.request_id: c.queue_delay_steps for c in self.completed}

    def request_timings(self) -> dict[str, dict[str, float]]:
        """Per-request timing points, keyed by request id.

        Each entry carries the request's ``arrival_time_s`` (seconds, as
        stamped at submission) and its step-resolution lifecycle points:
        ``submitted_step``, ``admitted_step``, ``first_token_step``,
        ``finish_step`` and the derived ``queue_wait_steps``.  The traffic
        simulator converts these step indices into seconds on its virtual
        clock; callers of a bare :class:`BatchedEngine` read them as step
        counts.
        """
        return {
            c.request.request_id: {
                "arrival_time_s": c.request.arrival_time_s,
                "submitted_step": float(c.submitted_at_step),
                "admitted_step": float(c.admitted_at_step),
                "first_token_step": float(c.first_token_step),
                "finish_step": float(c.finished_at_step),
                "queue_wait_steps": float(c.queue_delay_steps),
            }
            for c in self.completed
        }

    def policy_descriptions(self) -> dict[str, dict[str, object]]:
        """Full selector configuration of every request, keyed by id.

        Each value is the ``describe()`` output of the selector factory
        that actually served the request (engine default or per-request
        policy), embedded for reproducibility: the report alone suffices
        to rebuild every request's policy —
        ``build_policy(policy_spec_from_description(description))``
        (both in :mod:`repro.policies`).
        """
        return {c.request.request_id: c.result.method_config for c in self.completed}

    def speculation(self) -> dict[str, float]:
        """Speculative-decoding accounting summed over every completed request.

        See :func:`repro.specdec.verify.speculation_summary` for the keys.
        """
        return speculation_summary(c.result for c in self.completed)


class BatchedEngine:
    """Serves many generation requests concurrently over one model.

    An admitted request is one :class:`~repro.serving.request.ActiveRequest`
    that owns everything the engine holds for it: its KV sequence, budget
    reservation, GPU staging (capacity mode) and prefix-cache match.  It
    has one way in — admission from the queue and :meth:`restore_request`
    both enter through ``_enter`` — and one way out: retirement and
    ``checkpoint_request(keep=False)`` both leave through ``_leave``,
    which frees all of it.  The only per-request record the engine keeps
    by id is the submission step; it outlives a preemption, so a resumed
    request keeps its original queue wait.

    Parameters
    ----------
    model:
        The shared transformer (weights are read-only across requests).
    selector:
        Default KV compression method: a factory instance, a
        :class:`~repro.policies.PolicySpec` or a policy string resolved
        through the registry.  Used for requests submitted without their
        own ``policy``; fresh per-layer selector states are created for
        every request, so one factory serves all of them.
    generation_config:
        Engine-wide decoding configuration.  ``max_new_tokens`` and ``seed``
        can be overridden per request at submission.
    scheduler_config:
        Admission policy (batch slots, prefill rate, global KV budget).
    offload:
        Shared memory-tier manager; defaults to a fresh
        :class:`~repro.memory.OffloadManager`.  All requests register their
        KV buffers here, which is what makes the scheduler's KV budget and
        the report's peak-bytes numbers global rather than per-request.
    tiers:
        Optional :class:`~repro.memory.TierBudgets` switching the engine
        into *capacity mode*: the offload manager is built with bounded
        GPU/host/SSD tiers, CPU-resident requests additionally reserve a
        GPU staging allocation for the KV they recall each step, a
        host->SSD pager spills cold cluster pages under host pressure, and
        a step that genuinely cannot fit raises
        :class:`~repro.memory.CapacityExceeded` instead of silently
        growing.  ``None`` (the default) keeps the historical unbounded
        behaviour bit for bit.
    speculation:
        Optional :class:`~repro.specdec.SpeculationConfig` switching the
        decode batch into *speculative decoding*: each engine step the
        configured drafter proposes up to ``k`` candidate tokens per
        decoding request and one verify round
        (:func:`repro.specdec.verify.speculative_round`) scores them
        position by position, accepting a prefix and stopping at the
        first miss.
        Accepted runs retire several tokens per engine step, so a
        predictable workload finishes in fewer steps.  Greedy outputs
        (tokens and log-probabilities) are bit-identical to running with
        ``speculation=None``.  Speculation rounds complete within a
        single :meth:`step` call and the drafter is stateless, so
        checkpoint/restore (:meth:`checkpoint_request`) never observes
        in-flight draft state.
    """

    def __init__(
        self,
        model: TransformerModel,
        selector: KVSelectorFactory | PolicySpec | str | None = None,
        generation_config: GenerationConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
        offload: OffloadManager | None = None,
        tiers: TierBudgets | None = None,
        speculation: SpeculationConfig | None = None,
    ) -> None:
        self.model = model
        if selector is None:
            self.selector: KVSelectorFactory = FullKVSelector()
        elif isinstance(selector, KVSelectorFactory):
            self.selector = selector
        else:
            self.selector = build_policy(selector)
        self.generation_config = generation_config or GenerationConfig()
        self.tiers = tiers
        if offload is None and tiers is not None:
            offload = tiers.build_manager()
        self.offload = offload if offload is not None else OffloadManager()
        self.spill = None
        if tiers is not None:
            # Imported lazily: repro.capacity sits above repro.serving in
            # the layering, so a module-level import would be circular.
            from ..capacity.spill import HostSpillManager

            self.spill = HostSpillManager(
                self.offload, page_tokens=tiers.spill_page_tokens
            )
        self.scheduler = ContinuousBatchingScheduler(scheduler_config)
        self.queue = RequestQueue()
        self.core = EngineCore(model, self.generation_config)
        self.speculation = speculation
        self._drafter: Drafter | None = (
            speculation.build_drafter() if speculation is not None else None
        )
        # Admitted requests, in admission order: each owns its reservation,
        # staging and prefix match (see _enter / _leave).
        self._active: list[ActiveRequest] = []
        # Submission step by request id.  Deliberately outlives a
        # preemption, so a resumed request keeps its original step.
        self._submitted_at_step: dict[str, int] = {}
        self._engine_step = 0
        self._last_occupancy = 0
        # Per-step timing hook: refreshed by every step() call, consumed by
        # external clocks (repro.traffic simulator, wall-clock fallback).
        self.last_step_trace: StepTrace | None = None
        self._kv_bytes_per_token = model.config.kv_bytes_per_token()
        self._draining = False
        # Cross-request prefix cache (engine-local): admitted requests
        # attach to the longest cached prefix of their prompt and prefill
        # only the suffix.  Disabled (None) unless the scheduler config
        # sets a capacity.
        scheduler_cfg = self.scheduler.config
        self.prefix_cache: RadixPrefixCache | None = None
        if scheduler_cfg.prefix_cache_tokens is not None:
            self.prefix_cache = RadixPrefixCache(
                PrefixCacheConfig(
                    block_tokens=scheduler_cfg.prefix_block_tokens,
                    capacity_tokens=scheduler_cfg.prefix_cache_tokens,
                    semantic_reuse=scheduler_cfg.prefix_semantic_reuse,
                )
            )
        # Checkpoints of preempted batch-class requests, FIFO; resumed by
        # _resume_preempted once slots and KV budget free up.
        self._preempted: list[SequenceCheckpoint] = []
        # Lifetime preemption count of this engine (the cluster report
        # sums it over replicas).
        self.num_preemptions_total = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_ids: np.ndarray | list[int],
        request_id: str | None = None,
        max_new_tokens: int | None = None,
        seed: int | None = None,
        policy: PolicySpec | str | None = None,
        arrival_time_s: float = 0.0,
        slo_class: str = "interactive",
    ) -> ServeRequest:
        """Enqueue a generation request; it runs at the next :meth:`step`.

        ``policy`` gives the request its own KV compression method — a
        :class:`~repro.policies.PolicySpec` or a policy string such as
        ``"quest"`` or ``"clusterkv:tokens_per_cluster=32"`` — resolved
        through the policy registry.  ``None`` uses the engine's default
        selector.  One batch can mix policies freely; each request's
        outputs are bit-identical to serving it under that policy alone.

        ``arrival_time_s`` stamps the request with its arrival instant on
        the caller's clock (virtual or wall); the engine carries it through
        to the report so latency metrics can be computed against it.
        ``slo_class`` tags the request ``"interactive"`` or ``"batch"``;
        under :attr:`SchedulerConfig.preemption` only batch-class requests
        may be preempted.

        Raises
        ------
        RuntimeError
            If the engine is draining (:meth:`drain` was called): a
            draining engine finishes the work it holds but accepts
            nothing new.
        ValueError
            If ``request_id`` was already submitted to this engine (the
            queue is the sole id issuer; ids key the shared KV buffers and
            the report), if ``policy`` names an unregistered method or has
            invalid configuration keys, if the prompt holds a token id
            outside the model's vocabulary, if the request's projected KV
            footprint exceeds the scheduler's whole memory budget, or if
            ``arrival_time_s`` is negative.  Such a request could never
            run, so it is refused before an id is issued.
        """
        if self._draining:
            raise RuntimeError(
                "engine is draining and no longer accepts submissions"
            )
        # Resolve the policy eagerly so a typo fails at submission, not
        # mid-batch at admission time.
        policy_spec = resolve_policy_spec(policy) if policy is not None else None
        self._selector_for(policy_spec)
        label = request_id if request_id is not None else "<auto>"
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        vocab_size = self.model.config.vocab_size
        if prompt.size and (prompt.min() < 0 or prompt.max() >= vocab_size):
            raise ValueError(
                f"request {label} holds token ids outside the vocabulary "
                f"[0, {vocab_size})"
            )
        budget = self.scheduler.config.kv_budget_bytes
        projected = self._projected_bytes(prompt.size, max_new_tokens)
        if budget is not None and projected > budget:
            raise ValueError(
                f"request {label} needs {projected} bytes of KV, "
                f"more than the whole budget of {budget} bytes"
            )
        request = self.queue.submit(
            prompt_ids,
            request_id=request_id,
            max_new_tokens=max_new_tokens,
            seed=seed,
            policy=policy_spec,
            arrival_time_s=arrival_time_s,
            slo_class=slo_class,
        )
        self._submitted_at_step[request.request_id] = self._engine_step
        return request

    @property
    def num_active(self) -> int:
        """Requests currently holding a decode slot."""
        return len(self._active)

    @property
    def num_preempted(self) -> int:
        """Preempted requests parked as checkpoints, awaiting resume."""
        return len(self._preempted)

    @property
    def preempted_request_ids(self) -> list[str]:
        """Ids of the parked preempted requests, in preemption order."""
        return [c.request_id for c in self._preempted]

    @property
    def active_request_ids(self) -> list[str]:
        """Ids of the in-flight requests, in admission order."""
        return [a.request.request_id for a in self._active]

    def reserved_kv_bytes(self) -> int:
        """Projected KV bytes reserved by the in-flight requests."""
        return sum(active.reserved_bytes for active in self._active)

    def queued_kv_bytes(self) -> int:
        """Projected KV bytes of the queued (not yet admitted) requests.

        Uses the same projection formula as admission, so
        ``reserved_kv_bytes() + queued_kv_bytes()`` is the engine's total
        committed-plus-pending KV demand — what a size-aware router needs
        to compare replicas while a burst is still sitting in the queues.
        """
        return sum(
            self._projected_bytes(request.prompt_length(), request.max_new_tokens)
            for request in self.queue.pending()
        )

    @property
    def is_draining(self) -> bool:
        """Whether :meth:`drain` was called on this engine."""
        return self._draining

    def drain(self) -> None:
        """Stop accepting new requests; in-flight work runs to completion.

        Draining is the graceful half of elasticity: a replica picked for
        scale-down keeps stepping until its queued and active requests
        retire normally, and only then may its owner discard it.  The
        engine itself only flips the submission gate — stepping (and who
        decides the engine is empty) stays with the caller, so the hook
        composes with any control loop.
        """
        self._draining = True

    def snapshot(self) -> EngineSnapshot:
        """Inventory the engine's queued and in-flight work (see
        :class:`EngineSnapshot`).

        The failure-injection path of the cluster layer calls this on the
        victim replica to learn which requests die with it and how much
        decoded work is lost; the same inventory serves checkpoint-style
        inspection in tests.
        """
        return EngineSnapshot(
            queued=tuple(self.queue.pending()),
            active=tuple(
                (active.request, active.tokens_generated) for active in self._active
            ),
        )

    def pop_preempted(self) -> list[SequenceCheckpoint]:
        """Take ownership of the parked preempted checkpoints.

        Empties the engine's preempted list and returns the checkpoints in
        preemption order.  The cluster layer calls this when the replica is
        drained-with-migration or killed: parked checkpoints are exactly as
        mobile as freshly taken ones, so they restore on another replica
        with no work lost.
        """
        taken = list(self._preempted)
        self._preempted.clear()
        return taken

    # ------------------------------------------------------------------
    # checkpoint / restore (migration, preemption, failure recovery)
    # ------------------------------------------------------------------
    def checkpoint_request(
        self, request_id: str, *, keep: bool = True
    ) -> SequenceCheckpoint:
        """Checkpoint one in-flight request into a mobile, restorable object.

        The returned :class:`~repro.seqstate.SequenceCheckpoint` carries the
        request itself (its decode length resolved) and its progress;
        :meth:`restore_request` on this engine or any compatible one (same
        model, generation configuration and policy configuration) resumes
        it bit-identically to never having been interrupted.  With ``keep=False`` the request is simultaneously
        removed from the engine — its decode slot, KV buffers and budget
        reservation are released (the checkpoint owns copies), which is the
        migrate-out and preempt primitive.

        Raises
        ------
        ValueError
            If ``request_id`` is not in flight.  Queued requests need no
            checkpoint — they re-dispatch from their
            :class:`~repro.serving.request.ServeRequest` unchanged.
        """
        active = self._active_by_id(request_id)
        if active is None:
            raise ValueError(f"request {request_id!r} is not in flight on this engine")
        if self.spill is not None and self.spill.managed(request_id):
            # A checkpoint copies the live KV; recall any SSD-resident
            # pages first so the copy is the true cache content.
            self.spill.recall_all(request_id, step=self._engine_step)
        checkpoint = dataclasses.replace(
            self.core.checkpoint_request(active.sequence),
            request=dataclasses.replace(
                active.request, max_new_tokens=active.max_new_tokens
            ),
            current_token=active.current_token,
            decode_step=active.decode_step,
            prefill_pos=active.prefill_pos,
            first_token_step=active.first_token_step,
            status=active.status.value,
        )
        if not keep:
            self._leave(active, RequestStatus.PREEMPTED)
        return checkpoint

    def restore_request(self, checkpoint: SequenceCheckpoint) -> ServeRequest:
        """Resume a checkpointed request directly into the active set.

        The checkpoint's :class:`~repro.serving.request.ServeRequest` is
        reused as it is (``arrival_order`` included).  It bypasses the
        queue (it was already admitted once — its id is reserved with the
        queue so uniqueness stays enforced) and rejoins exactly where it
        left off: a mid-prefill checkpoint
        continues its remaining chunks, a decoding one rejoins the decode
        batch.  The checkpoint's policy is rebuilt from its spec and
        validated against the captured policy signature; its KV registers
        on *this* engine's offload manager, which is what makes restoring
        on another replica a migration.

        Raises
        ------
        ValueError
            If the checkpoint carries no request (engine-level checkpoints
            leave it for :meth:`checkpoint_request` to fill), if a request
            with the same id is already in flight here, or if the
            checkpoint is incompatible with this engine (model / generation
            config / policy signature mismatch).
        """
        request = checkpoint.request
        if request is None:
            raise ValueError("checkpoint carries no request identity")
        request_id = request.request_id
        if self._active_by_id(request_id) is not None:
            raise ValueError(f"request {request_id!r} is already in flight")
        self.queue.reserve_id(request_id)
        sequence = self.core.restore_request(
            checkpoint,
            self._selector_for(request.policy),
            self.offload,
            buffer_prefix=f"{request_id}/",
        )
        self._enter(
            ActiveRequest(
                request=request,
                sequence=sequence,
                max_new_tokens=self._decode_length(request.max_new_tokens),
                current_token=checkpoint.current_token,
                decode_step=checkpoint.decode_step,
                first_token_step=checkpoint.first_token_step,
                prefill_pos=checkpoint.prefill_pos,
                status=RequestStatus(checkpoint.status),
            )
        )
        counters.record("seqstate.migrated_in", 1)
        return request

    def _preempt_for_queue_head(self) -> None:
        """Checkpoint batch-class requests until the interactive head fits.

        Only runs under :attr:`SchedulerConfig.preemption`, and only for an
        ``interactive`` head blocked on slots or KV budget.  Victims are the
        most recently admitted batch-class requests (LIFO — the least sunk
        work), checkpointed with ``keep=False`` and parked on the engine;
        :meth:`_resume_preempted` restores them once pressure clears.
        """
        if not self.scheduler.config.preemption:
            return
        head = self.queue.peek()
        if head is None or head.slo_class != "interactive":
            return
        projected = self._projected_bytes(head.prompt_length(), head.max_new_tokens)
        while not self._fits(projected):
            victims = [a for a in self._active if a.request.slo_class == "batch"]
            if not victims:
                return
            victim_id = victims[-1].request.request_id
            self._preempted.append(self.checkpoint_request(victim_id, keep=False))
            self.num_preemptions_total += 1
            counters.record("seqstate.preemptions", 1)

    def _resume_preempted(self) -> None:
        """Restore parked preempted requests that fit again, FIFO.

        Queued requests take precedence: as long as anything is waiting for
        first admission, parked batch work stays parked (its KV is free, so
        it costs nothing to hold), keeping interactive latency first.
        """
        while self._preempted and not self.queue:
            request = self._preempted[0].request
            assert request is not None
            projected = self._projected_bytes(request.prompt_length(), request.max_new_tokens)
            if not self._fits(projected):
                return
            self.restore_request(self._preempted.pop(0))
            counters.record("seqstate.resumes", 1)

    def in_flight_result(self, request_id: str) -> GenerationResult | None:
        """Partial result of an in-flight request, ``None`` when not active.

        The returned object is the live result under construction — its
        ``output_ids``/``output_logprobs`` grow as the engine steps.  The
        :meth:`repro.api.Session.stream` iterator reads it to emit tokens
        as they are generated.
        """
        active = self._active_by_id(request_id)
        return active.sequence.result if active is not None else None

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> list[CompletedRequest]:
        """Run one engine step: admit, prefill, batched decode, retire.

        Returns the requests that retired during this step.  Also refreshes
        :attr:`last_step_trace` with what the step did (prefilled prompts,
        decode batch composition, wall time), the hook external clocks use
        to assign the step a duration.
        """
        step_start = time.perf_counter()
        trace = StepTrace(engine_step=self._engine_step)
        self._resume_preempted()
        self._preempt_for_queue_head()
        admitted = self.scheduler.admit(
            self.queue,
            num_active=len(self._active),
            reserved_bytes=self.reserved_kv_bytes(),
            kv_bytes_per_token=self._kv_bytes_per_token,
            default_max_new_tokens=self.generation_config.max_new_tokens,
        )
        for request in admitted:
            self._admit_request(request, trace)
        self._advance_prefills(trace)

        batch = [
            a
            for a in self._active
            if a.status is RequestStatus.DECODING and not a.is_finished
        ]
        if batch:
            self._decode_round(batch, trace)
        self._last_occupancy = len(batch)

        completed = self._retire_finished()
        self._engine_step += 1
        trace.wall_seconds = time.perf_counter() - step_start
        if self.spill is not None:
            trace.spilled_tokens, trace.recalled_tokens = (
                self.spill.drain_step_counters()
            )
        self.last_step_trace = trace
        return completed

    def _trace_entry(
        self,
        active: ActiveRequest,
        context_length: int,
        chunk_start: int = 0,
        chunk_tokens: int | None = None,
    ) -> StepRequestTrace:
        """Build the :class:`StepRequestTrace` of one request at this step."""
        selector_name = active.sequence.selector.name
        budget = self.generation_config.budget
        if selector_name == "full":
            budget = None
        hit_rates = [
            state.cache_hit_rate()
            for state in active.sequence.layer_states
            if state is not None and hasattr(state, "cache_hit_rate")
        ]
        return StepRequestTrace(
            request_id=active.request.request_id,
            policy_name=selector_name,
            context_length=context_length,
            budget=budget,
            cache_hit_rate=sum(hit_rates) / len(hit_rates) if hit_rates else None,
            chunk_start=chunk_start,
            chunk_tokens=chunk_tokens,
        )

    def _decode_round(self, batch: list[ActiveRequest], trace: StepTrace) -> None:
        """One decode round over the whole decode batch.

        Each request is fed its current token plus its draft (see
        :meth:`_draft`); without a drafter every draft is empty and the
        round is one plain decode position per request.  One
        :func:`repro.specdec.verify.speculative_round` call verifies the
        candidates, dropping each request at its first miss, so a
        rejected position is never computed and each request's KV length,
        selector state and ledger reflect exactly its accepted tokens.

        The step trace records one decode entry per *drafted* position
        plus one, at the KV context length that position would attend,
        whether or not the substrate computed it: the modelled system
        verifies all ``k + 1`` positions in one fused batched pass, and
        that is what the virtual clock prices.
        """
        drafts = [self._draft(active) for active in batch]
        positions0 = [active.sequence.position for active in batch]
        emitted = speculative_round(
            self.core,
            [a.sequence for a in batch],
            [a.current_token for a in batch],
            [a.decode_step for a in batch],
            drafts,
        )
        for active, tokens, draft, position0 in zip(batch, emitted, drafts, positions0):
            active.current_token = tokens[-1]
            active.decode_step += len(tokens)
            active.sequence.result.decode_steps += len(tokens)
            for offset in range(1, len(draft) + 2):
                trace.decodes.append(self._trace_entry(active, position0 + offset))

    def _draft(self, active: ActiveRequest) -> list[int]:
        """The candidate tokens a request is fed after its current token.

        The drafter proposes up to ``min(k, remaining - 1)`` tokens from
        the request's own history (prompt plus emitted output —
        self-drafting needs no second model); the clip guarantees a fully
        accepted draft plus its bonus token never overshoots
        ``max_new_tokens``.  Empty without a drafter, on a cold history or
        with one token remaining.
        """
        if self._drafter is None:
            return []
        assert self.speculation is not None
        remaining = active.max_new_tokens - active.tokens_generated
        k_eff = min(self.speculation.k, remaining - 1)
        if k_eff < 1:
            return []
        history = active.request.prompt_ids.tolist() + list(
            active.sequence.result.output_ids
        )
        return self._drafter.propose(history, k_eff)

    def run(self) -> ServeReport:
        """Drain the queue: step until no request is queued or in flight."""
        report = ServeReport()
        start = time.perf_counter()
        while self.queue or self._active or self._preempted:
            completed = self.step()
            report.completed.extend(completed)
            report.occupancy.append(self._last_occupancy)
            report.engine_steps += 1
        report.wall_time_seconds = time.perf_counter() - start
        report.total_generated_tokens = sum(
            len(c.result.output_ids) for c in report.completed
        )
        report.ledger = self.offload.ledger
        report.peak_gpu_bytes = self.offload.gpu.peak_bytes
        report.peak_cpu_bytes = self.offload.cpu.peak_bytes
        report.peak_ssd_bytes = self.offload.ssd.peak_bytes
        report.prefix_cache = self.prefix_cache_stats()
        return report

    def prefix_cache_stats(self) -> dict[str, object]:
        """Accounting snapshot of the prefix cache; empty when disabled."""
        if self.prefix_cache is None:
            return {}
        return self.prefix_cache.stats()

    # ------------------------------------------------------------------
    # capacity mode (bounded memory tiers)
    # ------------------------------------------------------------------
    def _staging_nbytes(self, active: ActiveRequest) -> int:
        """Projected GPU working set of one CPU-resident request.

        Full-attention layers stage their whole projected context on the
        GPU every step; compressed layers stage at most the KV budget
        (the whole context when the engine runs without a budget).  This
        is what makes the GPU frontier honest for host-resident policies:
        admission fails when the *recall* working sets no longer fit, not
        only when whole caches do.
        """
        store = active.sequence.kv_store
        per_layer_token = store.token_nbytes()
        n_layers = self.model.config.n_layers
        full_layers = min(self.generation_config.num_full_layers, n_layers)
        projected = active.request.prompt_length() + active.max_new_tokens
        budget = self.generation_config.budget
        selected = projected if budget is None else min(budget, projected)
        return per_layer_token * (
            full_layers * projected + (n_layers - full_layers) * selected
        )

    def check_memory_invariants(self) -> dict[str, int]:
        """Reconcile tier accounting against the engine's live KV buffers.

        Delegates to :meth:`repro.memory.OffloadManager.check_invariants`
        with the active requests' stores and the engine's staging
        reservations: every live buffer registered at its true size, no
        orphan registrations, tiers internally consistent.  Returns the
        per-tier used-byte totals; raises
        :class:`~repro.memory.MemoryLedgerDrift` on any discrepancy.
        """
        stores = [active.sequence.kv_store for active in self._active]
        staging = {
            f"{active.request.request_id}/staging": active.staging_bytes
            for active in self._active
            if active.staging_bytes
        }
        return self.offload.check_invariants(stores, extra_allocations=staging)

    # ------------------------------------------------------------------
    # request lifecycle: one way in, one way out
    # ------------------------------------------------------------------
    def _selector_for(self, policy: PolicySpec | None) -> KVSelectorFactory:
        """The selector factory serving ``policy`` (``None``: the engine default)."""
        return self.selector if policy is None else build_policy(policy)

    def _decode_length(self, max_new_tokens: int | None) -> int:
        """A request's decode length (``None``: the engine's default)."""
        if max_new_tokens is None:
            return self.generation_config.max_new_tokens
        return max_new_tokens

    def _projected_bytes(self, prompt_length: int, max_new_tokens: int | None) -> int:
        """The scheduler's lifetime KV projection, on this engine's model."""
        return self.scheduler.projected_bytes(
            prompt_length,
            max_new_tokens,
            self._kv_bytes_per_token,
            self.generation_config.max_new_tokens,
        )

    def _fits(self, projected: int) -> bool:
        """The scheduler's slot-and-budget test for one more request now."""
        return self.scheduler.fits(len(self._active), self.reserved_kv_bytes(), projected)

    def _active_by_id(self, request_id: str) -> ActiveRequest | None:
        """The in-flight request with ``request_id``, ``None`` when not active."""
        return next((a for a in self._active if a.request.request_id == request_id), None)

    def _enter(self, active: ActiveRequest) -> None:
        """The one way in, for admission and :meth:`restore_request` alike.

        Stamps the admission step, reserves the request's projected KV
        bytes and takes a decode slot.  In capacity mode a CPU-resident
        request also reserves its GPU staging working set — raising
        :class:`~repro.memory.CapacityExceeded` when the GPU tier cannot
        hold it, the admission-time capacity wall — and hands its
        compressed layers to the SSD pager.
        """
        request_id = active.request.request_id
        active.admitted_at_step = self._engine_step
        active.reserved_bytes = self._projected_bytes(
            active.request.prompt_length(), active.max_new_tokens
        )
        store = active.sequence.kv_store
        if self.tiers is not None and store.residency is TierKind.CPU:
            active.staging_bytes = self._staging_nbytes(active)
            self.offload.register(
                f"{request_id}/staging", active.staging_bytes, TierKind.GPU
            )
            if self.spill is not None:
                n_layers = self.model.config.n_layers
                full_layers = min(self.generation_config.num_full_layers, n_layers)
                self.spill.manage(request_id, store, tuple(range(full_layers, n_layers)))
        self._submitted_at_step.setdefault(request_id, self._engine_step)
        self._active.append(active)

    def _leave(self, active: ActiveRequest, status: RequestStatus) -> None:
        """The one way out, for retirement and ``checkpoint_request(keep=False)``.

        Frees everything the request owns — its decode slot, GPU staging
        and pager registration, KV buffers, budget reservation and
        prefix-cache match (so the cache may evict those blocks again).
        """
        self._active = [a for a in self._active if a is not active]
        active.status = status
        request_id = active.request.request_id
        if active.staging_bytes:
            self.offload.release(f"{request_id}/staging")
            active.staging_bytes = 0
        if self.spill is not None:
            self.spill.unmanage(request_id)
        active.sequence.release()
        active.reserved_bytes = 0
        if active.prefix_match is not None:
            assert self.prefix_cache is not None
            self.prefix_cache.release(active.prefix_match)
            active.prefix_match = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit_request(self, request: ServeRequest, trace: StepTrace) -> None:
        """Create the decoding state of an admitted request (no prefill yet).

        With the prefix cache enabled, the request is matched against the
        radix tree here: on a hit the cached KV of the longest shared
        prefix is attached (and, under semantic reuse, the prefix's
        per-policy segment state restored), so the subsequent
        :meth:`_advance_prefills` only prefills the prompt suffix.  The
        attach is recorded on ``trace.attaches`` for the step-cost model.
        """
        sequence = SequenceState(
            self.model,
            self._selector_for(request.policy),
            self.generation_config,
            self.offload,
            buffer_prefix=f"{request.request_id}/",
            seed=request.seed,
        )
        active = ActiveRequest(
            request=request,
            sequence=sequence,
            max_new_tokens=self._decode_length(request.max_new_tokens),
        )
        self._enter(active)
        if self.prefix_cache is not None:
            match = self.prefix_cache.match(request.prompt_ids)
            if match is not None:
                self.core.attach_prefix(sequence, request.prompt_ids, match.layer_blocks())
                if self.prefix_cache.config.semantic_reuse:
                    self._restore_semantic(sequence, match)
                active.prefill_pos = match.num_tokens
                active.prefix_match = match
                trace.attaches.append(self._trace_entry(active, match.num_tokens))
                counters.record("prefix_cache.attached_tokens", match.num_tokens)

    def _restore_semantic(self, sequence: SequenceState, match: PrefixMatch) -> None:
        """Hand cached per-policy segment state to the sequence's selectors."""
        segments = match.semantic_segments(policy_signature(sequence.selector))
        if not segments:
            return
        per_layer: dict[int, dict[tuple[int, int], object]] = {}
        for (layer_idx, seg_start, seg_end), payload in segments.items():
            per_layer.setdefault(layer_idx, {})[(seg_start, seg_end)] = payload
        for layer_idx, spans in per_layer.items():
            state = sequence.layer_states[layer_idx]
            if state is not None:
                state.restore_prefix_state(spans)

    def _cache_insert(self, sequence: SequenceState, prompt_ids: np.ndarray) -> None:
        """Insert a freshly prefilled prompt's whole blocks into the cache.

        Called when the final prefill chunk lands — the KV store holds
        exactly the prompt's KV at that instant.  Under semantic reuse the
        selectors' exportable segment state rides along, keyed by the
        request's policy signature.
        """
        assert self.prefix_cache is not None
        length = int(prompt_ids.shape[0])
        block = self.prefix_cache.config.block_tokens
        whole = (length // block) * block
        if whole <= 0:
            return
        layer_kv = [
            (
                sequence.kv_store.keys(layer_idx)[:, :whole, :],
                sequence.kv_store.values(layer_idx)[:, :whole, :],
            )
            for layer_idx in range(self.model.config.n_layers)
        ]
        semantic = None
        if self.prefix_cache.config.semantic_reuse:
            exported: dict[tuple[int, int, int], object] = {}
            for layer_idx, state in enumerate(sequence.layer_states):
                if state is None:
                    continue
                for (seg_start, seg_end), payload in state.export_prefix_state(
                    whole
                ).items():
                    exported[(layer_idx, seg_start, seg_end)] = payload
            if exported:
                semantic = {policy_signature(sequence.selector): exported}
        self.prefix_cache.insert(prompt_ids, layer_kv, semantic=semantic)

    def _advance_prefills(self, trace: StepTrace) -> None:
        """Advance every still-prefilling request within the chunk budget.

        Without a ``prefill_chunk_tokens`` budget each admitted request is
        prefilled whole (monolithic prefill, the historical behaviour).
        With a budget, at most that many prompt tokens are processed per
        engine step across the prefilling requests, in admission order —
        so a long prompt is spread over several steps and interleaves with
        the decode batch instead of stalling it.  A request whose last
        chunk lands samples its first token and joins the decode batch in
        the same step.
        """
        remaining = self.scheduler.config.prefill_chunk_tokens
        for active in self._active:
            if active.status is not RequestStatus.PREFILLING:
                continue
            if remaining is not None and remaining <= 0:
                break
            prompt = active.request.prompt_ids
            length = int(prompt.shape[0])
            start = active.prefill_pos
            take = length - start if remaining is None else min(remaining, length - start)
            end = start + take
            distribution = self.core.prefill_chunk(active.sequence, prompt, start, end)
            active.prefill_pos = end
            if remaining is not None:
                remaining -= take
            trace.prefills.append(
                self._trace_entry(
                    active, length, chunk_start=start, chunk_tokens=take
                )
            )
            if distribution is None:
                continue
            if self.prefix_cache is not None:
                self._cache_insert(active.sequence, prompt)
            token = self.core.pick_token(active.sequence, distribution)
            self.core.record_output(active.sequence, token, distribution)
            active.current_token = token
            active.first_token_step = self._engine_step
            active.status = RequestStatus.DECODING

    def _retire_finished(self) -> list[CompletedRequest]:
        """Finalise finished requests and send them out through :meth:`_leave`."""
        completed: list[CompletedRequest] = []
        for active in [a for a in self._active if a.is_finished]:
            result = self.core.finalise(active.sequence)
            # Every sequence shares the engine's offload manager, so its
            # ledger holds every request's transfers, not this one's: it
            # stays on ServeReport.ledger, never copied into each result.
            result.ledger = None
            self._leave(active, RequestStatus.FINISHED)
            completed.append(
                CompletedRequest(
                    request=active.request,
                    result=result,
                    admitted_at_step=active.admitted_at_step,
                    finished_at_step=self._engine_step,
                    submitted_at_step=self._submitted_at_step.pop(
                        active.request.request_id, 0
                    ),
                    first_token_step=active.first_token_step,
                )
            )
        return completed


def serve_prompts(
    model: TransformerModel,
    prompts: list[np.ndarray],
    selector: KVSelectorFactory | PolicySpec | str | None = None,
    generation_config: GenerationConfig | None = None,
    scheduler_config: SchedulerConfig | None = None,
    policies: list[PolicySpec | str | None] | None = None,
) -> ServeReport:
    """Convenience wrapper: serve a list of prompts and drain the queue.

    ``policies`` optionally assigns each prompt its own KV compression
    policy (one entry per prompt; ``None`` entries use ``selector``), so a
    single call can serve a mixed-policy batch.
    """
    if policies is not None and len(policies) != len(prompts):
        raise ValueError("policies must have one entry per prompt")
    engine = BatchedEngine(
        model,
        selector=selector,
        generation_config=generation_config,
        scheduler_config=scheduler_config,
    )
    for idx, prompt in enumerate(prompts):
        engine.submit(prompt, policy=policies[idx] if policies else None)
    return engine.run()
