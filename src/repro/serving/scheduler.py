"""Continuous-batching scheduler: admission under slot and memory budgets.

The scheduler decides, at each engine step, which queued requests join the
decode batch.  Policy is strict first-come-first-served: requests are
admitted in arrival order and the head of the queue blocks admission when it
does not fit — a later, smaller request never jumps ahead.  This sacrifices
a little utilisation for a hard no-starvation guarantee, which is the
fairness property the tests assert.

Two resources gate admission:

* **slots** — at most ``max_batch_size`` requests decode concurrently, and
  at most ``max_prefills_per_step`` are prefilled in one engine step (a
  prefill runs exact quadratic attention over the whole prompt and would
  otherwise stall the decode batch, the classic continuous-batching
  trade-off);
* **KV memory** — the sum over in-flight requests of their *projected* KV
  footprint (prompt plus full decode length, across all layers) must stay
  within ``kv_budget_bytes``.  Projections are conservative: a request is
  only admitted if it can run to completion without evicting others, so the
  engine never deadlocks mid-decode.  Actual usage is tracked by the shared
  :class:`~repro.memory.OffloadManager` tier ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .queue import RequestQueue
from .request import ServeRequest

__all__ = ["SchedulerConfig", "ContinuousBatchingScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission policy knobs of the continuous-batching scheduler.

    Attributes
    ----------
    max_batch_size:
        Maximum number of concurrently decoding requests.
    max_prefills_per_step:
        Maximum number of requests prefilled in one engine step.
    kv_budget_bytes:
        Global KV memory budget across all in-flight requests, in bytes of
        fp16 K/V entries summed over layers; ``None`` disables the memory
        gate (slots only).
    prefill_chunk_tokens:
        Per-step prompt-token budget of chunked prefill.  When set, each
        engine step advances the admitted-but-still-prefilling requests by
        at most this many prompt tokens in total, interleaved with the
        decode batch — a long prompt no longer stalls every in-flight
        decode for one monolithic step.  ``None`` (the default) prefills
        every admitted request whole in its admission step (monolithic
        prefill, the historical behaviour).
    prefix_cache_tokens:
        Capacity (in cached prompt tokens) of the engine's cross-request
        prefix KV cache (:class:`repro.prefixcache.RadixPrefixCache`).
        When set, admitted requests attach to the longest cached prefix of
        their prompt and prefill only the suffix.  ``None`` (the default)
        disables prefix caching entirely.
    prefix_block_tokens:
        Sharing granularity of the prefix cache: prompts are cached and
        matched in blocks of this many tokens.
    prefix_semantic_reuse:
        Whether the prefix cache also stores and restores per-policy
        semantic state (ClusterKV's per-segment clustering), see
        :class:`repro.prefixcache.PrefixCacheConfig`.
    preemption:
        Whether the engine may preempt ``batch``-class in-flight requests
        to make room for an ``interactive``-class request blocked at the
        head of the queue.  A preempted request is checkpointed
        (:mod:`repro.seqstate`), its slot and KV reservation freed, and it
        resumes bit-identically once capacity frees up — so interactive
        latency is bought without discarding batch work.  Off by default:
        preemption reorders completions, which the strict-FCFS fairness
        tests assert never happens unless asked for.
    """

    max_batch_size: int = 8
    max_prefills_per_step: int = 2
    kv_budget_bytes: int | None = None
    prefill_chunk_tokens: int | None = None
    prefix_cache_tokens: int | None = None
    prefix_block_tokens: int = 32
    prefix_semantic_reuse: bool = True
    preemption: bool = False

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_prefills_per_step <= 0:
            raise ValueError("max_prefills_per_step must be positive")
        if self.kv_budget_bytes is not None and self.kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes must be positive when set")
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive when set")
        if self.prefix_block_tokens <= 0:
            raise ValueError("prefix_block_tokens must be positive")
        if (
            self.prefix_cache_tokens is not None
            and self.prefix_cache_tokens < self.prefix_block_tokens
        ):
            raise ValueError(
                "prefix_cache_tokens must be at least prefix_block_tokens when set"
            )


class ContinuousBatchingScheduler:
    """FCFS admission of queued requests into the decode batch."""

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config or SchedulerConfig()

    def projected_bytes(
        self,
        prompt_length: int,
        max_new_tokens: int | None,
        kv_bytes_per_token: int,
        default_max_new_tokens: int,
    ) -> int:
        """Worst-case KV footprint of one request over its whole lifetime.

        ``(prompt length + decode length) * kv_bytes_per_token`` where
        ``kv_bytes_per_token`` spans all layers (see
        :meth:`repro.model.config.ModelConfig.kv_bytes_per_token`) and a
        ``max_new_tokens`` of ``None`` decodes ``default_max_new_tokens``.
        The single source of the projection: admission here and every
        budget decision of :class:`repro.serving.BatchedEngine` use it, so
        the gates cannot drift.
        """
        if max_new_tokens is None:
            max_new_tokens = default_max_new_tokens
        return (prompt_length + max_new_tokens) * kv_bytes_per_token

    def fits(self, num_active: int, reserved_bytes: int, projected: int) -> bool:
        """Whether one more request of ``projected`` KV bytes fits.

        It needs a free decode slot beside ``num_active`` requests and,
        under a KV budget, room for ``projected`` on top of the
        ``reserved_bytes`` already reserved.
        """
        budget = self.config.kv_budget_bytes
        return num_active < self.config.max_batch_size and (
            budget is None or reserved_bytes + projected <= budget
        )

    def admit(
        self,
        queue: RequestQueue,
        num_active: int,
        reserved_bytes: int,
        kv_bytes_per_token: int,
        default_max_new_tokens: int,
    ) -> list[ServeRequest]:
        """Pop the queued requests to prefill at this engine step.

        Parameters
        ----------
        queue:
            The pending-request queue (popped in place).
        num_active:
            Requests currently decoding.
        reserved_bytes:
            Sum of the projected KV footprints of the in-flight requests.
        kv_bytes_per_token:
            Per-token KV size across all layers of the served model.
        default_max_new_tokens:
            Engine-level decode length used when a request has no override.

        Returns
        -------
        list of ServeRequest
            Admitted requests in arrival order (possibly empty).  Admission
            stops at the first head-of-queue request that does not fit, so
            arrival order is preserved unconditionally.
        """
        admitted: list[ServeRequest] = []
        budget = self.config.kv_budget_bytes
        while queue and len(admitted) < self.config.max_prefills_per_step:
            head = queue.peek()
            assert head is not None
            projected = self.projected_bytes(
                head.prompt_length(),
                head.max_new_tokens,
                kv_bytes_per_token,
                default_max_new_tokens,
            )
            num_busy = num_active + len(admitted)
            if not self.fits(num_busy, reserved_bytes, projected):
                # A head larger than the whole budget can never fit.  Raise
                # only when a slot is free and nothing was popped this call,
                # so already-admitted requests are returned (and served)
                # rather than lost; the next admission call reports the
                # unservable head cleanly.
                if (
                    not admitted
                    and num_busy < self.config.max_batch_size
                    and budget is not None
                    and projected > budget
                ):
                    raise ValueError(
                        f"request {head.request_id!r} needs {projected} bytes of KV, "
                        f"more than the whole budget of {budget} bytes"
                    )
                break
            admitted.append(queue.pop())
            reserved_bytes += projected
        return admitted
