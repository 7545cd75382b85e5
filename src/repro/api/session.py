"""The public session facade: one object from prompt to tokens.

:class:`Session` wraps the whole stack — model construction, the policy
registry, the continuous-batching engine — behind three usage styles:

* **one-shot**: ``session.generate(prompt)`` returns the finished
  :class:`~repro.model.generation.GenerationResult`;
* **streaming**: ``for event in session.stream(prompt): ...`` yields one
  :class:`TokenEvent` per generated token, as the engine produces it;
* **batched**: ``session.submit(...)`` several requests (each optionally
  with its own compression policy), then ``session.step()`` manually or
  ``session.run()`` to drain the queue.

All three drive the same :class:`~repro.serving.BatchedEngine`, so a
streamed request decodes the very same tokens as a one-shot call, and
one-shot calls issued while other requests are queued simply join the
batch.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..execbackend import build_engine
from ..model import GenerationResult, SyntheticTokenizer
from ..policies import PolicySpec
from ..serving import CompletedRequest, ServeReport, ServeRequest
from .spec import EngineSpec

__all__ = ["TokenEvent", "Session"]


@dataclass(frozen=True)
class TokenEvent:
    """One generated token, as yielded by :meth:`Session.stream`.

    Attributes
    ----------
    request_id:
        Id of the request the token belongs to.
    index:
        Zero-based position of the token in the request's output.
    token_id:
        The sampled token id.
    logprob:
        Log-probability of the token under the output distribution it was
        sampled from.
    text:
        The token decoded through the session tokenizer (empty for special
        tokens).
    finished:
        ``True`` on the last token of the request.
    """

    request_id: str
    index: int
    token_id: int
    logprob: float
    text: str
    finished: bool


class Session:
    """High-level serving session built from one :class:`EngineSpec`.

    Parameters
    ----------
    spec:
        Complete engine description; defaults to ``EngineSpec()``.
    **overrides:
        Any :class:`EngineSpec` field as a keyword argument, applied on top
        of ``spec`` — so ``Session(model="serve-sim", policy="clusterkv",
        budget=48)`` works without building a spec first.

    Examples
    --------
    >>> session = Session(model="serve-sim", policy="clusterkv", budget=48)
    >>> result = session.generate("where is the answer hidden")
    >>> for event in session.stream([5, 6, 7, 8], policy="quest"):
    ...     print(event.token_id, event.text)
    """

    def __init__(self, spec: EngineSpec | None = None, **overrides: object) -> None:
        base = spec if spec is not None else EngineSpec()
        if overrides:
            base = dataclasses.replace(base, **overrides)  # type: ignore[arg-type]
        self.spec = base
        self.model = base.build_model()
        self.tokenizer = SyntheticTokenizer(self.model.config.vocab_size)
        self.engine = build_engine(self.model, base)
        self._completed: list[CompletedRequest] = []
        self._completed_by_id: dict[str, CompletedRequest] = {}
        # Requests with a live stream() iterator; their results survive
        # clear_completed() until the iterator finishes.
        self._streaming_ids: set[str] = set()

    # ------------------------------------------------------------------
    # submission / stepping
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: str | np.ndarray | list[int],
        request_id: str | None = None,
        max_new_tokens: int | None = None,
        seed: int | None = None,
        policy: PolicySpec | str | None = None,
        arrival_time_s: float = 0.0,
    ) -> ServeRequest:
        """Enqueue a request; string prompts are tokenized by the session.

        ``policy`` overrides the session's default compression policy for
        this request only, so one session serves mixed-policy traffic.
        ``arrival_time_s`` stamps the request's arrival instant for the
        latency metrics surfaced by ``ServeReport.request_timings()``.
        """
        return self.engine.submit(
            self._encode(prompt),
            request_id=request_id,
            max_new_tokens=max_new_tokens,
            seed=seed,
            policy=policy,
            arrival_time_s=arrival_time_s,
        )

    def step(self) -> list[CompletedRequest]:
        """Run one engine step; returns the requests that finished."""
        completed = self.engine.step()
        self._record_completed(completed)
        return completed

    def run(self) -> ServeReport:
        """Drain the queue and return the aggregate :class:`ServeReport`."""
        report = self.engine.run()
        self._record_completed(report.completed)
        return report

    @property
    def completed(self) -> list[CompletedRequest]:
        """Every request finished through this session, in retirement order."""
        return list(self._completed)

    def results(self) -> dict[str, GenerationResult]:
        """Results of all finished requests, keyed by request id."""
        return {rid: c.result for rid, c in self._completed_by_id.items()}

    def prefix_cache_stats(self) -> dict[str, object]:
        """Accounting snapshot of the engine's cross-request prefix cache.

        Hits, misses, hit rate and token counters of the
        :class:`~repro.prefixcache.RadixPrefixCache` built when the
        session's spec sets ``prefix_cache_tokens``; empty when the cache
        is disabled.
        """
        return self.engine.prefix_cache_stats()

    def clear_completed(self) -> None:
        """Drop retained results of finished requests.

        Finished requests are otherwise retained for the session lifetime
        (so :meth:`results` keeps working); long-lived sessions serving
        many requests should call this periodically once results have been
        consumed, to bound memory.  Requests whose :meth:`stream` iterator
        is still being consumed are retained so the iterator can finish
        replaying their tokens.
        """
        retained = [
            c for c in self._completed if c.request.request_id in self._streaming_ids
        ]
        self._completed = retained
        self._completed_by_id = {c.request.request_id: c for c in retained}

    # ------------------------------------------------------------------
    # one-shot and streaming
    # ------------------------------------------------------------------
    def generate(
        self,
        prompt: str | np.ndarray | list[int],
        request_id: str | None = None,
        max_new_tokens: int | None = None,
        seed: int | None = None,
        policy: PolicySpec | str | None = None,
    ) -> GenerationResult:
        """Generate to completion and return the request's result.

        The request joins the session's batch like any other; previously
        queued requests keep decoding (and may finish) while this one runs.
        """
        request = self.submit(
            prompt,
            request_id=request_id,
            max_new_tokens=max_new_tokens,
            seed=seed,
            policy=policy,
        )
        for completed in self._step_until_finished(request.request_id):
            pass
        return self._completed_by_id[request.request_id].result

    def stream(
        self,
        prompt: str | np.ndarray | list[int],
        request_id: str | None = None,
        max_new_tokens: int | None = None,
        seed: int | None = None,
        policy: PolicySpec | str | None = None,
    ) -> Iterator[TokenEvent]:
        """Generate while yielding one :class:`TokenEvent` per token.

        Token for token equivalent to :meth:`generate` under the same
        session configuration: the iterator merely observes the in-flight
        result between engine steps, it does not alter decoding.

        Submission (and thus policy/budget validation) happens eagerly in
        this call, before the iterator is first advanced — a typo fails
        here, not at the first ``next()``.  If the returned iterator is
        abandoned mid-stream, the request stays queued/active and is
        finished by the session's subsequent stepping (it still appears in
        :meth:`results`).
        """
        request = self.submit(
            prompt,
            request_id=request_id,
            max_new_tokens=max_new_tokens,
            seed=seed,
            policy=policy,
        )
        self._streaming_ids.add(request.request_id)
        return _TokenStream(self, request.request_id)

    def _stream_events(self, rid: str) -> Iterator[TokenEvent]:
        """Inner generator of :meth:`stream`; the request is already queued."""
        try:
            yield from self._stream_events_inner(rid)
        finally:
            # Runs on normal exhaustion and on abandonment (GeneratorExit),
            # releasing the clear_completed() retention hold.  An iterator
            # abandoned before its first step is released by _TokenStream,
            # whose close()/__del__ always fire.
            self._streaming_ids.discard(rid)

    def _stream_events_inner(self, rid: str) -> Iterator[TokenEvent]:
        """Token-event loop of :meth:`stream`, wrapped for cleanup."""
        emitted = 0
        for finished_result in self._step_until_finished(rid):
            result = (
                finished_result
                if finished_result is not None
                else self.engine.in_flight_result(rid)
            )
            if result is None:  # not admitted yet
                continue
            total = len(result.output_ids)
            is_last_batch = finished_result is not None
            while emitted < total:
                token_id = result.output_ids[emitted]
                yield TokenEvent(
                    request_id=rid,
                    index=emitted,
                    token_id=token_id,
                    logprob=result.output_logprobs[emitted],
                    text=self.tokenizer.decode([token_id]),
                    finished=is_last_batch and emitted == total - 1,
                )
                emitted += 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _step_until_finished(self, request_id: str) -> Iterator[GenerationResult | None]:
        """Step the engine until ``request_id`` retires.

        Yields ``None`` after every intermediate step and the finished
        :class:`GenerationResult` once, then stops.  A request that
        already retired — e.g. because another stream or ``run()`` stepped
        the engine in the meantime — is recognised without stepping.
        Raises if the engine goes idle without finishing the request
        (cannot happen through :meth:`submit`, which validates
        admissibility).
        """
        while True:
            item = self._completed_by_id.get(request_id)
            if item is not None:
                yield item.result
                return
            if not self.engine.queue and not self.engine.num_active:
                raise RuntimeError(
                    f"engine went idle before request {request_id!r} finished"
                )
            self.step()
            yield None

    def _record_completed(self, completed: list[CompletedRequest]) -> None:
        """Retain finished requests for :meth:`results` lookups."""
        self._completed.extend(completed)
        for item in completed:
            self._completed_by_id[item.request.request_id] = item

    def _encode(self, prompt: str | np.ndarray | list[int]) -> np.ndarray:
        """Tokenize string prompts; pass token id sequences through."""
        if isinstance(prompt, str):
            return np.asarray(self.tokenizer.encode(prompt), dtype=np.int64)
        return np.asarray(prompt, dtype=np.int64)


class _TokenStream:
    """Iterator over a stream's :class:`TokenEvent` objects with cleanup.

    Wraps the session's event generator so the ``clear_completed()``
    retention hold taken at :meth:`Session.stream` time is released even
    when the iterator is abandoned before its first step (a never-started
    generator's ``finally`` would not run; this wrapper's ``close`` always
    does, at the latest on garbage collection).
    """

    def __init__(self, session: Session, request_id: str) -> None:
        self._session = session
        self._request_id = request_id
        self._events = session._stream_events(request_id)

    def __iter__(self) -> "_TokenStream":
        return self

    def __next__(self) -> TokenEvent:
        return next(self._events)

    def close(self) -> None:
        """Release the retention hold and close the underlying generator."""
        self._session._streaming_ids.discard(self._request_id)
        self._events.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter-shutdown noise
            pass
