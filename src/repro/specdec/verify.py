"""The decode round: feed drafts offset by offset, stop at a miss.

:func:`speculative_round` is the whole draft-verify-accept loop of one
engine step, and the one decode path: the serving engine and
:meth:`repro.model.InferenceEngine.generate` run every decode step
through it, with an empty draft when they do not speculate.  It drives an
:class:`~repro.model.generation.EngineCore` through nothing but its
public stepping calls — ``decode_step_batch``, ``pick_token`` and
``record_output`` — so speculation adds no branch to the decode path.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..model.sampling import DegenerateDistributionError, apply_temperature
from ..perf import counters

if TYPE_CHECKING:
    from ..model.generation import EngineCore, SequenceState

__all__ = ["speculative_round"]


def speculative_round(
    core: EngineCore,
    seqs: list[SequenceState],
    token_ids: list[int],
    steps: list[int],
    drafts: list[list[int]],
) -> list[list[int]]:
    """One draft-then-verify round for a batch of sequences.

    Each sequence is fed ``[current_token, d_1, ..., d_k]`` (``d_j`` its
    drafted candidates; an empty draft makes the round one plain decode
    step).  The sweep is *time-major*: offset ``j`` of every sequence
    still in the round is one call to ``decode_step_batch``, so each
    position runs byte-for-byte the code a speculation-off engine step
    would run — which is what makes greedy speculation token- AND
    logprob-identical to plain decoding at batch size one (batching the
    offsets into one wide GEMM instead would perturb the BLAS
    accumulation order and break that contract).

    After offset ``j`` each sequence decides draft token ``d_{j+1}``
    from the distribution it just computed: greedy decoding accepts it
    when it is the argmax; temperature decoding accepts it with
    probability ``q(x)`` (``q`` the re-tempered distribution; the
    drafter is deterministic, so its proposal is a point mass and the
    classic ``min(1, q/p)`` test reduces to ``q(x)``) and on rejection
    samples the replacement from the residual ``q`` with ``x`` zeroed.
    Past the last draft token the bonus token is an ordinary
    ``pick_token``.  Either way the emitted token is recorded through
    ``record_output`` (its log-probability taken from the raw verified
    distribution, exactly as in plain decoding) and, on a miss or after
    the bonus, the sequence leaves the round: a rejected position is
    never fed, so nothing in the KV cache, the selector or pointer
    states or the offload ledger has to be undone.  Per-position
    emissions are distributed exactly as in plain decoding.

    The substrate therefore computes only up to the first miss, while
    the virtual clock still prices the modelled fused pass over all
    ``k + 1`` positions (the step trace lists every drafted position;
    see :meth:`repro.perfmodel.StepCostModel.step_seconds`).  Returns
    the per-sequence emitted-token lists; every list holds
    ``accepted + 1`` tokens.
    """
    if not (len(seqs) == len(token_ids) == len(steps) == len(drafts)):
        raise ValueError("seqs, token_ids, steps and drafts must align")
    drafts = [[int(d) for d in draft] for draft in drafts]
    fed = [int(token) for token in token_ids]
    emitted: list[list[int]] = [[] for _ in seqs]
    live = list(range(len(seqs)))
    offset = 0
    while live:
        dists = core.decode_step_batch(
            [seqs[i] for i in live],
            [fed[i] for i in live],
            [steps[i] + offset for i in live],
        )
        still_live = []
        for i, dist in zip(live, dists):
            draft = drafts[i]
            proposed = draft[offset] if offset < len(draft) else None
            token, accepted = _verify(core, seqs[i], dist, proposed)
            core.record_output(seqs[i], token, dist)
            emitted[i].append(token)
            if accepted:
                fed[i] = token
                still_live.append(i)
        live = still_live
        offset += 1

    for seq, draft, tokens in zip(seqs, drafts, emitted):
        if draft:
            accepted = len(tokens) - 1
            rejected = len(draft) - accepted
            seq.result.spec_rounds += 1
            seq.result.spec_drafted_tokens += len(draft)
            seq.result.spec_accepted_tokens += accepted
            seq.result.spec_rejected_tokens += rejected
            counters.record("specdec.rounds", 1)
            counters.record("specdec.drafted_tokens", len(draft))
            counters.record("specdec.accepted_tokens", accepted)
            counters.record("specdec.rejected_tokens", rejected)
    return emitted


def speculation_summary(records: Iterable) -> dict[str, float]:
    """Aggregate speculative-decoding accounting over per-request records.

    Each record carries the four counters ``spec_rounds``,
    ``spec_drafted_tokens``, ``spec_accepted_tokens`` and
    ``spec_rejected_tokens`` (a :class:`~repro.model.GenerationResult` or
    a :class:`~repro.traffic.RequestMetrics`).  Derives the two headline
    metrics: ``acceptance_rate`` (accepted / drafted) and
    ``mean_accepted_run_length`` (accepted tokens per speculation round).
    ``accepted_tokens + rejected_tokens == drafted_tokens`` holds by
    construction.  All zeros when the run decoded without speculation.
    """
    rounds = drafted = accepted = rejected = 0
    for record in records:
        rounds += record.spec_rounds
        drafted += record.spec_drafted_tokens
        accepted += record.spec_accepted_tokens
        rejected += record.spec_rejected_tokens
    return {
        "rounds": float(rounds),
        "drafted_tokens": float(drafted),
        "accepted_tokens": float(accepted),
        "rejected_tokens": float(rejected),
        "acceptance_rate": accepted / drafted if drafted else 0.0,
        "mean_accepted_run_length": accepted / rounds if rounds else 0.0,
    }


def _verify(
    core: EngineCore, seq: SequenceState, dist: np.ndarray, proposed: int | None
) -> tuple[int, bool]:
    """The token a sequence emits at one offset, and whether it took the draft.

    ``proposed`` is the draft token under test, ``None`` past the end of
    the draft (the bonus position, never accepted).
    """
    gen = core.generation_config
    if proposed is None or gen.greedy:
        token = core.pick_token(seq, dist)
        return token, token == proposed
    q = apply_temperature(dist, gen.temperature)
    if seq.rng.random() < q[proposed]:
        return proposed, True
    residual = q.copy()
    residual[proposed] = 0.0
    total = residual.sum()
    if not total > 0:
        raise DegenerateDistributionError(
            "rejection-sampling residual has no probability mass"
        )
    return int(seq.rng.choice(residual.shape[0], p=residual / total)), False
