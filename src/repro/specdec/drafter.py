"""Drafters: cheap candidate-token proposers for speculative decoding.

A :class:`Drafter` looks at a request's token history (prompt plus the
tokens emitted so far) and proposes up to ``k`` candidate continuation
tokens.  The serving engine then *verifies* them
(:func:`repro.specdec.verify.speculative_round`): whatever prefix of the
draft matches what the model would have emitted anyway is accepted,
collapsing up to ``k + 1`` sequential decode steps into one engine step.
The virtual clock prices that step as one fused pass over all ``k + 1``
positions; the substrate computes them offset by offset and stops at the
first miss.

The registry starts with a single *self*-drafter — the seeded
n-gram/prompt-lookup drafter of Saxena's *Prompt Lookup Decoding* (and
the n-gram fallback path of vLLM's speculative module): no second model,
no extra weights, just suffix matching against the request's own
history.  The :class:`Drafter` interface is deliberately tiny so a
small-model drafter (Leviathan et al.) or a Medusa-style head can plug
in later without touching the engine: ``propose`` is the whole
contract.

Determinism contract
--------------------
``propose`` must be a pure function of ``(token_history, k)`` — no
internal mutable state, no RNG.  That is what makes speculation
checkpoint-safe for free: a speculation round lives entirely inside one
engine step, so a checkpoint taken between steps carries no draft state
at all, and the restored run re-derives identical drafts from the
identical history.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from ..registry import Registry

__all__ = [
    "Drafter",
    "NGramDrafter",
    "DRAFTERS",
]


class Drafter(ABC):
    """Interface every drafter implements: history in, candidates out."""

    #: Registry name of the drafter (set by :meth:`DRAFTERS.register`).
    name: str = ""

    @abstractmethod
    def propose(self, token_history: Sequence[int], k: int) -> list[int]:
        """Up to ``k`` candidate continuation tokens for this history.

        May return fewer than ``k`` tokens — including none at all, in
        which case the engine falls back to a plain decode step for the
        request this round.  Must be deterministic in its inputs (see
        the module docstring's determinism contract).
        """

    def describe(self) -> dict[str, object]:
        """Identity of this drafter (for reports and signatures)."""
        return {"name": self.name}


DRAFTERS = Registry("drafter", Drafter)


@DRAFTERS.register("ngram")
class NGramDrafter(Drafter):
    """Prompt-lookup self-drafter: suffix n-gram matching, no model.

    To draft from a history ``t_0 .. t_{L-1}``, find the longest suffix
    n-gram (length ``max_ngram`` down to 1) that also occurs *earlier*
    in the history; among equal-length matches prefer the most recent
    one.  The tokens that followed that earlier occurrence are the
    draft.  On repetitive text — exactly the regime where KV-compressed
    long-context decoding spends its time — acceptance rates are high;
    on novel text the drafter proposes nothing and the engine silently
    falls back to plain decoding.
    """

    def __init__(self, max_ngram: int = 3, min_ngram: int = 1) -> None:
        if max_ngram < 1:
            raise ValueError(f"max_ngram must be >= 1, got {max_ngram}")
        if not 1 <= min_ngram <= max_ngram:
            raise ValueError(
                f"min_ngram must be in [1, max_ngram], got {min_ngram}"
            )
        self.max_ngram = max_ngram
        self.min_ngram = min_ngram

    def propose(self, token_history: Sequence[int], k: int) -> list[int]:
        """Continuation of the most recent earlier match of the suffix."""
        history = list(token_history)
        length = len(history)
        if k < 1 or length < self.min_ngram + 1:
            return []
        for n in range(min(self.max_ngram, length - 1), self.min_ngram - 1, -1):
            suffix = history[length - n :]
            # Scan candidate start positions right to left: most recent
            # earlier occurrence wins.  The match must end strictly
            # before the history's end so there is a continuation.
            for start in range(length - n - 1, -1, -1):
                if history[start : start + n] == suffix:
                    continuation = history[start + n : start + n + k]
                    if continuation:
                        return continuation
        return []

    def describe(self) -> dict[str, object]:
        """Name plus the n-gram window bounds."""
        return {
            "name": self.name,
            "max_ngram": self.max_ngram,
            "min_ngram": self.min_ngram,
        }
