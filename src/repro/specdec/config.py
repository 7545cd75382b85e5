"""Configuration record for speculative decoding."""

from __future__ import annotations

from dataclasses import dataclass

from .drafter import DRAFTERS, Drafter

__all__ = ["SpeculationConfig"]


@dataclass(frozen=True)
class SpeculationConfig:
    """How a serving engine speculates: which drafter, how many tokens.

    ``k`` is the *maximum* draft length per round; the engine clips it
    against each request's remaining token budget so speculation never
    overshoots ``max_new_tokens``, and the drafter may propose fewer
    (or no) tokens on unmatchable histories.
    """

    #: Registry name of the drafter (see :data:`repro.specdec.DRAFTERS`).
    drafter: str = "ngram"
    #: Maximum candidate tokens drafted per request per round.
    k: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"speculation k must be >= 1, got {self.k}")
        DRAFTERS.check(self.drafter)

    def build_drafter(self) -> Drafter:
        """Instantiate the configured drafter from the registry."""
        return DRAFTERS.build(self.drafter)

    def describe(self) -> dict[str, object]:
        """Identity of this configuration (for reports)."""
        return {"drafter": self.drafter, "k": self.k}
