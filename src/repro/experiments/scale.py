"""Context scaling between paper-scale and simulation-scale settings.

The paper's accuracy experiments run 8k–32k-token contexts through 8–9 B
parameter models on a GPU.  The NumPy substrate runs small models on a CPU,
so the accuracy experiments shrink every length-like quantity (context
length, KV budget, attention sinks, clustering cadence) by a common factor
while preserving the ratios that drive the results — budget/context,
tokens-per-cluster, page size is deliberately *not* scaled (Quest's page
size of 16 is an algorithmic constant, and keeping it preserves the
fragmentation behaviour the paper analyses).

The efficiency experiments (Fig. 12/13) do not use this scaling at all: the
analytical performance model works directly at the paper's true scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..knobs import knob

__all__ = ["ContextScale", "DEFAULT_SCALE", "CLI_SCALE"]


@dataclass(frozen=True)
class ContextScale:
    """Linear down-scaling of length-like quantities.

    Attributes
    ----------
    factor:
        Division factor applied to paper-scale lengths (16 maps a 32k
        context to 2k simulated tokens).
    """

    factor: int = knob(16, "context down-scale factor of the experiment", flag="--scale")

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError("factor must be at least 1")

    def length(self, paper_tokens: int, minimum: int = 1) -> int:
        """Scale a context length or budget expressed in paper tokens."""
        if paper_tokens <= 0:
            raise ValueError("paper_tokens must be positive")
        return max(minimum, paper_tokens // self.factor)

    def sink_tokens(self, paper_sinks: int = 16) -> int:
        """Scaled number of attention-sink tokens (at least 2)."""
        return max(2, paper_sinks // max(1, self.factor // 4))

    def describe(self, paper_tokens: int) -> str:
        """Human-readable label like ``"2048 (paper 32768)"``."""
        return f"{self.length(paper_tokens)} (paper {paper_tokens})"


DEFAULT_SCALE = ContextScale(factor=16)

# The scale a bare ``repro <experiment>`` runs at: every accuracy command
# finishes in seconds to a minute.
CLI_SCALE = ContextScale(factor=64)
