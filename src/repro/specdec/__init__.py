"""Self-speculative decoding: drafter registry + speculation config.

Speculative decoding attacks the one cost PR 4's vectorization could
not: at decode time every request contributes a single token per
forward pass, so the batched GEMMs run at the float64 BLAS floor.  A
speculation round drafts ``k`` candidate tokens per request with a
cheap :class:`Drafter` (the default needs no second model — it
prompt-looks-up the request's own history), then verifies them.

The modelled system verifies all ``k + 1`` positions in one fused
batched pass, and the virtual clock prices the round that way.  This
NumPy substrate instead feeds the positions offset by offset through the
unchanged ``decode_step_batch`` (bit-identity with plain decoding) and
drops each request at its first miss, so it computes only up to the
first rejected draft token and has nothing to undo.

The serving engine drafts and clips
(:meth:`repro.serving.BatchedEngine.step`); :mod:`repro.specdec.verify`
holds the verify/accept round; this package also owns the drafter
abstraction, its registry :data:`DRAFTERS`
(:class:`repro.registry.Registry`), and the :class:`SpeculationConfig`
record threaded through :class:`repro.api.EngineSpec`.
"""

from __future__ import annotations

from .config import SpeculationConfig
from .drafter import DRAFTERS, Drafter, NGramDrafter

__all__ = [
    "Drafter",
    "NGramDrafter",
    "DRAFTERS",
    "SpeculationConfig",
]
