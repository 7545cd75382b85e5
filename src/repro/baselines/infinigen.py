"""InfiniGen baseline: per-token selection with SVD partial weights.

InfiniGen (Lee et al., OSDI 2024; paper reference [18]) makes tokens
recallable by *speculating* attention scores with reduced-dimension queries
and keys.  Offline, it applies a singular value decomposition to the key
matrix and keeps only the top-``r`` directions ("partial weights"); at every
decoding step it projects the query into that ``r``-dimensional space,
estimates all attention scores against the stored partial keys, and fetches
the KV of the highest-scoring tokens from CPU memory.

Properties reproduced here (paper Sec. II-C):

* selection cost is ``O(L * r)`` — it still scales linearly with the context
  length, unlike ClusterKV's ``O(C * d)``;
* partial keys must be stored in addition to the full keys (extra memory,
  tracked in ``aux_bytes``);
* selection is per-token, so there is no internal fragmentation — accuracy
  sits between Quest and ClusterKV in the paper's evaluation.
"""

from __future__ import annotations

import numpy as np

from ..memory import TierKind
from ..policies.registry import register_policy
from .base import (
    KVSelectorFactory,
    LayerSelectorState,
    clip_budget,
    merge_group_queries,
)
from .oracle import top_k_indices

__all__ = ["InfiniGenConfig", "InfiniGenLayerState", "InfiniGenSelector"]


class InfiniGenConfig:
    """Configuration of the InfiniGen baseline.

    Attributes
    ----------
    partial_ratio:
        Fraction of key channels kept by the SVD projection (the original
        work uses a partial-weight ratio around 0.25–0.3).
    min_partial_dim:
        Lower bound on the projected dimension.
    speculation_noise:
        Relative magnitude of the error of the speculated attention scores.
        InfiniGen speculates the important tokens of layer ``i`` while layer
        ``i-1`` is still executing, using partial weights calibrated
        offline; the speculated scores therefore differ from the attention
        scores actually computed.  The reproduction models that gap as
        Gaussian noise on the estimated scores with standard deviation
        ``speculation_noise`` times the standard deviation of the estimates
        (0 recovers an idealised, oracle-like InfiniGen).
    seed:
        Seed of the deterministic speculation-noise stream.
    """

    def __init__(
        self,
        partial_ratio: float = 0.25,
        min_partial_dim: int = 4,
        speculation_noise: float = 0.6,
        seed: int = 0,
    ) -> None:
        if not 0.0 < partial_ratio <= 1.0:
            raise ValueError("partial_ratio must lie in (0, 1]")
        if min_partial_dim <= 0:
            raise ValueError("min_partial_dim must be positive")
        if speculation_noise < 0.0:
            raise ValueError("speculation_noise must be non-negative")
        self.partial_ratio = partial_ratio
        self.min_partial_dim = min_partial_dim
        self.speculation_noise = speculation_noise
        self.seed = seed

    def partial_dim(self, head_dim: int) -> int:
        """Projected dimension ``r`` for a given head dimension."""
        return min(head_dim, max(self.min_partial_dim, int(round(head_dim * self.partial_ratio))))


class InfiniGenLayerState(LayerSelectorState):
    """Per-layer InfiniGen state: SVD projections and partial keys of every kv head.

    The projections stack into one ``(n_kv_heads, d, r)`` tensor and the
    partial keys live in one growable ``(n_kv_heads, capacity, r)``
    buffer, so projecting, scoring and ranking run for all heads at once.
    """

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        config: InfiniGenConfig,
        num_sink_tokens: int = 0,
    ) -> None:
        super().__init__(layer_idx, n_kv_heads, head_dim, config, num_sink_tokens)
        self.partial_dim = config.partial_dim(head_dim)
        # Top-r right-singular vectors per head, (n_kv_heads, r, d).
        self._basis: np.ndarray | None = None
        self._partial_buffer: np.ndarray | None = None
        self._noise_rng = np.random.default_rng(config.seed + 7 * layer_idx + 1)

    @property
    def _projections(self) -> np.ndarray | None:
        """``(n_kv_heads, d, r)`` projections: each head's ``vt[:r].T`` view.

        The basis is stored C-contiguous and transposed on use, so every
        product sees the layout the per-head ``vt[:r].T`` always had —
        also after a deep copy or a pickle round trip, which could
        otherwise change the BLAS kernel and with it the last bits.
        """
        return None if self._basis is None else self._basis.transpose(0, 2, 1)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_prefill(self, keys: np.ndarray) -> None:
        """SVD the prompt keys into partial weights and build partial keys."""
        keys = self._validate_keys(keys)
        length = keys.shape[1]
        self._num_tokens = length
        # SVD of every head's prompt keys; the top right-singular vectors
        # capture the directions along which keys (and hence attention
        # scores) vary the most.  This models InfiniGen's offline
        # partial-weight generation.
        _, _, vt = np.linalg.svd(keys, full_matrices=False)
        self._basis = np.ascontiguousarray(vt[:, : self.partial_dim, :])
        partial = np.matmul(keys, self._projections)
        self._partial_buffer = np.zeros(
            (self.n_kv_heads, max(64, 2 * length), partial.shape[2])
        )
        self._partial_buffer[:, :length] = partial
        # SVD cost ~ L d^2, projection cost 2 L d r, per head.
        self.stats.build_flops += self.n_kv_heads * int(
            length * self.head_dim**2 + 2 * length * self.head_dim * self.partial_dim
        )
        self._refresh_aux_bytes()

    def observe_decode(self, keys: np.ndarray) -> None:
        """Project newly decoded keys into the partial space."""
        keys = self._validate_keys(keys)
        if self._projections is None or self._partial_buffer is None:
            raise RuntimeError("observe_decode called before observe_prefill")
        start, added = self._num_tokens, keys.shape[1]
        buffer = self._partial_buffer
        if start + added > buffer.shape[1]:
            grown = np.zeros(
                (self.n_kv_heads, max(start + added, 2 * buffer.shape[1]), buffer.shape[2])
            )
            grown[:, :start] = buffer[:, :start]
            self._partial_buffer = buffer = grown
        buffer[:, start : start + added] = np.matmul(keys, self._projections)
        self.stats.build_flops += self.n_kv_heads * int(
            2 * added * self.head_dim * self.partial_dim
        )
        self._num_tokens += added
        self._refresh_aux_bytes()

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(
        self, queries: np.ndarray, budget: int, step: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Speculate scores with partial keys and pick the top-``B`` tokens of every head."""
        if self._projections is None or self._partial_buffer is None:
            raise RuntimeError("select called before observe_prefill")
        merged = merge_group_queries(queries)
        budget = clip_budget(budget, self._num_tokens)
        partial_query = np.matmul(merged[:, None, :], self._projections)  # (H, 1, r)
        estimated = np.matmul(
            self._partial_buffer[:, : self._num_tokens], partial_query.transpose(0, 2, 1)
        )[..., 0]  # (H, L)
        if self.config.speculation_noise > 0.0:
            # The scores used for speculation are not the scores computed
            # in the actual attention (cross-layer prefetch with offline
            # partial weights); model that gap as relative Gaussian noise
            # on the estimates.  One (H, L) draw consumes the stream
            # exactly as one normal(scale=s) draw per head in head order
            # did, and s * z is the product that draw returned.
            scale = estimated.std(axis=1)
            scale[scale == 0.0] = 1.0
            scale *= self.config.speculation_noise
            estimated = estimated + scale[:, None] * self._noise_rng.standard_normal(
                estimated.shape
            )
        rows = top_k_indices(estimated, budget)
        self.stats.score_flops += self.n_kv_heads * int(
            2 * self.head_dim * self.partial_dim  # query projection
            + 2 * self._num_tokens * self.partial_dim  # score estimation
        )
        self.stats.selected_tokens += rows.size
        self.stats.fetched_tokens += rows.size
        self.stats.num_selections += 1
        return rows

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _refresh_aux_bytes(self) -> None:
        # Partial keys stored at fp16 in addition to the original keys.
        self.stats.aux_bytes = int(
            self._num_tokens * self.partial_dim * self.n_kv_heads * 2
        )

    def _export_fields(self) -> dict[str, object]:
        # Only the live partial keys; the next decode regrows the buffer.
        fields = dict(self.__dict__)
        if self._partial_buffer is not None:
            fields["_partial_buffer"] = self._partial_buffer[:, : self._num_tokens]
        return fields


@register_policy(
    "infinigen", summary="per-token speculation with SVD partial keys, KV offloaded to CPU"
)
class InfiniGenSelector(KVSelectorFactory):
    """Factory of the InfiniGen baseline (offloads KV to CPU memory)."""

    name = "infinigen"
    kv_residency = TierKind.CPU
    config_cls = InfiniGenConfig
    state_cls = InfiniGenLayerState
