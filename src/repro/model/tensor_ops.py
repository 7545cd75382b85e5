"""Numerical primitives for the NumPy transformer inference substrate.

All operations are pure functions over ``numpy.ndarray`` and are written to
mirror the reference Transformer arithmetic used by Llama/GLM/OPT-style
models: softmax, RMSNorm, LayerNorm, SiLU/GELU activations and rotary
position embeddings (RoPE).

The functions operate on float64 or float32 arrays; dtype is preserved where
possible.  Shapes follow the conventions used throughout :mod:`repro.model`:

* sequence tensors are ``(L, d)`` (sequence length by hidden size),
* per-head tensors are ``(H, L, d_head)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "rms_norm",
    "layer_norm",
    "silu",
    "gelu",
    "swiglu",
    "rope_frequencies",
    "apply_rope",
    "causal_mask",
    "masked_fill",
    "stable_dot",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Subtracting the per-slice maximum before exponentiation avoids overflow
    for large logits, which occur routinely in attention score computation
    with long contexts.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        x = np.asarray(x, dtype=np.float64)
    # Method-call reductions avoid the np.max/np.sum dispatch wrappers; this
    # sits on the per-head decode hot path and is called once per attention.
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - log_norm


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (as used by Llama/GLM).

    ``x`` has shape ``(..., d)`` and ``weight`` has shape ``(d,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    variance = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Standard layer normalisation (as used by OPT).

    ``x`` has shape ``(..., d)``; ``weight`` and ``bias`` have shape ``(d,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=-1, keepdims=True)
    variance = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(variance + eps) * weight + bias


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (a.k.a. swish) activation: ``x * sigmoid(x)``."""
    x = np.asarray(x, dtype=np.float64)
    return x / (1.0 + np.exp(-x))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation using the tanh approximation (OPT/GPT style)."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))
    return 0.5 * x * (1.0 + np.tanh(inner))


def swiglu(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """SwiGLU gating: ``silu(gate) * up`` (Llama/GLM feed-forward).

    Evaluated in one contiguous workspace with the operation order of
    ``silu(gate) * up`` (so bit-identical to it): the feed-forward block
    passes strided column halves of its fused gate/up product, and one
    temporary per operation over such operands costs more than the math.
    """
    gate = np.asarray(gate, dtype=np.float64)
    work = np.empty(gate.shape)
    np.negative(gate, out=work)
    np.exp(work, out=work)
    work += 1.0
    np.divide(gate, work, out=work)
    work *= np.asarray(up, dtype=np.float64)
    return work


def rope_frequencies(head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Inverse frequencies for rotary position embeddings.

    Returns an array of shape ``(head_dim // 2,)``.
    """
    if head_dim % 2 != 0:
        raise ValueError(f"RoPE requires an even head dimension, got {head_dim}")
    exponents = np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
    return 1.0 / np.power(base, exponents)


# Cos/sin tables of integer positions, keyed by the inverse-frequency bytes
# (one entry per (head_dim, base) pair in practice).  Tables grow by doubling
# and are shared by every model with the same RoPE parameters; recomputing
# ``np.cos``/``np.sin`` of the full angle matrix on every prefill and decode
# call was one of the measured hot-path costs this cache removes.  Entries for
# integer positions are bit-identical to direct evaluation: the table stores
# ``cos(p * inv_freq)`` for the same float64 product the direct path computes.
#
# Fork safety (repro.execbackend multiprocess backend): this cache is plain
# process-local memoisation of a pure function of ``(inv_freq, needed)``.  A
# forked worker inherits a snapshot and a spawned worker starts empty; either
# way every process recomputes identical float64 tables on demand, so cached
# vs freshly computed entries can never diverge across processes.  The
# backend's parity tests assert this by byte-comparing serial and
# multiprocess reports.
_ROPE_TABLE_CACHE: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def _rope_tables(inv_freq: np.ndarray, needed: int) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin tables covering positions ``[0, needed)`` for ``inv_freq``."""
    key = inv_freq.tobytes()
    entry = _ROPE_TABLE_CACHE.get(key)
    if entry is None or entry[0].shape[0] < needed:
        capacity = 64 if entry is None else entry[0].shape[0]
        while capacity < needed:
            capacity *= 2
        angles = np.outer(np.arange(capacity, dtype=np.float64), inv_freq)
        entry = (np.cos(angles), np.sin(angles))
        _ROPE_TABLE_CACHE[key] = entry
    return entry


def apply_rope(
    x: np.ndarray,
    positions: np.ndarray,
    inv_freq: np.ndarray,
) -> np.ndarray:
    """Apply rotary position embeddings to per-head vectors.

    Parameters
    ----------
    x:
        Array of shape ``(..., L, d_head)``.
    positions:
        Integer array of shape ``(L,)`` giving the absolute position of each
        token in the sequence.
    inv_freq:
        Inverse frequencies from :func:`rope_frequencies`, shape
        ``(d_head // 2,)``.

    Returns
    -------
    numpy.ndarray
        Array of the same shape as ``x`` with rotations applied pairwise to
        the ``(even, odd)`` channel halves, following the Llama convention
        where the head dimension is split into two contiguous halves.
    """
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions)
    if x.shape[-2] != positions.shape[0]:
        raise ValueError(
            f"positions length {positions.shape[0]} does not match sequence "
            f"length {x.shape[-2]}"
        )
    half = x.shape[-1] // 2
    if inv_freq.shape[0] != half:
        raise ValueError(
            f"inv_freq length {inv_freq.shape[0]} does not match half head "
            f"dimension {half}"
        )
    length = positions.shape[0]
    if length and np.issubdtype(positions.dtype, np.integer) and int(positions.min()) >= 0:
        # Cached-table path for the (universal in this codebase) case of
        # non-negative integer positions: look the rows up instead of
        # recomputing cos/sin of the whole angle matrix every call.
        cos_table, sin_table = _rope_tables(inv_freq, int(positions.max()) + 1)
        if length == 1:
            # Single-token decode: one row, sliced without a gather copy.
            start = int(positions[0])
            cos = cos_table[start : start + 1]
            sin = sin_table[start : start + 1]
        elif int(positions[0]) + length - 1 == int(positions[-1]) and bool(
            (positions[1:] - positions[:-1] == 1).all()
        ):
            # Contiguous position range (prefill): a table slice, no copy.
            start = int(positions[0])
            cos = cos_table[start : start + length]
            sin = sin_table[start : start + length]
        else:
            cos = cos_table[positions]
            sin = sin_table[positions]
    else:
        # Fallback for float or negative positions: direct evaluation.
        positions = np.asarray(positions, dtype=np.float64)
        angles = np.outer(positions, inv_freq)  # (L, d_head // 2)
        cos = np.cos(angles)
        sin = np.sin(angles)
    x1 = x[..., :half]
    x2 = x[..., half:]
    # Write the two rotated halves into one preallocated output instead of
    # concatenating fresh halves (same values, one fewer allocation+copy).
    rotated = np.empty(x.shape)
    np.multiply(x1, cos, out=rotated[..., :half])
    rotated[..., :half] -= x2 * sin
    np.multiply(x2, cos, out=rotated[..., half:])
    rotated[..., half:] += x1 * sin
    return rotated


def causal_mask(query_len: int, key_len: int) -> np.ndarray:
    """Boolean causal mask of shape ``(query_len, key_len)``.

    Entry ``[i, j]`` is ``True`` when query ``i`` may attend to key ``j``.
    The queries are assumed to be the *last* ``query_len`` positions of a
    ``key_len``-long sequence (standard prefill convention).
    """
    if query_len > key_len:
        raise ValueError(
            f"query_len {query_len} cannot exceed key_len {key_len}"
        )
    offset = key_len - query_len
    cols = np.arange(key_len)[None, :]
    rows = np.arange(query_len)[:, None] + offset
    return cols <= rows


def masked_fill(scores: np.ndarray, mask: np.ndarray, value: float = -1e30) -> np.ndarray:
    """Return ``scores`` with positions where ``mask`` is False set to ``value``."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.where(mask, scores, value)


def stable_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product computed in float64 regardless of input dtype."""
    return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
