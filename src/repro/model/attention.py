"""Attention computation with pluggable token selection.

Two entry points are provided:

* :func:`full_causal_attention` — exact causal attention used during prefill
  (compression only applies to decoding, matching the paper's system).
* :func:`selected_attention` — single-query attention restricted to the
  tokens selected by a KV compression method, i.e. the approximation
  ``softmax(q K_S^T / sqrt(d)) V_S`` of paper Sec. II-B.

Grouped-query attention is supported: ``n_heads`` query heads share
``n_kv_heads`` key/value heads in contiguous groups.

Both entry points are vectorised across heads: all kv-head groups go
through one broadcast ``np.matmul`` (a batched GEMM) for the scores and one
for the weighted sum, with scale, mask and softmax run in place on the score
buffer in between.  Per-slice results of a broadcast matmul come from the
same BLAS kernel as the equivalent 2-D products, so short prefills and
decode reproduce the historical per-head loops bit for bit — pinned by
``tests/test_hotpath_equivalence.py``.  Long prefills process queries in
cache-sized row blocks, each against the keys up to its causal frontier
only, dealt to one lane (thread) per CPU the process owns; row sums then
skip exactly-zero terms and the output, not the weights, is normalised,
so last bits differ from the single-shot result (suite-verified) — but
never with the lane count.  :func:`selected_attention_batch` is
the decode hot path: per-kv-head selections arrive as one stacked
(optionally padded) tensor, two GEMM launches whatever the head count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf import counters
from ._lanes import lane_count, run_lanes

__all__ = [
    "AttentionOutput",
    "full_causal_attention",
    "selected_attention",
    "selected_attention_batch",
]


@dataclass
class AttentionOutput:
    """Result of one attention computation.

    Attributes
    ----------
    output:
        Concatenated per-head outputs; ``(T, n_heads * head_dim)`` for
        prefill or ``(n_heads * head_dim,)`` for single-token decode.
    weights:
        Per-query-head attention weights.  For decode this is a list of
        ``n_heads`` arrays aligned with the selected indices of the
        corresponding kv head; for prefill it is ``None`` unless explicitly
        requested (full weight tensors are large).
    """

    output: np.ndarray
    weights: list[np.ndarray] | None = None


# Score-tensor budget of one prefill query block: 256k float64 elements
# (2 MB) across all heads at full key width (blocks before the last stop at
# their causal frontier and are smaller) — measured sweet spot on long
# prompts; prompts whose whole score tensor fits are a single block.
_PREFILL_BLOCK_ELEMENTS = 1 << 18

# Blocks a lane must have before a second lane pays for its thread (measured
# for the kernel alone, docs/PERFORMANCE.md § Prefill).
_MIN_BLOCKS_PER_LANE = 4


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """``tensor_ops.softmax`` over the last axis, same bits, in the caller's buffer."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _check_group(n_heads: int, n_kv_heads: int) -> int:
    if n_heads % n_kv_heads != 0:
        raise ValueError(
            f"n_heads ({n_heads}) must be divisible by n_kv_heads ({n_kv_heads})"
        )
    return n_heads // n_kv_heads


def full_causal_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    scale: float,
    return_weights: bool = False,
) -> AttentionOutput:
    """Exact causal attention over the whole sequence.

    Parameters
    ----------
    queries:
        ``(n_heads, T_q, head_dim)``.
    keys, values:
        ``(n_kv_heads, T_k, head_dim)``; ``T_q <= T_k`` and the queries are
        the last ``T_q`` positions.
    scale:
        Softmax scale (``1/sqrt(head_dim)``).
    return_weights:
        When True, attention weights ``(n_heads, T_q, T_k)`` are also
        returned (used by the motivation analyses).
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n_heads, t_q, head_dim = queries.shape
    n_kv_heads, t_k, _ = keys.shape
    group = _check_group(n_heads, n_kv_heads)
    if t_q > t_k:
        raise ValueError(f"query_len {t_q} cannot exceed key_len {t_k}")
    offset = t_k - t_q
    grouped = queries.reshape(n_kv_heads, group, t_q, head_dim)
    keys_t = np.swapaxes(keys, 1, 2)[:, None]
    values_b = values[:, None]

    # Long prompts go through in query-row blocks so the score tensor stays
    # cache-sized.  Rows [start, end) only meet keys [0, offset + end), their
    # causal frontier: the masked half of the score matrix is never computed
    # and only the trailing rows x rows triangle of a block needs masking.
    # Weight-returning callers (analyses on short contexts) and short prompts
    # are one full-width block — the historical single-shot computation.
    blocked = not (return_weights or n_heads * t_q * t_k <= _PREFILL_BLOCK_ELEMENTS)
    block = max(1, _PREFILL_BLOCK_ELEMENTS // (n_heads * t_k)) if blocked else t_q
    starts = range(0, t_q, block)
    # Blocks are independent, so they are dealt round-robin to lanes (balances
    # the growing causal widths; a single block is a single lane).  Per-block
    # arithmetic is the same whatever the lane count, so the result does not
    # depend on it.
    lanes = lane_count(len(starts), _MIN_BLOCKS_PER_LANE)
    if blocked:
        # A block drops two of its passes over the score tensor: the queries
        # carry the scale in (T x d, once) and the (rows x d) output is
        # normalised, not the (rows x width) weights.
        grouped = grouped * scale
    future = ~np.tri(block, dtype=bool)  # [i, j]: block key j is after row i
    buffers = np.empty((lanes, n_heads * block * t_k))  # one score buffer per lane
    stacked = np.empty((t_q, n_heads, head_dim))
    for start in starts:  # counters are recorded on the calling thread only
        end = min(start + block, t_q)
        counters.record("gemm.attention_prefill", 2)
        counters.record(
            "attention_prefill.score_elements", n_heads * (end - start) * (offset + end)
        )

    def attend(lane: int) -> None:
        for start in starts[lane::lanes]:
            end = min(start + block, t_q)
            rows, width = end - start, offset + end
            scores = buffers[lane][: n_heads * rows * width].reshape(
                n_kv_heads, group, rows, -1
            )
            np.matmul(grouped[:, :, start:end], keys_t[..., :width], out=scores)
            if not blocked:
                scores *= scale
            np.copyto(scores[..., width - rows :], -1e30, where=future[:rows, :rows])
            if blocked:
                scores -= scores.max(axis=-1, keepdims=True)
                np.exp(scores, out=scores)
                sums = scores.sum(axis=-1, keepdims=True)
                outputs = np.matmul(scores, values_b[:, :, :width])
                outputs /= sums
            else:
                outputs = np.matmul(_softmax_inplace(scores), values_b[:, :, :width])
            # outputs: (n_kv, group, rows, d)
            stacked[start:end] = outputs.reshape(n_heads, rows, head_dim).swapaxes(0, 1)

    run_lanes(attend, lanes)
    weights_list = list(buffers[0].reshape(n_heads, t_q, t_k)) if return_weights else None
    return AttentionOutput(stacked.reshape(t_q, n_heads * head_dim), weights_list)


def selected_attention_batch(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    scale: float,
    lengths: np.ndarray | None = None,
    return_weights: bool = False,
) -> AttentionOutput:
    """Single-token attention over stacked per-kv-head selections.

    The decode hot path: the selected keys/values of *all* kv heads arrive
    as one tensor, so the whole layer's attention is two batched GEMMs
    (scores, weighted sum) independent of the head count.

    Parameters
    ----------
    queries:
        ``(n_heads, head_dim)`` query vectors of the current token.
    keys / values:
        ``(n_kv_heads, S, head_dim)``.  When per-head selection sizes
        differ, heads are right-padded to the longest selection and
        ``lengths`` marks the valid prefix of each head; padded entries
        must be finite (their scores are masked to ``-inf``, so their
        softmax weight is exactly zero and the result equals the unpadded
        computation bit for bit).
    scale:
        Softmax scale.
    lengths:
        Optional ``(n_kv_heads,)`` valid selection length per head;
        ``None`` means every head uses all ``S`` entries.
    return_weights:
        When True, per-query-head weights (trimmed to each head's valid
        length) are returned; the default skips materialising them — the
        engine only needs weights when an attention trace is recorded.

    Returns
    -------
    AttentionOutput
        Output of shape ``(n_heads * head_dim,)`` and, when requested,
        per-query-head attention weights aligned with each kv head's
        selected tokens.
    """
    if not isinstance(queries, np.ndarray) or queries.dtype != np.float64:
        queries = np.asarray(queries, dtype=np.float64)
    if not isinstance(keys, np.ndarray) or keys.dtype != np.float64:
        keys = np.asarray(keys, dtype=np.float64)
    if not isinstance(values, np.ndarray) or values.dtype != np.float64:
        values = np.asarray(values, dtype=np.float64)
    n_heads, head_dim = queries.shape
    n_kv_heads, max_selected, _ = keys.shape
    group = _check_group(n_heads, n_kv_heads)
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        empty = np.flatnonzero(lengths <= 0)
        if empty.size:
            raise ValueError(f"kv head {int(empty[0])} has no selected tokens")
    elif max_selected == 0:
        raise ValueError("kv head 0 has no selected tokens")

    grouped = queries.reshape(n_kv_heads, group, head_dim)
    scores = np.matmul(grouped, np.swapaxes(keys, 1, 2)) * scale
    counters.record("gemm.attention_decode", 2)
    if lengths is not None:
        # In-place tail masking (cheaper than a broadcast np.where and
        # bit-identical: the same padded entries become -inf).
        for kv_head in range(n_kv_heads):
            valid = lengths[kv_head]
            if valid < max_selected:
                scores[kv_head, :, valid:] = -np.inf
    weights = _softmax_inplace(scores)
    output = np.matmul(weights, values)  # (n_kv_heads, group, head_dim)

    weights_list: list[np.ndarray] | None = None
    if return_weights:
        weights_list = []
        for kv_head in range(n_kv_heads):
            valid = max_selected if lengths is None else int(lengths[kv_head])
            weights_list.extend(
                weights[kv_head, g, :valid] for g in range(group)
            )
    return AttentionOutput(output=output.reshape(-1), weights=weights_list)


def selected_attention(
    queries: np.ndarray,
    keys_per_kv_head: list[np.ndarray],
    values_per_kv_head: list[np.ndarray],
    scale: float,
    return_weights: bool = True,
) -> AttentionOutput:
    """Single-token attention restricted to selected KV entries.

    Parameters
    ----------
    queries:
        ``(n_heads, head_dim)`` query vectors of the current token.
    keys_per_kv_head / values_per_kv_head:
        One ``(S_h, head_dim)`` array per kv head containing the keys and
        values of the tokens selected for that head (``S_h`` may differ
        between heads — semantic clusters have variable sizes).  A stacked
        ``(n_kv_heads, S, head_dim)`` array is also accepted and avoids
        the per-head restacking.
    scale:
        Softmax scale.
    return_weights:
        Whether per-query-head attention weights are materialised.

    Returns
    -------
    AttentionOutput
        Output of shape ``(n_heads * head_dim,)`` and per-query-head
        attention weights aligned with each kv head's selected tokens.
    """
    if isinstance(keys_per_kv_head, np.ndarray) and keys_per_kv_head.ndim == 3:
        return selected_attention_batch(
            queries,
            keys_per_kv_head,
            np.asarray(values_per_kv_head, dtype=np.float64),
            scale,
            return_weights=return_weights,
        )
    lengths = np.asarray([k.shape[0] for k in keys_per_kv_head], dtype=np.int64)
    empty = np.flatnonzero(lengths <= 0)
    if empty.size:
        raise ValueError(f"kv head {int(empty[0])} has no selected tokens")
    head_dim = keys_per_kv_head[0].shape[1]
    max_selected = int(lengths.max())
    if bool((lengths == max_selected).all()):
        keys = np.stack([np.asarray(k, dtype=np.float64) for k in keys_per_kv_head])
        values = np.stack(
            [np.asarray(v, dtype=np.float64) for v in values_per_kv_head]
        )
        return selected_attention_batch(
            queries, keys, values, scale, return_weights=return_weights
        )
    keys = np.zeros((lengths.shape[0], max_selected, head_dim))
    values = np.zeros_like(keys)
    for kv_head, (k, v) in enumerate(zip(keys_per_kv_head, values_per_kv_head)):
        keys[kv_head, : lengths[kv_head]] = k
        values[kv_head, : lengths[kv_head]] = v
    return selected_attention_batch(
        queries, keys, values, scale, lengths=lengths, return_weights=return_weights
    )
