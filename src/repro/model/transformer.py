"""Decoder-only transformer built on the NumPy primitives.

:class:`TransformerModel` exposes the per-layer building blocks (embedding,
QKV projection with RoPE, attention output projection, feed-forward block
and final logits) as separate methods so that the inference engine in
:mod:`repro.model.generation` can interleave them with KV cache management
and token selection — mirroring how the paper's system hooks clustering and
selection into the decoding loop (paper Fig. 5 and Fig. 6).
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .tensor_ops import (
    _rope_tables,
    apply_rope,
    rms_norm,
    rope_frequencies,
    swiglu,
)
from .weights import ModelWeights, init_weights

__all__ = ["TransformerModel"]


class TransformerModel:
    """A decoder-only transformer with deterministic synthetic weights."""

    def __init__(self, config: ModelConfig, weights: ModelWeights | None = None) -> None:
        self.config = config
        self.weights = weights if weights is not None else init_weights(config)
        if self.weights.config is not config and self.weights.config != config:
            raise ValueError("weights were initialised for a different configuration")
        self._inv_freq = rope_frequencies(config.head_dim, config.rope_base)
        # Fused projection weights, one per layer: the per-head Q/K/V
        # projections concatenated column-wise into a single (d_model,
        # (n_heads + 2 n_kv_heads) * head_dim) matrix, and the SwiGLU
        # gate/up pair into (d_model, 2 d_ff).  One GEMM per projection
        # group replaces the per-head einsum / split matmuls on the decode
        # hot path; each output column block is the same matrix product, so
        # results match the unfused computation (suite-verified).
        # Fork safety: multiprocess-backend workers rebuild these fused
        # arrays from the shared read-only weight arena with this exact
        # concatenation, so they are bit-identical across processes
        # (asserted by MultiprocessBackend.model_digests()).
        self._q_cols = config.n_heads * config.head_dim
        self._kv_cols = config.n_kv_heads * config.head_dim
        self._wqkv = [
            np.concatenate(
                [
                    layer.wq.transpose(1, 0, 2).reshape(config.d_model, -1),
                    layer.wk.transpose(1, 0, 2).reshape(config.d_model, -1),
                    layer.wv.transpose(1, 0, 2).reshape(config.d_model, -1),
                ],
                axis=1,
            )
            for layer in self.weights.layers
        ]
        self._w_gate_up = [
            np.concatenate([layer.w_gate, layer.w_up], axis=1)
            for layer in self.weights.layers
        ]

    # ------------------------------------------------------------------
    # embedding and output
    # ------------------------------------------------------------------
    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Token embeddings, shape ``(T, d_model)``.

        Positions enter through RoPE in :meth:`attention_qkv`.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        return self.weights.embedding[token_ids]

    def final_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Vocabulary logits of the given hidden states, shape ``(T, vocab)``."""
        normed = rms_norm(hidden, self.weights.final_norm_weight)
        return normed @ self.weights.lm_head

    # ------------------------------------------------------------------
    # per-layer blocks
    # ------------------------------------------------------------------
    def attention_qkv(
        self, layer_idx: int, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project hidden states to (rotated) queries, keys and values.

        Returns ``q`` of shape ``(n_heads, T, head_dim)`` and ``k``/``v`` of
        shape ``(n_kv_heads, T, head_dim)``.
        """
        layer = self.weights.layers[layer_idx]
        positions = np.asarray(positions, dtype=np.int64)
        normed = rms_norm(hidden, layer.attn_norm_weight)

        # One fused GEMM for all Q/K/V heads, then per-head views: column
        # blocks of the fused product equal the per-head projections.
        t = normed.shape[0]
        head_dim = self.config.head_dim
        fused = normed @ self._wqkv[layer_idx]
        q_cols, kv_cols = self._q_cols, self._kv_cols
        q = fused[:, :q_cols].reshape(t, self.config.n_heads, head_dim)
        k = fused[:, q_cols : q_cols + kv_cols].reshape(
            t, self.config.n_kv_heads, head_dim
        )
        v = fused[:, q_cols + kv_cols :].reshape(t, self.config.n_kv_heads, head_dim)
        q = q.swapaxes(0, 1)
        k = k.swapaxes(0, 1)
        v = v.swapaxes(0, 1)
        q = apply_rope(q, positions, self._inv_freq)
        k = apply_rope(k, positions, self._inv_freq)
        return q, k, v

    def reserve_positions(self, end: int) -> None:
        """Grow the shared RoPE tables to cover positions ``[0, end)`` now.

        The tables grow lazily by doubling inside :func:`apply_rope`; a
        caller about to run :meth:`attention_qkv` on several threads does
        the growing here first, on its own thread.
        """
        _rope_tables(self._inv_freq, end)

    def attention_output(
        self, layer_idx: int, hidden: np.ndarray, attn_concat: np.ndarray
    ) -> np.ndarray:
        """Apply the output projection and the residual connection."""
        layer = self.weights.layers[layer_idx]
        return hidden + attn_concat @ layer.wo

    def ffn(self, layer_idx: int, hidden: np.ndarray) -> np.ndarray:
        """Feed-forward block with residual connection."""
        layer = self.weights.layers[layer_idx]
        normed = rms_norm(hidden, layer.ffn_norm_weight)
        # Fused gate/up GEMM; the two column halves equal the separate
        # products.
        fused = normed @ self._w_gate_up[layer_idx]
        d_ff = self.config.d_ff
        inner = swiglu(fused[:, :d_ff], fused[:, d_ff:])
        return hidden + inner @ layer.w_down

    # ------------------------------------------------------------------
    # convenience full forward (used by tests and small-scale checks)
    # ------------------------------------------------------------------
    def forward_full(self, token_ids: np.ndarray) -> np.ndarray:
        """Full forward pass with exact attention; returns ``(T, vocab)`` logits.

        Intended for testing and tiny inputs; generation should go through
        :class:`repro.model.generation.InferenceEngine`.
        """
        from .attention import full_causal_attention  # local import avoids cycle

        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.arange(token_ids.shape[0])
        hidden = self.embed(token_ids)
        for layer_idx in range(self.config.n_layers):
            q, k, v = self.attention_qkv(layer_idx, hidden, positions)
            attn = full_causal_attention(q, k, v, self.config.softmax_scale)
            hidden = self.attention_output(layer_idx, hidden, attn.output)
            hidden = self.ffn(layer_idx, hidden)
        return self.final_logits(hidden)

    @property
    def num_parameters(self) -> int:
        """Total parameter count of the model."""
        return self.weights.num_parameters()
