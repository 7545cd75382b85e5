"""Pointer (copy) head over the context.

The reproduction cannot use trained checkpoints, so the synthetic model pairs
the transformer with a pointer-generator style copy head: the output
distribution mixes the vocabulary softmax with a *copy distribution* obtained
by attending from the current decoding step to the context and emitting the
token that follows the attended position (an induction-style pointer).

The pointer matches a **bigram signature** — a projection of the current
token's embedding plus a weighted projection of its predecessor's embedding —
against the same signature of every context position.  The predecessor
component disambiguates different occurrences of the same word by their local
context, which is what lets the synthetic QA workloads have a well-defined
correct answer under full attention.

This gives the model a genuine long-range retrieval capability — answering a
question requires attending to the evidence span planted in the context, and
predicting a repeated passage requires attending to its earlier occurrence.
Crucially, the copy head only sees the tokens *selected* by the active KV
compression method: if the evidence is not recalled, it cannot be copied,
which is exactly the failure mode the paper's accuracy experiments measure.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import softmax
from .weights import ModelWeights

__all__ = ["CopyHead"]


class CopyHead:
    """Induction-style pointer head over the token history."""

    def __init__(self, weights: ModelWeights) -> None:
        if (
            weights.copy_query_proj is None
            or weights.copy_key_proj is None
            or weights.copy_prev_proj is None
        ):
            raise ValueError("model weights do not include copy head projections")
        self.weights = weights
        self.vocab_size = weights.config.vocab_size
        self.d_model = weights.config.d_model
        self.bigram_weight = weights.config.copy_bigram_weight
        self.sharpness = weights.config.copy_sharpness
        self._token_ids: list[int] = []
        # Signature (copy key) of every ingested token, in one growable
        # (capacity, d_model) buffer; rows past len(self) are scratch.
        self._copy_keys = np.zeros((0, self.d_model))

    def __len__(self) -> int:
        return len(self._token_ids)

    @property
    def keys(self) -> np.ndarray:
        """Read-only view of the copy-key history, shape ``(len(self), d_model)``.

        The pointer head owns this history; the engine hands the view to
        the pointer head's selector state instead of it keeping a copy.
        """
        view = self._copy_keys[: len(self._token_ids)]
        view.flags.writeable = False
        return view

    def _signature(self, token_id: int, previous_token_id: int | None) -> np.ndarray:
        """Bigram signature of a (previous, current) token pair."""
        embedding = self.weights.embedding[token_id]
        signature = embedding @ self.weights.copy_key_proj
        if previous_token_id is not None and self.bigram_weight != 0.0:
            prev_embedding = self.weights.embedding[previous_token_id]
            signature = signature + self.bigram_weight * (
                prev_embedding @ self.weights.copy_prev_proj
            )
        return signature

    def ingest(self, token_ids: np.ndarray) -> np.ndarray:
        """Append tokens to the copy-key history.

        Returns the bigram signatures of the newly ingested tokens, shape
        ``(t, d_model)``; the inference engine feeds them to the pointer
        head's KV selector state.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        start = len(self._token_ids)
        end = start + token_ids.shape[0]
        if end > self._copy_keys.shape[0]:
            grown = np.zeros((max(64, 2 * end), self.d_model))
            grown[:start] = self._copy_keys[:start]
            self._copy_keys = grown
        for row, token_id in enumerate(token_ids.tolist(), start):
            previous = self._token_ids[-1] if self._token_ids else None
            self._copy_keys[row] = self._signature(int(token_id), previous)
            self._token_ids.append(int(token_id))
        return self._copy_keys[start:end].copy()

    def current_signature(self) -> np.ndarray:
        """Bigram signature of the most recently ingested token."""
        if not self._token_ids:
            raise RuntimeError("the copy head has not ingested any token yet")
        return self._copy_keys[len(self._token_ids) - 1]

    def copy_distribution(
        self,
        current_token_id: int,
        allowed_indices: np.ndarray | None = None,
        temperature: float = 1.0,
    ) -> np.ndarray | None:
        """Probability distribution over the vocabulary induced by copying.

        Parameters
        ----------
        current_token_id:
            Token id of the token being processed at this decoding step.  It
            must already be the last entry of the ingested history (the
            engine ingests before mixing distributions), so that its bigram
            signature uses the correct predecessor.
        allowed_indices:
            Absolute positions the copy head may attend to (the tokens
            selected by the KV compression method at the final layer).
            ``None`` means the full history is visible.
        temperature:
            Softmax temperature of the pointer attention.

        Returns
        -------
        numpy.ndarray or None
            ``(vocab_size,)`` probability vector, or ``None`` when there is
            no position the head can copy from (e.g. an empty history).
        """
        history = len(self._token_ids)
        if history == 0:
            return None
        if allowed_indices is None:
            allowed = np.arange(history, dtype=np.int64)
        else:
            allowed = np.asarray(allowed_indices, dtype=np.int64)
            allowed = allowed[(allowed >= 0) & (allowed < history)]
        # Positions whose successor lies outside the history cannot emit a
        # copy target; drop them.
        allowed = allowed[allowed + 1 < history]
        if allowed.size == 0:
            return None

        if self._token_ids and self._token_ids[-1] == current_token_id:
            query = self._copy_keys[history - 1]
        else:
            previous = self._token_ids[-1] if self._token_ids else None
            query = self._signature(current_token_id, previous)

        keys = self._copy_keys[allowed]
        scores = (keys @ query) * self.sharpness
        weights = softmax(scores / max(temperature, 1e-6))

        distribution = np.zeros(self.vocab_size)
        successor_tokens = np.asarray(
            [self._token_ids[i + 1] for i in allowed.tolist()], dtype=np.int64
        )
        np.add.at(distribution, successor_tokens, weights)
        return distribution

    def export_state(self) -> dict[str, object]:
        """Snapshot of the mutable pointer state (token and key history).

        The weights are shared and immutable, so the token-id list plus
        the ``(len(self), d_model)`` signature array are the head's
        *entire* mutable state; :meth:`restore_state` on a fresh head of
        the same model reproduces it exactly.  Used by
        :mod:`repro.seqstate` checkpoints.
        """
        return {"token_ids": list(self._token_ids), "copy_keys": self.keys.copy()}

    def restore_state(self, state: dict[str, object]) -> None:
        """Adopt a snapshot produced by :meth:`export_state`."""
        token_ids = state["token_ids"]
        assert isinstance(token_ids, list)
        self._token_ids = [int(token) for token in token_ids]
        keys = np.array(state["copy_keys"], dtype=np.float64)
        self._copy_keys = keys.reshape(len(self._token_ids), self.d_model)

    def reset(self) -> None:
        """Clear the token history."""
        self._token_ids.clear()
