"""Key/value cache storage for autoregressive decoding.

The store keeps per-layer, per-kv-head key and value tensors and grows them
as decoding appends tokens.  Residency (GPU vs. CPU tier) and the resulting
transfer traffic are tracked through an optional
:class:`repro.memory.OffloadManager`, mirroring the paper's system design in
which the full KV cache lives in CPU memory while only selected entries are
staged on the GPU (paper Fig. 5).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..memory import CapacityExceeded, OffloadManager, TierKind

__all__ = ["LayerKVCache", "KVCacheStore"]


class LayerKVCache:
    """Growable key/value storage of one transformer layer.

    Arrays are stored as ``(n_kv_heads, capacity, head_dim)`` with doubling
    growth; the logical length is tracked separately.
    """

    def __init__(
        self,
        layer_idx: int,
        n_kv_heads: int,
        head_dim: int,
        initial_capacity: int = 64,
    ) -> None:
        if n_kv_heads <= 0 or head_dim <= 0:
            raise ValueError("n_kv_heads and head_dim must be positive")
        self.layer_idx = layer_idx
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self._length = 0
        self._capacity = max(1, initial_capacity)
        # Keys and values share one (2, n_kv_heads, capacity, head_dim)
        # buffer: appends, growth and spill pages move both in one copy.
        self._kv = np.zeros((2, n_kv_heads, self._capacity, head_dim))

    def __len__(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        """Read-only view of the stored keys, shape ``(n_kv_heads, length, head_dim)``.

        The store is the one owner of the layer's key history: selectors
        are handed this view, never a copy, and cannot write through it.
        """
        return self._view(0)

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the stored values, shape ``(n_kv_heads, length, head_dim)``."""
        return self._view(1)

    def _view(self, part: int) -> np.ndarray:
        view = self._kv[part, :, : self._length, :]
        view.flags.writeable = False
        return view

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append ``t`` new tokens; both arrays are ``(n_kv_heads, t, head_dim)``."""
        self.append_blocks(((keys, values),))

    def append_blocks(self, blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> int:
        """Append ``(keys, values)`` token blocks in order; returns the tokens appended.

        Each block is shaped as in :meth:`append`.  The buffer grows at most
        once, to the blocks' total length, and each block is copied once,
        straight into place — a cached prefix of many blocks is never
        concatenated first.
        """
        blocks = [
            (np.asarray(keys, dtype=np.float64), np.asarray(values, dtype=np.float64))
            for keys, values in blocks
        ]
        for keys, values in blocks:
            if keys.shape != values.shape:
                raise ValueError(
                    f"key shape {keys.shape} does not match value shape {values.shape}"
                )
            if (
                keys.ndim != 3
                or keys.shape[0] != self.n_kv_heads
                or keys.shape[2] != self.head_dim
            ):
                raise ValueError(
                    f"expected shape ({self.n_kv_heads}, t, {self.head_dim}), got {keys.shape}"
                )
        start = self._length
        end = start + sum(keys.shape[1] for keys, _ in blocks)
        self._ensure_capacity(end)
        for keys, values in blocks:
            stop = start + keys.shape[1]
            self._kv[0, :, start:stop, :] = keys
            self._kv[1, :, start:stop, :] = values
            start = stop
        appended = end - self._length
        self._length = end
        return appended

    def gather(self, head_idx: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` of one kv head at the given token indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._length):
            raise IndexError(
                f"indices out of range [0, {self._length}) for layer {self.layer_idx}"
            )
        return (
            self._kv[0, head_idx, indices, :],
            self._kv[1, head_idx, indices, :],
        )

    def gather_many(
        self, rows: np.ndarray, *, out: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Gather every kv head's selected rows straight into ``out``.

        ``rows`` is a selection as :meth:`LayerSelectorState.select
        <repro.baselines.base.LayerSelectorState.select>` returns it: an
        ``(n_kv_heads, S)`` index matrix.  ``out = (keys, values)``: head
        ``h``'s keys and values land in ``keys[h, :S]`` / ``values[h, :S]``
        (both at least ``(n_kv_heads, S, head_dim)``, each head's block
        C-contiguous, as in the fused attention workspace).  Entries past
        ``S`` are left as they were: the attention that reads them masks
        everything beyond the selection's width.
        """
        keys, values = out
        if rows.shape[0] != self.n_kv_heads:
            raise ValueError(f"expected {self.n_kv_heads} index rows, got {rows.shape[0]}")
        low, high = (rows.min(), rows.max()) if rows.size else (0, -1)
        if low < 0 or high >= self._length:
            raise IndexError(
                f"indices out of range [0, {self._length}) for layer {self.layer_idx}"
            )
        # Bounds are checked above, so "clip" never clips; unlike the
        # default "raise" it lets take write into ``out`` unbuffered.
        size = rows.shape[1]
        for head, row in enumerate(rows):
            np.take(self._kv[0, head], row, axis=0, out=keys[head, :size], mode="clip")
            np.take(self._kv[1, head], row, axis=0, out=values[head, :size], mode="clip")

    def evict_span(self, start: int, end: int) -> bytes:
        """Serialize tokens ``[start, end)`` to bytes and zero them in place.

        Models writing a cold page out to a lower tier: the returned bytes
        are the page's payload (``(2, n_kv_heads, t, head_dim)`` float64,
        C order) and the live buffer genuinely loses the data — a read
        before :meth:`restore_span` would see zeros, which is how the
        spill round-trip tests prove recall is exact rather than cosmetic.
        """
        if not 0 <= start <= end <= self._length:
            raise IndexError(f"span [{start}, {end}) outside [0, {self._length})")
        span = np.ascontiguousarray(self._kv[:, :, start:end, :])
        self._kv[:, :, start:end, :] = 0.0
        return span.tobytes()

    def restore_span(self, start: int, end: int, payload: bytes) -> None:
        """Write a payload produced by :meth:`evict_span` back in place."""
        if not 0 <= start <= end <= self._length:
            raise IndexError(f"span [{start}, {end}) outside [0, {self._length})")
        shape = (2, self.n_kv_heads, end - start, self.head_dim)
        expected = int(np.prod(shape)) * 8
        if len(payload) != expected:
            raise ValueError(f"payload holds {len(payload)} bytes, span needs {expected}")
        self._kv[:, :, start:end, :] = np.frombuffer(payload, dtype=np.float64).reshape(shape)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        new_kv = np.zeros((2, self.n_kv_heads, new_capacity, self.head_dim))
        new_kv[:, :, : self._length, :] = self._kv[:, :, : self._length, :]
        self._kv = new_kv
        self._capacity = new_capacity


class KVCacheStore:
    """KV caches for all layers of a model, with residency accounting."""

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        offload: OffloadManager | None = None,
        residency: TierKind = TierKind.GPU,
        bytes_per_element: int = 2,
        buffer_prefix: str = "",
    ) -> None:
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.offload = offload
        self.bytes_per_element = bytes_per_element
        # ``buffer_prefix`` namespaces the per-layer buffer registrations so
        # that many stores (one per in-flight serving request) can share one
        # OffloadManager without name collisions.
        self.buffer_prefix = buffer_prefix
        # Tier on which the bulk KV cache of this run resides; only a
        # CPU-resident cache is charged for fetches.
        self.residency = residency
        self._released = False
        # Optional host->SSD pager (repro.capacity.spill).  When set, reads
        # recall any spilled pages first and appends that overflow the host
        # tier make room by spilling cold pages instead of failing.
        self.pager: object | None = None
        self.layers = [
            LayerKVCache(layer_idx, n_kv_heads, head_dim) for layer_idx in range(n_layers)
        ]
        if self.offload is not None:
            for layer_idx in range(n_layers):
                self.offload.register(self._buffer_name(layer_idx), 0, residency)

    def context_length(self) -> int:
        """Number of cached tokens (identical across layers by construction)."""
        return len(self.layers[0]) if self.layers else 0

    def token_nbytes(self) -> int:
        """Bytes of K plus V for one token of one layer (all kv heads)."""
        return 2 * self.n_kv_heads * self.head_dim * self.bytes_per_element

    def append(self, layer_idx: int, keys: np.ndarray, values: np.ndarray, step: int = -1) -> None:
        """Append new tokens to a layer's cache and account for their bytes."""
        self.append_blocks(layer_idx, ((keys, values),), step)

    def append_blocks(
        self,
        layer_idx: int,
        blocks: Sequence[tuple[np.ndarray, np.ndarray]],
        step: int = -1,
    ) -> None:
        """Append ``(keys, values)`` token blocks to a layer as one append.

        Each block is copied once (:meth:`LayerKVCache.append_blocks`); the
        bytes are accounted exactly as one :meth:`append` of the blocks'
        concatenation would account them.
        """
        layer = self.layers[layer_idx]
        appended = layer.append_blocks(blocks) * self.token_nbytes()
        if self.offload is not None:
            name = self._buffer_name(layer_idx)
            nbytes = len(layer) * self.token_nbytes()
            try:
                self.offload.resize(name, nbytes)
            except CapacityExceeded:
                if self.pager is None:
                    raise
                # Ask the pager to spill cold pages to the SSD tier, then
                # retry once; a second failure is the real capacity wall.
                self.pager.make_room(self, appended, step)
                self.offload.resize(name, nbytes)
            if self.residency is TierKind.CPU:
                # Newly produced KV is generated on the GPU and written back to
                # host memory (paper Fig. 5, "Offload K & V").
                self.offload.record_partial_offload(appended, step)

    def record_fetch(self, num_tokens: int, step: int, tag: str = "kv_fetch") -> int:
        """Charge an H2D transfer for ``num_tokens`` tokens of one layer.

        Returns the number of bytes charged (0 when the KV already resides on
        the GPU, as with full-KV or Quest-style methods).
        """
        if self.offload is None or self.residency is not TierKind.CPU:
            return 0
        nbytes = num_tokens * self.token_nbytes()
        if nbytes > 0:
            self.offload.record_partial_fetch(nbytes, step, tag)
        return nbytes

    def keys(self, layer_idx: int) -> np.ndarray:
        """Keys of a layer, shape ``(n_kv_heads, length, head_dim)``."""
        if self.pager is not None:
            self.pager.before_read(self, layer_idx, None)
        return self.layers[layer_idx].keys

    def values(self, layer_idx: int) -> np.ndarray:
        """Values of a layer, shape ``(n_kv_heads, length, head_dim)``."""
        if self.pager is not None:
            self.pager.before_read(self, layer_idx, None)
        return self.layers[layer_idx].values

    def gather(
        self, layer_idx: int, head_idx: int, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of selected tokens for one layer and kv head."""
        if self.pager is not None:
            self.pager.before_read(self, layer_idx, np.asarray(indices, dtype=np.int64))
        return self.layers[layer_idx].gather(head_idx, indices)

    def gather_many(
        self,
        layer_idx: int,
        rows: np.ndarray,
        *,
        out: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Gather one layer's selected rows into ``out`` (see :meth:`LayerKVCache.gather_many`).

        A spill pager recalls the pages the rows touch first.
        """
        if self.pager is not None:
            self.pager.before_read(self, layer_idx, rows)
        self.layers[layer_idx].gather_many(rows, out=out)

    def total_nbytes(self) -> int:
        """Total bytes of all cached K and V entries."""
        return sum(len(layer) * self.token_nbytes() for layer in self.layers)

    def release(self) -> None:
        """Deregister all layer buffers from the offload manager.

        Frees the tier usage accounted to this store (the NumPy arrays are
        garbage-collected with the store itself).  Safe to call twice; used
        by the serving engine when a request retires.
        """
        if self.offload is None or self._released:
            return
        for layer_idx in range(self.n_layers):
            self.offload.release(self._buffer_name(layer_idx))
        self._released = True

    def _buffer_name(self, layer_idx: int) -> str:
        return f"{self.buffer_prefix}kv_layer_{layer_idx}"
