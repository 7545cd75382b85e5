"""Radix-tree prefix cache over token-id sequences.

The cache stores the KV entries of previously prefilled prompts in a
radix (prefix) tree: one node per fixed-size block of token ids, children
keyed by the raw bytes of the next block.  A new request walks the tree
from the root and reuses the KV of the longest chain of matching blocks,
so requests sharing a system prompt or few-shot preamble skip the
quadratic prefill of the shared part entirely.

Three properties make the cache safe inside the deterministic serving
engine:

* **Exactness** — causal attention means the KV entry of position ``p``
  depends only on tokens ``[0, p]``, so a cached block is bit-identical
  to what a fresh prefill of the same prompt prefix would produce.  KV
  blocks are *copied* at insert and attach time (copy-on-write at the
  divergence point: the suffix appends after the copied prefix without
  touching shared state), so the growable per-request KV buffers never
  alias the tree.
* **Refcounting** — matching acquires one reference on every node along
  the matched path; eviction only ever removes unreferenced leaves, so
  KV blocks in use by an in-flight request cannot disappear under it.
* **Determinism** — recency is a logical access counter, not wall time,
  so eviction order (and therefore every downstream report) is a pure
  function of the request sequence.

Semantic state (ClusterKV's per-segment clustering results) piggybacks on
the same nodes, keyed by the exporting policy's full signature, and is
dropped together with the node on eviction.
"""

from __future__ import annotations

import numpy as np

from .config import PrefixCacheConfig

__all__ = ["PrefixMatch", "RadixPrefixCache"]

# Key of one exported semantic segment: (layer index, segment start,
# segment end) in absolute token positions.
SegmentKey = tuple[int, int, int]


class _RadixNode:
    """One cached block of tokens with its per-layer KV slices."""

    __slots__ = (
        "key",
        "parent",
        "children",
        "kv",
        "semantic",
        "refcount",
        "last_access",
    )

    def __init__(
        self,
        key: bytes,
        parent: "_RadixNode | None",
        kv: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: dict[bytes, _RadixNode] = {}
        self.kv = kv
        # policy signature -> {(layer_idx, seg_start, seg_end): payload}
        self.semantic: dict[str, dict[SegmentKey, object]] = {}
        self.refcount = 0
        self.last_access = 0


class PrefixMatch:
    """Handle on a matched prefix: the nodes whose KV a request reuses.

    Holding a match holds one reference on every node of the path, so the
    blocks survive eviction until :meth:`RadixPrefixCache.release` is
    called (the engine releases at request retirement).
    """

    def __init__(self, nodes: tuple[_RadixNode, ...], block_tokens: int) -> None:
        self._nodes = nodes
        self._block_tokens = block_tokens
        self.released = False

    @property
    def num_tokens(self) -> int:
        """Length of the matched prefix in tokens."""
        return len(self._nodes) * self._block_tokens

    @property
    def num_blocks(self) -> int:
        """Number of matched radix-tree nodes."""
        return len(self._nodes)

    def layer_blocks(self) -> list[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Per layer, the matched blocks' cached ``(keys, values)`` in prefix order.

        Each array is ``(n_kv_heads, block_tokens, head_dim)`` and is the
        tree's own block, not a copy: a reader must not write to it
        (:meth:`~repro.model.generation.EngineCore.attach_prefix` copies
        each block once into the request's KV store).
        """
        return list(zip(*(node.kv for node in self._nodes)))

    def semantic_segments(self, signature: str) -> dict[SegmentKey, object]:
        """All semantic segments stored under ``signature`` along the path.

        Segments are attached to the node containing their last token, so
        every returned segment lies entirely within the matched prefix.
        """
        merged: dict[SegmentKey, object] = {}
        for node in self._nodes:
            merged.update(node.semantic.get(signature, {}))
        return merged


class RadixPrefixCache:
    """Refcounted, LRU-evicting radix tree of prefilled prompt prefixes."""

    def __init__(self, config: PrefixCacheConfig | None = None) -> None:
        self.config = config or PrefixCacheConfig()
        self._root = _RadixNode(b"", None, [])
        self._clock = 0
        self._cached_tokens = 0
        self._num_nodes = 0
        self._hits = 0
        self._misses = 0
        self._hit_tokens = 0
        self._inserted_tokens = 0
        self._evicted_tokens = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # lookup / insert / release
    # ------------------------------------------------------------------
    def _block_keys(self, prompt_ids: np.ndarray, num_tokens: int) -> list[bytes]:
        """Byte keys of the full blocks covering ``prompt_ids[:num_tokens]``."""
        block = self.config.block_tokens
        ids = np.ascontiguousarray(np.asarray(prompt_ids[:num_tokens], dtype=np.int64))
        return [ids[start : start + block].tobytes() for start in range(0, num_tokens, block)]

    def match(self, prompt_ids: np.ndarray) -> PrefixMatch | None:
        """Longest cached prefix of ``prompt_ids``, as a refcounted match.

        The match is capped at the largest whole-block multiple strictly
        below the prompt length, so at least one prompt token is always
        left to prefill (the engine needs a final prefill chunk to compute
        the first output distribution and observe the full prompt keys).
        Returns ``None`` — and counts a miss — when not even the first
        block is cached.
        """
        length = int(np.asarray(prompt_ids).shape[0])
        block = self.config.block_tokens
        limit = ((length - 1) // block) * block if length > 1 else 0
        nodes: list[_RadixNode] = []
        if limit > 0:
            node = self._root
            for key in self._block_keys(prompt_ids, limit):
                child = node.children.get(key)
                if child is None:
                    break
                nodes.append(child)
                node = child
        if not nodes:
            self._misses += 1
            return None
        self._clock += 1
        for node in nodes:
            node.refcount += 1
            node.last_access = self._clock
        self._hits += 1
        self._hit_tokens += len(nodes) * block
        return PrefixMatch(tuple(nodes), block)

    def insert(
        self,
        prompt_ids: np.ndarray,
        layer_kv: list[tuple[np.ndarray, np.ndarray]],
        semantic: dict[str, dict[SegmentKey, object]] | None = None,
    ) -> int:
        """Cache the full blocks of a prefilled prompt; returns new tokens cached.

        ``layer_kv`` holds one ``(keys, values)`` pair per model layer,
        each of shape ``(n_kv_heads, >= L, head_dim)``, as produced by the
        request's prefill.  Blocks already present are skipped — causal
        determinism guarantees their stored KV is identical — so repeated
        inserts only ever *extend* the tree.  ``semantic`` optionally maps
        a policy signature to exported segment payloads; each segment is
        attached to the node containing its last token.  Inserting may
        evict unreferenced LRU leaves to stay within the capacity budget.
        """
        length = int(np.asarray(prompt_ids).shape[0])
        block = self.config.block_tokens
        whole = (length // block) * block
        if whole <= 0:
            return 0
        self._clock += 1
        node = self._root
        added = 0
        for index, key in enumerate(self._block_keys(prompt_ids, whole)):
            child = node.children.get(key)
            if child is None:
                start = index * block
                kv = [
                    (
                        np.array(keys[:, start : start + block, :], dtype=np.float64),
                        np.array(values[:, start : start + block, :], dtype=np.float64),
                    )
                    for keys, values in layer_kv
                ]
                child = _RadixNode(key, node, kv)
                node.children[key] = child
                self._num_nodes += 1
                self._cached_tokens += block
                added += block
            child.last_access = self._clock
            node = child
        self._inserted_tokens += added
        if semantic:
            self._attach_semantic(prompt_ids, whole, semantic)
        self._evict_to_capacity()
        return added

    def _attach_semantic(
        self,
        prompt_ids: np.ndarray,
        whole: int,
        semantic: dict[str, dict[SegmentKey, object]],
    ) -> None:
        """Store exported segment payloads on the nodes holding their end token."""
        block = self.config.block_tokens
        path: list[_RadixNode] = []
        node = self._root
        for key in self._block_keys(prompt_ids, whole):
            node = node.children[key]
            path.append(node)
        for signature, segments in semantic.items():
            for seg_key, payload in segments.items():
                _, _, seg_end = seg_key
                if seg_end <= 0 or seg_end > whole:
                    continue
                owner = path[(seg_end - 1) // block]
                owner.semantic.setdefault(signature, {})[seg_key] = payload

    def release(self, match: PrefixMatch) -> None:
        """Drop the references held by a match (idempotent per match)."""
        if match.released:
            return
        match.released = True
        for node in match._nodes:
            node.refcount -= 1
            if node.refcount < 0:
                raise RuntimeError("prefix-cache refcount went negative")

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict_to_capacity(self) -> None:
        """Evict unreferenced LRU leaves until within the capacity budget."""
        capacity = self.config.capacity_tokens
        if capacity is None:
            return
        while self._cached_tokens > capacity:
            victim = self._lru_unreferenced_leaf()
            if victim is None:
                return  # everything over budget is in use; nothing to do
            self._evict(victim)

    def _lru_unreferenced_leaf(self) -> _RadixNode | None:
        """The least recently used leaf with no live references, if any."""
        best: _RadixNode | None = None
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children.values())
            elif node.refcount == 0:
                if best is None or node.last_access < best.last_access:
                    best = node
        return best

    def _evict(self, node: _RadixNode) -> None:
        """Remove one unreferenced leaf node from the tree."""
        assert node.refcount == 0 and not node.children
        parent = node.parent
        assert parent is not None
        del parent.children[node.key]
        node.parent = None
        self._num_nodes -= 1
        self._cached_tokens -= self.config.block_tokens
        self._evicted_tokens += self.config.block_tokens
        self._evictions += 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def cached_tokens(self) -> int:
        """Tokens currently held in the tree (blocks times block size)."""
        return self._cached_tokens

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one block."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        """Deterministic accounting snapshot (all logical counters)."""
        return {
            "block_tokens": self.config.block_tokens,
            "capacity_tokens": self.config.capacity_tokens,
            "cached_tokens": self._cached_tokens,
            "num_nodes": self._num_nodes,
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self.hit_rate,
            "hit_tokens": self._hit_tokens,
            "inserted_tokens": self._inserted_tokens,
            "evicted_tokens": self._evicted_tokens,
            "evictions": self._evictions,
        }

    # ------------------------------------------------------------------
    # invariants (exercised by the property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if a structural invariant is violated."""
        seen_tokens = 0
        stack = [(self._root, True)]
        while stack:
            node, is_root = stack.pop()
            if not is_root:
                seen_tokens += self.config.block_tokens
                assert node.refcount >= 0, "negative refcount"
                assert node.parent is not None and node.parent.children.get(node.key) is node
            for child in node.children.values():
                stack.append((child, False))
        assert seen_tokens == self._cached_tokens, (
            f"cached_tokens accounting drifted: walked {seen_tokens}, "
            f"recorded {self._cached_tokens}"
        )
        assert self._inserted_tokens - self._evicted_tokens == self._cached_tokens
