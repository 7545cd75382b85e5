"""Host-to-SSD pager: spills cold KV cluster pages under host-tier pressure.

ClusterKV keeps the *full* KV cache host-resident and recalls only the
selected clusters to the GPU each decode step.  When the host tier itself
is bounded (:class:`~repro.memory.TierBudgets`), the coldest pages of the
host cache are demoted one level further, to the SSD tier, and recalled on
re-access — every crossing recorded on the transfer ledger and priced by
the perf model at NVMe bandwidth.

The pager moves *real* payload bytes: an evicted page is serialized out of
the live layer buffer (which is zeroed in place) and written back verbatim
on recall, so the spill round-trip tests can prove bit-identity rather
than trusting the accounting.  Pages are fixed spans of
``page_tokens`` KV tokens per layer; eviction order is LRU over page
accesses (the reads issued by cluster selection), deterministic because
every structure is an insertion-ordered dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memory import CapacityExceeded, OffloadManager, TierKind
from ..model.kv_cache import KVCacheStore

__all__ = ["HostSpillManager", "StorePager"]

PageKey = tuple[str, int, int]


@dataclass
class _SpilledPage:
    """Payload and span of one page currently resident on the SSD tier."""

    start: int
    end: int
    payload: bytes


class StorePager:
    """Per-store handle a :class:`KVCacheStore` calls into on reads/appends.

    Thin adapter binding a store's ``request_id`` to the shared
    :class:`HostSpillManager`; the store itself stays ignorant of request
    identity.
    """

    def __init__(self, manager: "HostSpillManager", request_id: str) -> None:
        self.manager = manager
        self.request_id = request_id

    def before_read(
        self,
        store: KVCacheStore,
        layer_idx: int,
        indices_per_head: np.ndarray | list[np.ndarray] | None,
    ) -> None:
        """Recall any spilled pages a read of these index rows would touch (all pages if ``None``)."""
        self.manager.before_read(self.request_id, store, layer_idx, indices_per_head)

    def make_room(self, store: KVCacheStore, nbytes: int, step: int = -1) -> None:
        """Spill cold pages until the host tier can grow by ``nbytes``."""
        self.manager.make_room(nbytes, step)


class HostSpillManager:
    """LRU pager demoting cold host-resident KV pages to the SSD tier.

    One manager serves every CPU-resident store of an engine; stores are
    registered as requests are admitted and unregistered when they retire.
    Only *compressed* layers are spill-eligible (full-attention layers read
    their whole KV every step, so spilling them would only thrash), and
    only completely filled pages are candidates (the growing tail page is
    being appended to).
    """

    def __init__(self, offload: OffloadManager, page_tokens: int = 32) -> None:
        if page_tokens <= 0:
            raise ValueError("page_tokens must be positive")
        self.offload = offload
        self.page_tokens = page_tokens
        self._stores: dict[str, KVCacheStore] = {}
        self._eligible: dict[str, tuple[int, ...]] = {}
        # Insertion-ordered dict used as an LRU: oldest key first.
        self._resident: dict[PageKey, None] = {}
        self._spilled: dict[PageKey, _SpilledPage] = {}
        self._page_counts: dict[tuple[str, int], int] = {}
        self._recalling: set[PageKey] = set()
        self.step_spilled_tokens = 0
        self.step_recalled_tokens = 0
        self.total_spilled_bytes = 0
        self.total_recalled_bytes = 0
        self.spill_events = 0
        self.recall_events = 0

    # ------------------------------------------------------------------
    # store lifecycle
    # ------------------------------------------------------------------
    def manage(
        self, request_id: str, store: KVCacheStore, eligible_layers: tuple[int, ...]
    ) -> None:
        """Attach a pager to ``store`` and make its pages spill candidates."""
        if request_id in self._stores:
            raise ValueError(f"request {request_id!r} is already managed")
        self._stores[request_id] = store
        self._eligible[request_id] = tuple(eligible_layers)
        store.pager = StorePager(self, request_id)
        self._sync(request_id)

    def unmanage(self, request_id: str) -> None:
        """Detach a store; drops its pages (tier bytes are freed by the store)."""
        store = self._stores.pop(request_id, None)
        if store is None:
            return
        if store.pager is not None:
            store.pager = None
        for layer_idx in self._eligible.pop(request_id, ()):
            pages = self._page_counts.pop((request_id, layer_idx), 0)
            for page in range(pages):
                key = (request_id, layer_idx, page)
                self._resident.pop(key, None)
                self._spilled.pop(key, None)

    def managed(self, request_id: str) -> bool:
        """Whether a store is registered under ``request_id``."""
        return request_id in self._stores

    def recall_all(self, request_id: str, step: int = -1) -> int:
        """Recall every spilled page of one request (checkpoint/migration path).

        Returns the number of tokens recalled.
        """
        tokens = 0
        for layer_idx in self._eligible.get(request_id, ()):
            pages = self._page_counts.get((request_id, layer_idx), 0)
            for page in range(pages):
                key = (request_id, layer_idx, page)
                if key in self._spilled:
                    tokens += self._recall(key, step)
        return tokens

    # ------------------------------------------------------------------
    # pager entry points
    # ------------------------------------------------------------------
    def before_read(
        self,
        request_id: str,
        store: KVCacheStore,
        layer_idx: int,
        indices_per_head: np.ndarray | list[np.ndarray] | None,
    ) -> None:
        """Recall spilled pages a read would touch and refresh their recency."""
        if request_id not in self._stores or layer_idx not in self._eligible[request_id]:
            return
        self._sync(request_id)
        pages = self._page_counts.get((request_id, layer_idx), 0)
        if not pages:
            return
        if indices_per_head is None:
            touched = range(pages)
        else:
            seen: set[int] = set()
            for idx in indices_per_head:
                if len(idx):
                    seen.update(np.unique(np.asarray(idx, dtype=np.int64) // self.page_tokens).tolist())
            touched = sorted(page for page in seen if page < pages)
        for page in touched:
            key = (request_id, layer_idx, page)
            if key in self._spilled:
                self._recall(key, step=-1)
            elif key in self._resident:
                # Refresh LRU recency.
                del self._resident[key]
                self._resident[key] = None

    def make_room(self, nbytes: int, step: int = -1) -> None:
        """Spill LRU pages until the host tier has ``nbytes`` free.

        Raises :class:`~repro.memory.CapacityExceeded` when every eligible
        page is already spilled and the tier still cannot fit the request —
        the genuine host-tier capacity wall.
        """
        cpu = self.offload.cpu
        if cpu.capacity_bytes is None:
            return
        for request_id in self._stores:
            self._sync(request_id)
        while cpu.free_bytes is not None and cpu.free_bytes < nbytes:
            victim = next(
                (key for key in self._resident if key not in self._recalling), None
            )
            if victim is None:
                raise CapacityExceeded(
                    f"host tier cannot free {nbytes} bytes: all "
                    f"{len(self._spilled)} eligible pages already spilled "
                    f"(used {cpu.used_bytes} of {cpu.capacity_bytes})",
                    tier=TierKind.CPU,
                    name="<spill>",
                    needed_bytes=nbytes,
                    used_bytes=cpu.used_bytes,
                    capacity_bytes=cpu.capacity_bytes,
                )
            self._spill(victim, step)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sync(self, request_id: str) -> None:
        """Register newly filled pages of a store as resident MRU entries."""
        store = self._stores[request_id]
        for layer_idx in self._eligible[request_id]:
            full_pages = len(store.layers[layer_idx]) // self.page_tokens
            known = self._page_counts.get((request_id, layer_idx), 0)
            if full_pages > known:
                for page in range(known, full_pages):
                    self._resident[(request_id, layer_idx, page)] = None
                self._page_counts[(request_id, layer_idx)] = full_pages

    def _spill(self, key: PageKey, step: int) -> None:
        request_id, layer_idx, page = key
        store = self._stores[request_id]
        start = page * self.page_tokens
        end = start + self.page_tokens
        payload = store.layers[layer_idx].evict_span(start, end)
        name = store._buffer_name(layer_idx)
        nbytes = self.page_tokens * store.token_nbytes()
        self.offload.spill_to_ssd(name, nbytes, step=step, tag="kv_spill")
        del self._resident[key]
        self._spilled[key] = _SpilledPage(start, end, payload)
        self.step_spilled_tokens += self.page_tokens
        self.total_spilled_bytes += nbytes
        self.spill_events += 1

    def _recall(self, key: PageKey, step: int) -> int:
        request_id, layer_idx, page = key
        store = self._stores[request_id]
        spilled = self._spilled[key]
        name = store._buffer_name(layer_idx)
        nbytes = self.page_tokens * store.token_nbytes()
        self._recalling.add(key)
        try:
            try:
                self.offload.recall_from_ssd(name, nbytes, step=step, tag="kv_recall")
            except CapacityExceeded:
                # Host tier is full: evict colder pages first, then retry.
                self.make_room(nbytes, step)
                self.offload.recall_from_ssd(name, nbytes, step=step, tag="kv_recall")
        finally:
            self._recalling.discard(key)
        store.layers[layer_idx].restore_span(spilled.start, spilled.end, spilled.payload)
        del self._spilled[key]
        self._resident[key] = None
        self.step_recalled_tokens += self.page_tokens
        self.total_recalled_bytes += nbytes
        self.recall_events += 1
        return self.page_tokens

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def drain_step_counters(self) -> tuple[int, int]:
        """Return and reset the (spilled, recalled) token counts of this step."""
        counts = (self.step_spilled_tokens, self.step_recalled_tokens)
        self.step_spilled_tokens = 0
        self.step_recalled_tokens = 0
        return counts

    def stats(self) -> dict[str, int]:
        """Cumulative spill/recall counters (deterministic, for reports)."""
        return {
            "spill_events": self.spill_events,
            "recall_events": self.recall_events,
            "spilled_bytes": self.total_spilled_bytes,
            "recalled_bytes": self.total_recalled_bytes,
            "pages_on_ssd": len(self._spilled),
        }
