"""Unit tests for the KV cache store and the memory-tier substrate."""

import numpy as np
import pytest

from repro.memory import (
    MemoryCapacityError,
    MemoryTier,
    OffloadManager,
    TierKind,
    TransferDirection,
    TransferLedger,
)
from repro.model.kv_cache import KVCacheStore, LayerKVCache


class TestLayerKVCache:
    def test_append_and_views(self, rng):
        cache = LayerKVCache(0, n_kv_heads=2, head_dim=4)
        keys = rng.normal(size=(2, 3, 4))
        values = rng.normal(size=(2, 3, 4))
        cache.append(keys, values)
        assert len(cache) == 3
        np.testing.assert_array_equal(cache.keys, keys)
        np.testing.assert_array_equal(cache.values, values)

    def test_growth_preserves_content(self, rng):
        cache = LayerKVCache(0, 1, 4, initial_capacity=2)
        first = rng.normal(size=(1, 2, 4))
        cache.append(first, first)
        second = rng.normal(size=(1, 10, 4))
        cache.append(second, second)
        assert len(cache) == 12
        np.testing.assert_array_equal(cache.keys[:, :2, :], first)
        np.testing.assert_array_equal(cache.keys[:, 2:, :], second)

    def test_gather(self, rng):
        cache = LayerKVCache(0, 2, 4)
        keys = rng.normal(size=(2, 5, 4))
        cache.append(keys, keys.copy())
        gathered_k, gathered_v = cache.gather(1, np.array([0, 3]))
        np.testing.assert_array_equal(gathered_k, keys[1, [0, 3], :])
        np.testing.assert_array_equal(gathered_v, keys[1, [0, 3], :])

    def test_gather_out_of_range_raises(self, rng):
        cache = LayerKVCache(0, 1, 4)
        cache.append(rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 4)))
        with pytest.raises(IndexError):
            cache.gather(0, np.array([5]))

    def test_gather_many_fills_the_workspace_like_per_head_gather(self, rng):
        """Equal and ragged rows land where per-head gather puts them; tails stay."""
        cache = LayerKVCache(0, 3, 4)
        cache.append(rng.normal(size=(3, 40, 4)), rng.normal(size=(3, 40, 4)))
        equal = np.sort(rng.permutation(40)[:21].reshape(3, 7), axis=1)
        ragged = [np.array([0, 5, 39]), np.arange(10, 19), np.array([7])]
        for rows in (equal, ragged):
            keys = np.full((3, 12, 4), 7.0)
            values = np.full((3, 12, 4), 7.0)
            lengths = np.zeros(3, dtype=np.int64)
            cache.gather_many(rows, out=(keys, values, lengths))
            for head, row in enumerate(rows):
                size = len(row)
                expected_keys, expected_values = cache.gather(head, row)
                assert lengths[head] == size
                assert np.array_equal(keys[head, :size], expected_keys)
                assert np.array_equal(values[head, :size], expected_values)
                assert np.all(keys[head, size:] == 7.0) and np.all(values[head, size:] == 7.0)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_gather_many_out_of_range_raises(self, rng, bad):
        store = KVCacheStore(n_layers=2, n_kv_heads=2, head_dim=4)
        store.append(1, rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4)))
        out = (np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64))
        for rows in (np.array([[0, 1, bad], [0, 1, 2]]), [np.array([0, 1]), np.array([bad])]):
            with pytest.raises(IndexError, match="layer 1"):
                store.gather_many(1, rows, out=out)

    def test_shape_mismatch_raises(self, rng):
        cache = LayerKVCache(0, 2, 4)
        with pytest.raises(ValueError):
            cache.append(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 2, 4)))


class TestMemoryTier:
    def test_allocate_and_free(self):
        tier = MemoryTier(TierKind.GPU, capacity_bytes=100)
        tier.allocate("a", 60)
        assert tier.used_bytes == 60
        assert tier.free_bytes == 40
        tier.free("a")
        assert tier.used_bytes == 0

    def test_capacity_enforced(self):
        tier = MemoryTier(TierKind.GPU, capacity_bytes=100)
        tier.allocate("a", 90)
        with pytest.raises(MemoryCapacityError):
            tier.allocate("b", 20)

    def test_peak_tracking(self):
        tier = MemoryTier(TierKind.CPU)
        tier.allocate("a", 50)
        tier.allocate("b", 30)
        tier.free("a")
        assert tier.peak_bytes == 80
        assert tier.used_bytes == 30

    def test_resize(self):
        tier = MemoryTier(TierKind.GPU, capacity_bytes=100)
        tier.allocate("a", 10)
        tier.resize("a", 70)
        assert tier.used_bytes == 70
        with pytest.raises(MemoryCapacityError):
            tier.resize("a", 200)

    def test_duplicate_allocation_rejected(self):
        tier = MemoryTier(TierKind.GPU)
        tier.allocate("a", 1)
        with pytest.raises(ValueError):
            tier.allocate("a", 1)


class TestTransferLedger:
    def test_totals_and_filters(self):
        ledger = TransferLedger()
        ledger.record(TransferDirection.HOST_TO_DEVICE, 100, "kv_fetch", step=0)
        ledger.record(TransferDirection.HOST_TO_DEVICE, 50, "kv_fetch", step=1)
        ledger.record(TransferDirection.DEVICE_TO_HOST, 30, "kv_offload", step=1)
        assert ledger.total_bytes() == 180
        assert ledger.total_bytes(TransferDirection.HOST_TO_DEVICE) == 150
        assert ledger.total_bytes(tag="kv_offload") == 30
        assert ledger.bytes_per_step(TransferDirection.HOST_TO_DEVICE) == {0: 100, 1: 50}

    def test_negative_size_rejected(self):
        ledger = TransferLedger()
        with pytest.raises(ValueError):
            ledger.record(TransferDirection.HOST_TO_DEVICE, -1, "x")


class TestOffloadManager:
    def test_offload_and_fetch_roundtrip(self):
        manager = OffloadManager()
        manager.register("buf", 1000, TierKind.GPU)
        moved = manager.offload_to_cpu("buf")
        assert moved == 1000
        assert manager.residency("buf") is TierKind.CPU
        moved_back = manager.fetch_to_gpu("buf")
        assert moved_back == 1000
        assert manager.residency("buf") is TierKind.GPU
        assert len(manager.ledger) == 2

    def test_offload_already_on_cpu_is_noop(self):
        manager = OffloadManager()
        manager.register("buf", 10, TierKind.CPU)
        assert manager.offload_to_cpu("buf") == 0

    def test_unknown_buffer_raises(self):
        manager = OffloadManager()
        with pytest.raises(KeyError):
            manager.residency("missing")


class TestKVCacheStore:
    def test_cpu_residency_charges_fetch(self, rng):
        manager = OffloadManager()
        store = KVCacheStore(2, 2, 4, offload=manager, residency=TierKind.CPU)
        store.append(0, rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 4)))
        charged = store.record_fetch(4, step=0)
        assert charged == 4 * store.token_nbytes()
        assert manager.ledger.total_bytes(TransferDirection.HOST_TO_DEVICE) == charged

    def test_gpu_residency_does_not_charge(self, rng):
        manager = OffloadManager()
        store = KVCacheStore(1, 2, 4, offload=manager, residency=TierKind.GPU)
        store.append(0, rng.normal(size=(2, 8, 4)), rng.normal(size=(2, 8, 4)))
        assert store.record_fetch(4, step=0) == 0

    def test_total_bytes_grows_with_tokens(self, rng):
        store = KVCacheStore(2, 2, 4)
        assert store.total_nbytes() == 0
        store.append(0, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
        store.append(1, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
        assert store.total_nbytes() == 2 * 3 * store.token_nbytes()
        assert store.context_length() == 3
