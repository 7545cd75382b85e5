"""Tests for the tiered-memory capacity harness (:mod:`repro.capacity`).

Covers the tier substrate (budget parsing, the pinned off-by-one of
:class:`CapacityExceeded`), the host->SSD spill pager (bit-identical
round trips, real byte movement), memory-ledger conservation across
every KV lifecycle path (admission, prefix attaches, checkpoint
restores, cross-engine migration, retirement), and the sweep-to-failure
scenario harness (deterministic byte-identical reports, frontier
semantics).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import EngineSpec, Session
from repro.capacity import (
    CapacityPoint,
    CapacityReport,
    CapacityScenarioConfig,
    HostSpillManager,
    SCENARIOS,
    probe_point,
    run_scenario,
)
from repro.memory import (
    CapacityExceeded,
    MemoryLedgerDrift,
    MemoryTier,
    OffloadManager,
    TierBudgets,
    TierKind,
    TransferDirection,
    parse_size,
)
from repro.model.kv_cache import LayerKVCache

# The pinned reference budgets of the capacity benchmark: tight enough
# that a 192-token x 3-request burst fits only by spilling to SSD.
TIERS = "gpu=320KiB,host=448KiB,ssd=4MiB"


def capacity_spec(policy: str = "clusterkv", **overrides) -> EngineSpec:
    """The pinned capacity-mode engine used throughout these tests."""
    from repro.serving.bench import serving_policy_spec

    defaults = dict(
        model="serve-sim",
        policy=serving_policy_spec(policy, 8),
        budget=48,
        max_new_tokens=16,
        num_full_layers=1,
        num_sink_tokens=8,
        max_batch_size=3,
        max_prefills_per_step=3,
        tiers=TIERS,
    )
    defaults.update(overrides)
    return EngineSpec(**defaults)


def burst_prompts(num: int, length: int, vocab: int = 2048, seed: int = 0):
    """Seeded equal-length prompts, one per request."""
    rng = np.random.default_rng([seed, length, num])
    return [rng.integers(4, vocab, size=length).astype(np.int64) for _ in range(num)]


class TestTierBudgets:
    def test_parse_size_suffixes(self):
        assert parse_size("320KiB") == 320 * 1024
        assert parse_size("4MiB") == 4 * 1024**2
        assert parse_size("2GB") == 2 * 10**9
        assert parse_size("1024") == 1024
        assert parse_size("none") is None

    def test_parse_spec_with_cpu_alias(self):
        budgets = TierBudgets.parse("gpu=320KiB,cpu=448KiB,ssd=4MiB")
        assert budgets.gpu_bytes == 320 * 1024
        assert budgets.host_bytes == 448 * 1024
        assert budgets.ssd_bytes == 4 * 1024**2

    def test_round_trip(self):
        budgets = TierBudgets.parse(TIERS)
        assert TierBudgets.from_dict(budgets.to_dict()) == budgets

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            TierBudgets.parse("vram=1GiB")

    def test_build_manager_bounds_tiers(self):
        manager = TierBudgets.parse(TIERS).build_manager()
        assert manager.gpu.capacity_bytes == 320 * 1024
        assert manager.cpu.capacity_bytes == 448 * 1024
        assert manager.ssd.capacity_bytes == 4 * 1024**2


class TestCapacityExceededOffByOne:
    """Pin the boundary: exactly-at-capacity fits, one byte more raises."""

    def test_allocate_boundary(self):
        tier = MemoryTier(TierKind.GPU, capacity_bytes=1024)
        tier.allocate("a", 1024)  # exactly full: fine
        tier.free("a")
        tier.allocate("b", 1023)
        tier.allocate("c", 1)  # lands exactly on capacity: fine
        with pytest.raises(CapacityExceeded):
            tier.allocate("d", 1)

    def test_resize_boundary(self):
        tier = MemoryTier(TierKind.CPU, capacity_bytes=1024)
        tier.allocate("a", 512)
        tier.resize("a", 1024)  # grows exactly to capacity: fine
        with pytest.raises(CapacityExceeded):
            tier.resize("a", 1025)

    def test_structured_fields(self):
        tier = MemoryTier(TierKind.SSD, capacity_bytes=100)
        tier.allocate("a", 60)
        with pytest.raises(CapacityExceeded) as excinfo:
            tier.allocate("b", 41)
        error = excinfo.value
        assert error.tier is TierKind.SSD
        assert error.name == "b"
        assert error.needed_bytes == 41
        assert error.used_bytes == 60
        assert error.capacity_bytes == 100


class TestSpanEviction:
    def test_evict_restore_bit_identity(self, rng):
        cache = LayerKVCache(0, n_kv_heads=2, head_dim=4)
        data = rng.normal(size=(2, 64, 4))
        cache.append(data, data * 2.0)
        before_k = cache.keys.copy()
        before_v = cache.values.copy()
        payload = cache.evict_span(16, 48)
        # The evicted span really is gone from the live buffer.
        assert np.all(cache.keys[:, 16:48, :] == 0.0)
        assert np.any(before_k[:, 16:48, :] != 0.0)
        cache.restore_span(16, 48, payload)
        np.testing.assert_array_equal(cache.keys, before_k)
        np.testing.assert_array_equal(cache.values, before_v)

    def test_restore_rejects_wrong_length(self, rng):
        cache = LayerKVCache(0, n_kv_heads=1, head_dim=4)
        data = rng.normal(size=(1, 8, 4))
        cache.append(data, data)
        payload = cache.evict_span(0, 4)
        with pytest.raises(ValueError):
            cache.restore_span(0, 8, payload)


class TestSpillRecallEndToEnd:
    def test_spill_happens_and_outputs_bit_identical(self):
        """Capacity-mode decoding spills to SSD yet decodes the exact
        same tokens as the unbounded engine."""
        prompts = burst_prompts(3, 192)
        bounded = Session(capacity_spec())
        unbounded = Session(dataclasses.replace(capacity_spec(), tiers=None))
        for session in (bounded, unbounded):
            for index, prompt in enumerate(prompts):
                session.submit(prompt, request_id=f"r{index}")
            session.run()
        stats = bounded.engine.spill.stats()
        assert stats["spill_events"] > 0
        assert stats["recall_events"] > 0
        ledger = bounded.engine.offload.ledger
        assert ledger.total_bytes(TransferDirection.HOST_TO_SSD) > 0
        assert ledger.total_bytes(TransferDirection.SSD_TO_HOST) > 0
        for rid in ("r0", "r1", "r2"):
            assert (
                bounded.results()[rid].output_ids == unbounded.results()[rid].output_ids
            )
            assert (
                bounded.results()[rid].output_logprobs
                == unbounded.results()[rid].output_logprobs
            )

    def test_ssd_exhaustion_raises(self):
        """With the SSD tier too small to absorb the spill, the host
        wall surfaces as a typed CapacityExceeded."""
        session = Session(capacity_spec(tiers="gpu=320KiB,host=448KiB,ssd=64KiB"))
        for index, prompt in enumerate(burst_prompts(3, 192)):
            session.submit(prompt, request_id=f"r{index}")
        with pytest.raises(CapacityExceeded) as excinfo:
            session.run()
        assert excinfo.value.tier in (TierKind.CPU, TierKind.SSD)

    def test_full_policy_hits_gpu_wall(self):
        """The dense baseline cannot even admit the pinned burst."""
        session = Session(capacity_spec("full"))
        for index, prompt in enumerate(burst_prompts(3, 192)):
            session.submit(prompt, request_id=f"r{index}")
        with pytest.raises(CapacityExceeded) as excinfo:
            session.run()
        assert excinfo.value.tier is TierKind.GPU


class TestMemoryConservation:
    """Satellite: every KV alloc/release flow reconciles against the ledger."""

    def test_invariants_hold_every_step_at_the_wall(self):
        session = Session(capacity_spec())
        for index, prompt in enumerate(burst_prompts(3, 192)):
            session.submit(prompt, request_id=f"r{index}")
        while session.engine.queue or session.engine.num_active:
            session.step()
            used = session.engine.check_memory_invariants()
            assert used["gpu"] <= 320 * 1024
            assert used["cpu"] <= 448 * 1024
            assert used["ssd"] <= 4 * 1024**2
        # After retirement everything is released.
        assert session.engine.check_memory_invariants() == {
            "gpu": 0,
            "cpu": 0,
            "ssd": 0,
        }

    def test_orphan_registration_is_caught(self):
        session = Session(capacity_spec())
        session.engine.offload.register("ghost", 128, TierKind.GPU)
        with pytest.raises(MemoryLedgerDrift, match="ghost"):
            session.engine.check_memory_invariants()

    def test_size_drift_is_caught(self):
        session = Session(capacity_spec())
        session.submit(burst_prompts(1, 64)[0], request_id="r0")
        session.step()
        store = session.engine._active[0].sequence.kv_store
        name = store._buffer_name(0)
        recorded = session.engine.offload.cpu.allocation_bytes(name)
        session.engine.offload.resize(name, recorded + 64)
        with pytest.raises(MemoryLedgerDrift):
            session.engine.check_memory_invariants()

    def test_invariants_across_prefix_attach(self):
        spec = capacity_spec(prefix_cache_tokens=512)
        session = Session(spec)
        prompt = burst_prompts(1, 96)[0]
        session.submit(np.concatenate([prompt, prompt[:8]]), request_id="r0")
        session.run()
        # Second request shares the 96-token prefix: it attaches cached KV.
        session.submit(np.concatenate([prompt, prompt[8:16]]), request_id="r1")
        while session.engine.queue or session.engine.num_active:
            session.step()
            session.engine.check_memory_invariants()
        assert session.results()["r1"].cached_prefix_tokens > 0

    def test_invariants_across_checkpoint_restore(self):
        session = Session(capacity_spec())
        session.submit(burst_prompts(1, 96)[0], request_id="r0")
        for _ in range(4):
            session.step()
        checkpoint = session.engine.checkpoint_request("r0", keep=False)
        session.engine.check_memory_invariants()
        session.engine.restore_request(checkpoint)
        session.engine.check_memory_invariants()
        session.run()
        assert session.engine.check_memory_invariants() == {
            "gpu": 0,
            "cpu": 0,
            "ssd": 0,
        }

    def test_invariants_across_migration(self):
        """A checkpoint restored on a *different* engine registers its KV
        (and staging reservation) on the destination's ledger."""
        source = Session(capacity_spec())
        source.submit(burst_prompts(1, 96)[0], request_id="r0")
        for _ in range(4):
            source.step()
        checkpoint = source.engine.checkpoint_request("r0", keep=False)
        assert source.engine.check_memory_invariants() == {
            "gpu": 0,
            "cpu": 0,
            "ssd": 0,
        }
        destination = Session(capacity_spec())
        destination.engine.restore_request(checkpoint)
        used = destination.engine.check_memory_invariants()
        assert used["cpu"] > 0  # the migrated KV lives on the host tier
        while destination.engine.queue or destination.engine.num_active:
            destination.step()
            destination.engine.check_memory_invariants()


class TestScenarios:
    def test_registry(self):
        assert SCENARIOS.names() == (
            "capacity_frontier",
            "latency_curve",
            "oom_finder",
        )
        with pytest.raises(ValueError, match="unknown capacity scenario"):
            SCENARIOS.build("nope")

    def test_probe_point_feasible_and_infeasible(self):
        config = CapacityScenarioConfig()
        ok = probe_point(config, config.policies[0], 192, 3)
        assert ok.feasible and ok.failed_tier is None
        assert ok.transfers["h2s"] > 0 and ok.transfers["s2h"] > 0
        assert ok.duration_s > 0.0
        bad = probe_point(config, config.policies[1], 192, 3)
        assert not bad.feasible
        assert bad.failed_tier == "gpu"
        assert bad.duration_s == 0.0

    def test_oom_finder_matches_frontier_grid(self):
        """Bisection and exhaustive grid agree on the frontier."""
        config = CapacityScenarioConfig(concurrencies=(3,))
        fast = run_scenario("oom_finder", config)
        slow = run_scenario("capacity_frontier", config)
        assert fast.frontier == slow.frontier
        assert len(fast.points) <= len(slow.points)

    def test_frontier_monotone_in_concurrency(self):
        report = run_scenario("capacity_frontier")
        for policy in report.policies:
            edge = report.frontier[policy]
            contexts = [edge[str(c)] for c in (1, 2, 3)]
            assert contexts == sorted(contexts, reverse=True)

    def test_report_byte_reproducible_and_round_trips(self):
        config = CapacityScenarioConfig(
            concurrencies=(3,), context_min=192, context_max=192
        )
        first = run_scenario("capacity_frontier", config)
        second = run_scenario("capacity_frontier", config)
        assert first.to_json() == second.to_json()
        assert CapacityReport.from_json(first.to_json()).to_json() == first.to_json()
        payload = json.loads(first.to_json())
        assert sorted(payload) == list(payload)  # canonical key order

    def test_latency_curve_stops_at_collapse(self):
        config = CapacityScenarioConfig(rates=(0.25, 0.5), concurrencies=(3,))
        report = run_scenario("latency_curve", config)
        for policy in report.policies:
            assert "max_rate" in report.frontier[policy]
        by_policy: dict[str, list[CapacityPoint]] = {}
        for point in report.points:
            by_policy.setdefault(point.policy, []).append(point)
        for policy, points in by_policy.items():
            # Only the last probed rate of a policy may be a failure.
            for point in points[:-1]:
                assert point.feasible
                assert point.slo_attainment >= config.slo_floor


class TestCapacityCLI:
    def test_capacity_bench_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "capacity-bench",
                "--scenario",
                "oom_finder",
                "--sweep",
                "64:192:64",
                "--concurrency",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=oom_finder" in out
        assert "frontier clusterkv" in out

    def test_capacity_bench_json(self, capsys):
        from repro.cli import main

        code = main(
            [
                "capacity-bench",
                "--sweep",
                "192:192:64",
                "--concurrency",
                "3",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "capacity_frontier"

    def test_malformed_sweep_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as usage:
            main(["capacity-bench", "--sweep", "sideways"])
        assert usage.value.code == 2
        assert "repro capacity-bench: error: malformed --sweep 'sideways'" in (
            capsys.readouterr().err
        )

    def test_listing_mentions_capacity(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "capacity-bench" in out
        assert "capacity_frontier" in out


class TestSpillManagerUnit:
    def test_make_room_raises_when_everything_spilled(self):
        manager = OffloadManager()
        manager.cpu.capacity_bytes = 64
        spill = HostSpillManager(manager, page_tokens=4)
        with pytest.raises(CapacityExceeded) as excinfo:
            spill.make_room(128)
        assert excinfo.value.tier is TierKind.CPU

    def test_make_room_noop_when_host_has_space(self):
        manager = OffloadManager()
        spill = HostSpillManager(manager, page_tokens=4)
        spill.make_room(1024)  # plenty of room: nothing to do
        assert spill.stats()["spill_events"] == 0
