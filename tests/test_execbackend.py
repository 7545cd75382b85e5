"""Differential tests of the execution-backend layer (:mod:`repro.execbackend`).

The load-bearing guarantee: the multiprocess backend — engines living in
worker processes over shared read-only weights — produces reports,
per-request tokens/logprobs and deterministic op counters **byte-identical**
to the in-process serial path, across every control-plane feature that
crosses the process boundary (failure kills, drain migration, checkpoint
recovery, tiered-capacity exhaustion).  Wall-clock observability rides
along but stays out of the serialized report.
"""

import gc
import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import EngineSpec
from repro.capacity.scenarios import (
    CapacityScenarioConfig,
    _burst_requests,
    probe_point,
)
from repro.cli import build_parser, main
from repro.cluster import (
    ClusterBenchConfig,
    ClusterConfig,
    ClusterSimulator,
    FailurePlan,
    run_cluster_bench,
)
from repro.execbackend import MultiprocessBackend, WorkerCrashed
from repro.execbackend.mp import _model_digest
from repro.memory import CapacityExceeded
from repro.model import _lanes
from repro.perf.counters import count_ops
from repro.serving.bench import serving_engine_spec
from repro.traffic.bench import (
    TrafficBenchConfig,
    WorkloadSpec,
    build_bench_requests,
    run_traffic_bench,
)
from repro.traffic.simulator import TrafficConfig


def traffic_config(
    backend: str = "serial", speculate_k: int = 0, **fleet
) -> TrafficBenchConfig:
    """Small three-policy workload: quick to run, exercises mixed traffic."""
    return TrafficBenchConfig(
        workload=WorkloadSpec(
            policies=("clusterkv", "quest", "full"),
            num_requests=6,
            rate=2.0,
            prompt_len_min=24,
            prompt_len_max=40,
            seed=3,
        ),
        fleet=TrafficConfig(
            engine=serving_engine_spec(
                max_new_tokens=8, backend=backend, speculate_k=speculate_k
            ),
            num_replicas=2,
            router="jsq",
            **fleet,
        ),
    )


def cluster_config(**fleet) -> ClusterBenchConfig:
    fleet = {"autoscaler": "slo_attainment", **fleet}
    return ClusterBenchConfig(
        workload=WorkloadSpec(
            policies=("quest",),
            num_requests=6,
            rate=2.0,
            prompt_len_min=24,
            prompt_len_max=40,
            seed=7,
        ),
        fleet=ClusterConfig(
            engine=serving_engine_spec(max_new_tokens=8),
            min_replicas=2,
            max_replicas=3,
            router="jsq",
            **fleet,
        ),
    )


def capacity_config(workers=None, **engine) -> CapacityScenarioConfig:
    """The default capacity setup decoding 8 tokens, with engine overrides."""
    fleet = CapacityScenarioConfig().fleet
    engine = replace(fleet.engine, max_new_tokens=8, **engine)
    return CapacityScenarioConfig(fleet=replace(fleet, engine=engine, workers=workers))


def run_traffic(config: TrafficBenchConfig, requests=None):
    """Run the benchmark workload, returning (report, raw per-request outputs)."""
    with ClusterSimulator(config.fleet) as sim:
        report = sim.run(build_bench_requests(config) if requests is None else requests)
        outputs = {
            request_id: (
                np.asarray(item.result.output_ids),
                np.asarray(item.result.output_logprobs),
            )
            for request_id, item in sim.completed.items()
        }
    return report, outputs


def assert_outputs_identical(left, right):
    assert left.keys() == right.keys()
    for request_id in left:
        assert np.array_equal(left[request_id][0], right[request_id][0])
        assert np.array_equal(left[request_id][1], right[request_id][1])


# ----------------------------------------------------------------------
# traffic parity
# ----------------------------------------------------------------------
class TestTrafficParity:
    def test_mixed_policies_byte_identical(self):
        # speculate_k=3 adds speculative rounds with rejections on both sides.
        for speculate_k in (0, 3):
            with count_ops() as serial_ops:
                serial, serial_outputs = run_traffic(
                    traffic_config(speculate_k=speculate_k)
                )
            with count_ops() as parallel_ops:
                parallel, parallel_outputs = run_traffic(
                    traffic_config(speculate_k=speculate_k, workers=2)
                )
            assert serial.to_json() == parallel.to_json()
            assert_outputs_identical(serial_outputs, parallel_outputs)
            # Deterministic GEMM/op counters merge to the same totals.
            assert serial_ops.as_dict() == parallel_ops.as_dict()
            assert serial_ops.as_dict()  # non-trivial: the engines did work
            assert parallel.wall["backend"]["name"] == "multiprocess"
            assert parallel.wall["backend"]["workers"] == 2
            assert (serial.speculation()["rejected_tokens"] > 0) == (speculate_k > 0)

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_long_prompt_after_a_laned_parent_prefill(self, monkeypatch, cpus):
        """The pool forks after the parent has prefilled on several lanes.

        The serial run prefills the 1100-token prompt on ``cpus`` lanes in
        this process; the two workers forked afterwards cap themselves at
        ``cpus // 2`` lanes each (1 = the serial path, 2 = threads inside a
        forked worker).  Same report bytes, same outputs, same op counters.
        """
        monkeypatch.setattr(_lanes, "available_cpus", lambda: cpus)
        requests = build_bench_requests(traffic_config())
        long_prompt = np.random.default_rng(11).integers(4, 2048, size=1100)
        requests[0] = replace(requests[0], prompt_ids=long_prompt)
        with count_ops() as serial_ops:
            serial, serial_outputs = run_traffic(traffic_config(), requests)
        threads = threading.active_count()
        with count_ops() as parallel_ops:
            parallel, parallel_outputs = run_traffic(traffic_config(workers=2), requests)
        assert serial.to_json() == parallel.to_json()
        assert_outputs_identical(serial_outputs, parallel_outputs)
        assert serial_ops.as_dict() == parallel_ops.as_dict()
        assert threading.active_count() == threads
        assert _lanes._lane_cap is None  # the cap is the workers', not the parent's

    def test_backend_spec_field_selects_multiprocess(self):
        report = run_traffic_bench(traffic_config(backend="multiprocess"))
        assert report.wall["backend"]["name"] == "multiprocess"
        assert run_traffic_bench(traffic_config()).to_json() == report.to_json()


# ----------------------------------------------------------------------
# cluster parity: failures, checkpoints, drain migration
# ----------------------------------------------------------------------
class TestClusterParity:
    def test_failure_kill_and_checkpoint_recovery(self):
        overrides = dict(
            failures=FailurePlan.seeded(seed=7, num_failures=2, horizon_s=3.0),
            checkpoint_interval_s=0.5,
        )
        serial = run_cluster_bench(cluster_config(**overrides))
        parallel = run_cluster_bench(cluster_config(workers=2, **overrides))
        assert serial.to_json() == parallel.to_json()
        assert serial.num_recoveries or serial.failures  # the plan actually fired

    def test_drain_migration(self):
        overrides = dict(
            autoscaler="queue_depth",
            migrate_on_drain=True,
        )
        serial = run_cluster_bench(cluster_config(**overrides))
        parallel = run_cluster_bench(cluster_config(workers=2, **overrides))
        assert serial.to_json() == parallel.to_json()


# ----------------------------------------------------------------------
# capacity parity: tier exhaustion across the process boundary
# ----------------------------------------------------------------------
class TestCapacityParity:
    TIGHT = "gpu=64KiB,host=64KiB,ssd=128KiB"

    def test_probe_points_identical(self):
        serial_cfg = capacity_config()
        parallel_cfg = capacity_config(workers=1)
        for context in (64, 192):
            serial = probe_point(serial_cfg, serial_cfg.policies[0], context, 2)
            parallel = probe_point(
                parallel_cfg, parallel_cfg.policies[0], context, 2
            )
            assert serial == parallel

    def test_infeasible_point_reports_failed_tier(self):
        config = capacity_config(workers=1, tiers=self.TIGHT)
        point = probe_point(config, config.policies[-1], 192, 3)
        assert not point.feasible
        assert point.failed_tier is not None
        serial = capacity_config(tiers=self.TIGHT)
        assert point == probe_point(serial, serial.policies[-1], 192, 3)

    def test_capacity_exceeded_crosses_process_boundary(self):
        """The typed exception arrives intact — class and tier attribute."""
        config = capacity_config(workers=1, tiers=self.TIGHT)
        requests = _burst_requests(config, 192, 3)
        with ClusterSimulator(config.traffic_config(config.policies[-1], 3)) as sim:
            with pytest.raises(CapacityExceeded) as excinfo:
                sim.run(requests)
        assert excinfo.value.tier.value in ("gpu", "cpu", "ssd")


# ----------------------------------------------------------------------
# worker lifecycle
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_worker_crash_raises_typed_error(self):
        spec = EngineSpec(model="serve-sim", max_new_tokens=8)
        backend = MultiprocessBackend(spec.build_model(), spec, workers=1)
        try:
            handle = backend.create_handle()
            client = backend._clients[0]
            client.process.kill()
            client.process.join(timeout=10)
            with pytest.raises(WorkerCrashed):
                handle.start_step()
                handle.finish_step()
        finally:
            backend.close()

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        """A multiprocess spec without a worker count forks no more than the CPUs."""
        monkeypatch.setattr(_lanes, "available_cpus", lambda: 1)
        fleet = replace(traffic_config(backend="multiprocess").fleet, num_replicas=3)
        with ClusterSimulator(fleet) as sim:
            assert sim._backend.workers == 1

    def test_dropped_simulator_leaves_no_live_worker(self):
        """The backend's GC safety net reaps workers nobody closed."""
        config = traffic_config(workers=2)
        sim = ClusterSimulator(config.fleet)
        sim.run(build_bench_requests(config)[:2])
        processes = [client.process for client in sim._backend._clients]
        assert all(process.is_alive() for process in processes)
        del sim
        gc.collect()
        assert not any(process.is_alive() for process in processes)

    def test_close_is_idempotent(self):
        spec = EngineSpec(model="serve-sim", max_new_tokens=8)
        backend = MultiprocessBackend(spec.build_model(), spec, workers=1)
        backend.close()
        backend.close()

    def test_worker_weights_match_parent(self):
        """Shared-arena rebuild is bit-identical in every worker."""
        config = traffic_config(workers=2)
        with ClusterSimulator(config.fleet) as sim:
            parent = _model_digest(sim.model)
            digests = sim._backend.model_digests()
        assert len(digests) == 2
        assert all(digest == parent for digest in digests.values())


# ----------------------------------------------------------------------
# wall-clock observability stays out of the serialized report
# ----------------------------------------------------------------------
class TestWallObservability:
    def test_wall_fields_present_but_unserialized(self):
        report = run_traffic_bench(traffic_config())
        assert set(report.wall) >= {"run_wall_s", "step_wall_s", "replicas", "backend"}
        assert len(report.wall["replicas"]) == 2
        for entry in report.wall["replicas"]:
            assert set(entry) == {"replica", "step_wall_s", "idle_wall_s"}
            assert entry["step_wall_s"] >= 0.0
        assert report.wall["backend"]["name"] == "serial"
        assert "wall" not in report.to_dict()
        assert "wall" not in json.loads(report.to_json())


# ----------------------------------------------------------------------
# spec and CLI surface
# ----------------------------------------------------------------------
class TestSpecSurface:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            EngineSpec(backend="threads")

    def test_backend_round_trips(self):
        spec = EngineSpec(backend="multiprocess")
        assert spec.to_dict()["backend"] == "multiprocess"
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            traffic_config(workers=0)


class TestCLISurface:
    def test_backend_flags_registered(self):
        parser = build_parser()
        for command in ("traffic-bench", "cluster-bench", "capacity-bench"):
            args = parser.parse_args(
                [command, "--backend", "multiprocess", "--workers", "2"]
            )
            assert args.backend == "multiprocess"
            assert args.workers == 2

    def test_backend_choices_enforced(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["traffic-bench", "--backend", "threads"])

    def test_list_mentions_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "execution backends" in out
        assert "--workers" in out
