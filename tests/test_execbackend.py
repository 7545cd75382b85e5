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
import hashlib
import json
import os
import signal
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
    Autoscaler,
    ClusterBenchConfig,
    ClusterConfig,
    ClusterSimulator,
    FailurePlan,
    ScaleDecision,
    run_cluster_bench,
)
from repro.execbackend import (
    LocalReplicaHandle,
    MultiprocessBackend,
    SerialBackend,
    StepWindow,
    StepWindowOpen,
    WorkerCrashed,
    engine_state_view,
)
from repro.execbackend.base import serve_command
from repro.execbackend.mp import RemoteReplicaHandle, _model_digest
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
from repro.traffic.clock import PerfModelClock
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
    fleet = {"autoscaler": "slo_attainment", "min_replicas": 2, "max_replicas": 3, **fleet}
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
    return run_traffic_fleet(
        config.fleet, build_bench_requests(config) if requests is None else requests
    )


def run_traffic_fleet(fleet, requests):
    """Simulate ``requests`` on ``fleet``: (report, raw per-request outputs)."""
    with ClusterSimulator(fleet) as sim:
        report = sim.run(requests)
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
# step windows at their boundaries
# ----------------------------------------------------------------------
class DrainBusyOnce(Autoscaler):
    """Hold the fleet at two replicas, then drain one at ``at_s``, busy or not."""

    name = "drain_busy_once"

    def __init__(self, at_s: float) -> None:
        self.at_s = at_s
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def decide(self, view) -> ScaleDecision:
        if not self._fired and len(view.replicas) < 2:
            return ScaleDecision(add=2 - len(view.replicas), reason="hold fleet")
        if not self._fired and view.now_s >= self.at_s:
            self._fired = True
            return ScaleDecision(drain=1, reason="forced drain")
        return ScaleDecision()


def window_cases() -> dict[str, tuple]:
    """(fleet config, requests) per boundary case of the window rule."""
    static = traffic_config()
    saturated = replace(
        static, workload=replace(static.workload, num_requests=8, rate=1000.0)
    )
    cluster = cluster_config()
    checkpointed = cluster_config(checkpoint_interval_s=0.5)
    return {
        "saturated_static": (
            replace(static.fleet, num_replicas=4),
            build_bench_requests(saturated),
        ),
        "failures_pending": (
            cluster_config(
                failures=FailurePlan.seeded(seed=7, num_failures=2, horizon_s=3.0)
            ).fleet,
            build_bench_requests(cluster),
        ),
        "checkpoint_interval": (checkpointed.fleet, build_bench_requests(checkpointed)),
        "migrate_on_drain": (
            cluster_config(
                autoscaler=DrainBusyOnce(at_s=2.0), min_replicas=1, migrate_on_drain=True
            ).fleet,
            build_bench_requests(cluster),
        ),
        "queue_depth_drains": (
            cluster_config(
                autoscaler="queue_depth:high=0.5,low=0.4,cooldown_s=0.1", min_replicas=1
            ).fleet,
            build_bench_requests(cluster),
        ),
    }


def checkpoint_digest(checkpoint) -> tuple:
    """What a periodic checkpoint captured: progress, tokens and the KV bits."""
    kv = hashlib.sha256()
    for array in (*checkpoint.kv_keys, *checkpoint.kv_values):
        kv.update(np.ascontiguousarray(array).tobytes())
    return (
        checkpoint.request_id,
        checkpoint.position,
        checkpoint.decode_step,
        tuple(checkpoint.result.output_ids),
        kv.hexdigest(),
    )


class WindowProbe:
    """Records, in the parent, what the simulator asked of its handles.

    ``windows`` lists every window actually posted to a worker;
    ``checkpoints`` the digest of every periodic checkpoint (either
    backend); ``drains_mid_window`` counts drains sent to a worker while
    one of its replicas had a window open.
    """

    def __init__(self, monkeypatch) -> None:
        self.windows: list[StepWindow] = []
        self.checkpoints: list[tuple] = []
        self.drains_mid_window = 0
        self.handles: list[RemoteReplicaHandle] = []
        probe = self
        start_step = RemoteReplicaHandle.start_step
        drain = RemoteReplicaHandle.drain

        def recording_start_step(handle, window=None):
            if handle not in probe.handles:
                probe.handles.append(handle)
            if window is not None and not handle._stepping:
                probe.windows.append(window)
            start_step(handle, window)

        def recording_drain(handle):
            probe.drains_mid_window += any(
                other._stepping and other._client is handle._client
                for other in probe.handles
            )
            drain(handle)

        monkeypatch.setattr(RemoteReplicaHandle, "start_step", recording_start_step)
        monkeypatch.setattr(RemoteReplicaHandle, "drain", recording_drain)
        for cls in (LocalReplicaHandle, RemoteReplicaHandle):
            checkpoint = cls.checkpoint_request

            def recording_checkpoint(handle, request_id, keep=True, _original=checkpoint):
                result = _original(handle, request_id, keep)
                probe.checkpoints.append(checkpoint_digest(result))
                return result

            monkeypatch.setattr(cls, "checkpoint_request", recording_checkpoint)


class TestStepWindows:
    """Serial ≡ multiprocess where windows open, stop, and must not open."""

    @pytest.mark.parametrize("case", sorted(window_cases()))
    def test_parity_at_window_boundaries(self, case, monkeypatch):
        """Report bytes, tokens, logprobs, op counters and checkpoints agree."""
        fleet, requests = window_cases()[case]
        with monkeypatch.context() as patch, count_ops() as serial_ops:
            serial_probe = WindowProbe(patch)
            serial, serial_outputs = run_traffic_fleet(fleet, requests)
        with monkeypatch.context() as patch, count_ops() as parallel_ops:
            probe = WindowProbe(patch)
            parallel, parallel_outputs = run_traffic_fleet(
                replace(fleet, workers=2), requests
            )
        assert serial.to_json() == parallel.to_json()
        assert_outputs_identical(serial_outputs, parallel_outputs)
        assert serial_ops.as_dict() == parallel_ops.as_dict()
        assert serial_probe.checkpoints == probe.checkpoints

        backend = parallel.wall["backend"]
        assert backend["windows_opened"] == len(probe.windows)
        assert "windows_opened" not in parallel.to_json()
        if case == "saturated_static":
            assert backend["steps_run_ahead"] > 0
        elif case == "failures_pending":
            # No window opened before a failure may run past it: every
            # unbounded window opens after the last failure has fired.
            failure_times = [event.time_s for event in fleet.failures.events]
            assert serial.failures  # the plan fired
            for window in probe.windows:
                for failure_s in failure_times:
                    if window.clock_s < failure_s:
                        assert window.gate_s is not None and window.gate_s <= failure_s
            assert any(window.gate_s is None for window in probe.windows)
        elif case == "checkpoint_interval":
            # Windows stop at each due instant; the checkpoints equal serial's.
            assert probe.checkpoints
            assert backend["steps_run_ahead"] > 0
            assert all(
                window.checkpoint_interval_s == fleet.checkpoint_interval_s
                for window in probe.windows
            )
        elif case == "migrate_on_drain":
            assert backend["windows_opened"] == 0
            assert parallel.num_migrations > 0
        else:  # queue_depth_drains
            assert probe.drains_mid_window > 0

    def test_state_changing_commands_refuse_an_open_window(self):
        spec = EngineSpec(model="serve-sim", max_new_tokens=8)
        model = spec.build_model()
        with MultiprocessBackend(model, spec, workers=1) as backend:
            backend.use_clock(PerfModelClock())
            handle = backend.create_handle()
            prompt = np.arange(4, 28)
            handle.submit(prompt, "a", 8, None, 0.0, "interactive")
            handle.start_step(StepWindow(index=0, clock_s=0.0))
            checkpoint = None
            for command, call in (
                ("submit", lambda: handle.submit(prompt, "b", 8, None, 0.0, "interactive")),
                ("restore_request", lambda: handle.restore_request(checkpoint)),
                ("checkpoint_request", lambda: handle.checkpoint_request("a")),
                ("snapshot", handle.snapshot),
                ("pop_preempted", handle.pop_preempted),
            ):
                with pytest.raises(StepWindowOpen, match=handle.rid) as excinfo:
                    call()
                assert excinfo.value.command == command
            steps = 1
            handle.finish_step()
            while handle._stepping:
                handle.finish_step()
                steps += 1
            assert steps > 1  # one window, several steps
            assert not handle.has_work()
            assert handle.snapshot().active == ()

    def test_worker_killed_mid_window_raises_and_close_reaps(self):
        spec = EngineSpec(model="serve-sim", max_new_tokens=256)
        model = spec.build_model()
        backend = MultiprocessBackend(model, spec, workers=2)
        try:
            backend.use_clock(PerfModelClock())
            handles = [backend.create_handle() for _ in range(2)]
            for index, handle in enumerate(handles):
                handle.submit(np.arange(4, 40), f"q{index}", 256, None, 0.0, "interactive")
                handle.start_step(StepWindow(index=index, clock_s=0.0))
            victim = handles[0]
            victim.finish_step()
            assert victim._stepping  # the window is still open
            os.kill(backend._clients[0].process.pid, signal.SIGKILL)
            outcome: list[BaseException] = []

            def consume() -> None:
                try:
                    while True:
                        victim.finish_step()
                except BaseException as exc:  # noqa: BLE001 — inspected below
                    outcome.append(exc)

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            consumer.join(timeout=30)
            assert not consumer.is_alive(), "finish_step hung on a dead worker"
            assert isinstance(outcome[0], WorkerCrashed)
            assert outcome[0].worker == 0
        finally:
            backend.close()
        assert not any(client.process.is_alive() for client in backend._clients)


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
# one command table: the view after every command
# ----------------------------------------------------------------------
class TestCommandTable:
    def test_view_matches_across_backends_after_every_command(self):
        """Serial and worker handles refresh the same view from the same replies."""
        spec = EngineSpec(model="serve-sim", max_new_tokens=8)
        model = spec.build_model()
        with MultiprocessBackend(model, spec, workers=1) as backend:
            serial = SerialBackend(model, spec).create_handle()
            remote = backend.create_handle()
            handles = (serial, remote)

            def both(command, *args):
                replies = [getattr(handle, command)(*args) for handle in handles]
                assert serial.view == remote.view == engine_state_view(serial.engine)
                return replies

            both("submit", np.arange(4, 28), "a", 8, None, 0.0, "interactive")
            both("submit", np.arange(30, 46), "b", 3, None, 0.0, "interactive")
            assert serial.view.queued == 2
            while True:
                outcomes = both("finish_step")
                finished = [[c.request.request_id for c in o.finished] for o in outcomes]
                assert finished[0] == finished[1]
                if finished[0]:
                    break
            assert serial.view.active_request_ids == ("a",)
            checkpoints = both("checkpoint_request", "a", False)
            assert checkpoint_digest(checkpoints[0]) == checkpoint_digest(checkpoints[1])
            assert not serial.has_work() and not remote.has_work()
            for handle, checkpoint in zip(handles, checkpoints):
                handle.restore_request(checkpoint)
            assert serial.view == remote.view == engine_state_view(serial.engine)
            assert serial.view.active_request_ids == ("a",)
            snapshots = both("snapshot")
            assert [s.request_ids for s in snapshots] == [("a",), ("a",)]
            assert both("pop_preempted") == [[], []]
            both("drain")
            steps = 0
            while serial.has_work():
                both("finish_step")
                steps += 1
            assert steps > 0 and not remote.has_work()
        with pytest.raises(ValueError, match="bogus"):
            serve_command(serial.engine, "bogus", ())


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
