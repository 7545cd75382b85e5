"""Differential tests of live KV migration, recovery and zone failures.

The load-bearing guarantee of the migration path: a request whose live
state moves between engines — by drain migration, preemption hand-off or
checkpoint recovery — finishes with exactly the tokens and
log-probabilities of an uninterrupted run, and never pays a second
prefill.  The prefill cost is asserted through the deterministic
``gemm.attention_prefill`` op counter: flat across a migration, strictly
higher when a failure forces a from-scratch retry.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    ClusterSimulator,
    FailureEvent,
    FailurePlan,
    ScaleDecision,
)
from repro.model import GenerationConfig, TransformerModel, get_model_config
from repro.perf.counters import count_ops
from repro.serving import BatchedEngine
from repro.traffic.bench import TrafficBenchConfig, WorkloadSpec, bench_fleet, build_bench_requests

CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"


# ----------------------------------------------------------------------
# engine-level migration differential
# ----------------------------------------------------------------------
def tiny_generation() -> GenerationConfig:
    return GenerationConfig(
        budget=24,
        num_full_layers=1,
        num_sink_tokens=4,
        max_new_tokens=8,
        greedy=True,
        seed=3,
    )


def make_prompts(vocab_size: int, lengths=(40, 52), seed: int = 11):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, vocab_size, length) for length in lengths]


def outputs_of(report):
    return {
        item.request.request_id: (
            np.asarray(item.result.output_ids),
            np.asarray(item.result.output_logprobs),
        )
        for item in report.completed
    }


class TestEngineMigration:
    def test_mid_decode_migration_is_exact_and_never_reprefills(self):
        """Checkpoint-migrate active requests A->B mid-decode.

        Migrated requests finish with the baseline's exact tokens and
        logprobs, and the prefill GEMM count across both engines equals
        the single-engine baseline — every decoded token travelled with
        the checkpoint, nothing was prefilled twice.
        """
        model = TransformerModel(get_model_config("tiny"))
        prompts = make_prompts(model.config.vocab_size)

        def submit_all(engine):
            engine.submit(prompts[0], request_id="a", policy=CLUSTERKV)
            engine.submit(prompts[1], request_id="b", policy="quest")

        baseline_engine = BatchedEngine(model, generation_config=tiny_generation())
        submit_all(baseline_engine)
        with count_ops() as baseline_ops:
            baseline = outputs_of(baseline_engine.run())

        source = BatchedEngine(model, generation_config=tiny_generation())
        target = BatchedEngine(model, generation_config=tiny_generation())
        submit_all(source)
        with count_ops() as migrated_ops:
            completed = []
            for _ in range(3):  # prefill, then a couple of decode steps
                completed.extend(source.step())
            moved = 0
            for request_id in list(source.active_request_ids):
                target.restore_request(
                    source.checkpoint_request(request_id, keep=False)
                )
                moved += 1
            report = target.run()
            report.completed.extend(completed)
            migrated = outputs_of(report)

        assert moved == 2
        assert source.num_active == 0
        assert migrated_ops.get("seqstate.migrated_in") == moved
        assert set(migrated) == set(baseline)
        for request_id, (ids, logprobs) in baseline.items():
            np.testing.assert_array_equal(migrated[request_id][0], ids)
            np.testing.assert_array_equal(migrated[request_id][1], logprobs)
        assert migrated_ops.get("gemm.attention_prefill") == baseline_ops.get(
            "gemm.attention_prefill"
        )


# ----------------------------------------------------------------------
# cluster-level scenarios
# ----------------------------------------------------------------------
class DrainOnce(Autoscaler):
    """Hold the fleet at ``target`` replicas, then drain one at ``at_s``."""

    name = "drain_once"

    def __init__(self, at_s: float, target: int = 2) -> None:
        self.at_s = at_s
        self.target = target
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def decide(self, view) -> ScaleDecision:
        if not self._fired and len(view.replicas) < self.target:
            return ScaleDecision(
                add=self.target - len(view.replicas), reason="hold fleet"
            )
        if not self._fired and view.now_s >= self.at_s:
            self._fired = True
            return ScaleDecision(drain=1, reason="forced drain")
        return ScaleDecision()


class RecordingClusterSimulator(ClusterSimulator):
    """Cluster simulator that keeps every retired request's raw output."""

    def _metrics_of(self, item, finish_s):
        if not hasattr(self, "outputs"):
            self.outputs = {}
        self.outputs[item.request.request_id] = (
            np.asarray(item.result.output_ids),
            np.asarray(item.result.output_logprobs),
        )
        return super()._metrics_of(item, finish_s)


def cluster_run(**fleet):
    """One recorded cluster run; returns (report, outputs, op counter)."""
    config = TrafficBenchConfig(
        workload=WorkloadSpec(
            num_requests=10, rate=4.0, policies=("clusterkv", "quest")
        ),
        fleet=replace(bench_fleet("cluster-bench"), **fleet),
    )
    requests = build_bench_requests(config)
    simulator = RecordingClusterSimulator(config.fleet)
    with count_ops() as ops:
        report = simulator.run(requests)
    return report, getattr(simulator, "outputs", {}), ops


BASELINE_FLEET = dict(min_replicas=2, max_replicas=2, autoscaler="static")


class TestDrainMigration:
    def test_migration_completes_without_reprefill(self):
        """A forced drain of a busy replica migrates its work.

        The migrated requests all complete, their outputs are bit-identical
        to a drain-free static-fleet run of the same workload, and the
        prefill GEMM counter stays flat — migration moved KV, it never
        re-prefilled a prompt.
        """
        baseline_report, baseline_outputs, baseline_ops = cluster_run(**BASELINE_FLEET)
        report, outputs, ops = cluster_run(
            min_replicas=1,
            max_replicas=3,
            autoscaler=DrainOnce(at_s=3.0),
            migrate_on_drain=True,
        )
        assert report.num_migrations > 0
        assert report.num_requests == baseline_report.num_requests
        assert report.num_rejected == 0
        migrated = [m for m in report.requests if m.migrations > 0]
        assert migrated and all(m.retries == 0 for m in migrated)
        assert set(outputs) == set(baseline_outputs)
        for request_id, (ids, logprobs) in baseline_outputs.items():
            np.testing.assert_array_equal(outputs[request_id][0], ids)
            # Scheduling differs between the two fleets, so batch
            # composition — and with it GEMM kernel selection — differs;
            # logprobs may wobble in the last bit (see repro.model.attention).
            np.testing.assert_allclose(
                outputs[request_id][1], logprobs, rtol=0, atol=1e-12
            )
        assert ops.get("gemm.attention_prefill") == baseline_ops.get(
            "gemm.attention_prefill"
        )
        assert ops.get("seqstate.migrated_in") == report.num_migrations

    def test_migration_run_is_byte_reproducible(self):
        first, _, _ = cluster_run(
            min_replicas=1,
            max_replicas=3,
            autoscaler=DrainOnce(at_s=3.0),
            migrate_on_drain=True,
        )
        second, _, _ = cluster_run(
            min_replicas=1,
            max_replicas=3,
            autoscaler=DrainOnce(at_s=3.0),
            migrate_on_drain=True,
        )
        assert first.to_json() == second.to_json()


FAILURE_AT_6S = FailurePlan(events=(FailureEvent(time_s=6.0, slot=0),))


class TestFailureRecovery:
    def test_retry_reprefills_but_checkpoint_recovery_does_not(self):
        """The failure differential, measured in prefill GEMMs.

        A from-scratch retry replays the victim's whole prefill (strictly
        more prefill GEMMs than the failure-free baseline); resuming from
        a periodic checkpoint skips it for every request checkpointed
        before the failure.  Both paths reproduce the failure-free outputs
        token for token.
        """
        _, baseline_outputs, baseline_ops = cluster_run(**BASELINE_FLEET)
        retry_report, retry_outputs, retry_ops = cluster_run(
            **BASELINE_FLEET, failures=FAILURE_AT_6S
        )
        recovery_report, recovery_outputs, recovery_ops = cluster_run(
            **BASELINE_FLEET, failures=FAILURE_AT_6S, checkpoint_interval_s=2.0
        )

        assert retry_report.num_retries > 0
        assert recovery_report.num_recoveries > 0
        baseline_prefills = baseline_ops.get("gemm.attention_prefill")
        assert retry_ops.get("gemm.attention_prefill") > baseline_prefills
        assert recovery_ops.get("gemm.attention_prefill") < retry_ops.get(
            "gemm.attention_prefill"
        )
        assert recovery_report.lost_tokens < retry_report.lost_tokens
        for outputs in (retry_outputs, recovery_outputs):
            for request_id, (ids, logprobs) in outputs.items():
                np.testing.assert_array_equal(ids, baseline_outputs[request_id][0])
                # Failure detours change batch composition; last-bit
                # GEMM-kernel rounding on logprobs is tolerated (tokens
                # are exact — see repro.model.attention).
                np.testing.assert_allclose(
                    logprobs, baseline_outputs[request_id][1], rtol=0, atol=1e-12
                )


class TestZoneFailures:
    def test_zone_failure_conserves_every_request(self):
        """A correlated zone kill never loses or duplicates a request.

        Every submitted request is accounted for exactly once — completed
        or first-class rejected — and the run is byte-reproducible.
        """
        plan = FailurePlan(
            events=(FailureEvent(time_s=6.0, zone=0),), num_zones=2
        )
        report, outputs, _ = cluster_run(
            min_replicas=3, max_replicas=4, failures=plan, max_retries=3
        )
        assert len(report.failures) >= 2  # the whole zone died together
        assert report.num_requests + report.num_rejected == report.num_submitted
        completed_ids = {m.request_id for m in report.requests}
        rejected_ids = {r.request_id for r in report.rejected}
        assert not completed_ids & rejected_ids
        assert len(completed_ids) == report.num_requests
        repeat, _, _ = cluster_run(
            min_replicas=3, max_replicas=4, failures=plan, max_retries=3
        )
        assert report.to_json() == repeat.to_json()

    def test_zone_events_require_zone_count(self):
        with pytest.raises(ValueError):
            FailurePlan(events=(FailureEvent(time_s=1.0, zone=0),))
        with pytest.raises(ValueError):
            FailurePlan(events=(FailureEvent(time_s=1.0, zone=2),), num_zones=2)
