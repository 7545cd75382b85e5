"""Scenario-matrix and invariant tests of the elastic cluster layer.

Three workload scenarios (poisson burst, on/off diurnal, heavy-tail mix)
crossed with three compression policies pin the cluster simulator's two
core contracts in every cell:

* **bit-reproducibility** — on the perfmodel clock, two runs of the same
  cell emit byte-identical report JSON (scaling timeline, rejections and
  failure log included);
* **request conservation** — every workload request is accounted for:
  ``submitted == completed + rejected`` once the run drains, with no
  request stuck in retry limbo.

Seeded property-style tests cover the control-plane invariants (fleet
size within bounds, no scale-down while a replica holds work, admission
never rejecting a request the fleet has headroom for), and the failure
tests pin that killing a replica mid-decode changes no surviving
request's tokens and that retried requests reproduce their monolithic
outputs.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.api import EngineSpec, simulate
from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ClusterSimulator,
    FailureEvent,
    FailurePlan,
    FleetView,
    QueueDepthAutoscaler,
    ReplicaInfo,
    ReplicaLifecycle,
    ScaleDecision,
    SLOAttainmentAutoscaler,
    StaticAutoscaler,
    ADMISSIONS,
    AUTOSCALERS,
    TokenBudgetAdmission,
    simulate_cluster,
)
from repro.serving import BatchedEngine, ServeRequest
from repro.serving.bench import serving_policy_spec
from repro.model import get_model_config
from repro.traffic import (
    RequestShape,
    Router,
    SLOSpec,
    StepClock,
    TrafficConfig,
    ROUTERS,
    build_arrivals,
    generate_traffic,
)
from repro.traffic import simulate as traffic_simulate

POLICIES = ("clusterkv", "streaming_llm", "full")
SCENARIOS = ("poisson_burst", "onoff_diurnal", "heavy_tail")
VOCAB = 2048


def _scenario_workload(scenario: str, policy_name: str, seed: int = 0):
    """Deterministic requests of one matrix cell."""
    policy = serving_policy_spec(policy_name, num_sink_tokens=8)
    small = RequestShape(
        prompt_len_range=(24, 48), max_new_tokens=12, policy=policy, weight=0.85
    )
    if scenario == "poisson_burst":
        shapes = [small]
        times = build_arrivals("poisson", rate=1.2).times(8, seed=seed)
    elif scenario == "onoff_diurnal":
        shapes = [small]
        times = build_arrivals("onoff", rate=0.6, burstiness=5.0).times(8, seed=seed)
    elif scenario == "heavy_tail":
        heavy = RequestShape(
            prompt_len_range=(48, 96), max_new_tokens=64, policy=policy, weight=0.15
        )
        shapes = [small, heavy]
        times = build_arrivals("poisson", rate=0.6).times(8, seed=seed)
    else:  # pragma: no cover - guards typos in the parametrize lists
        raise ValueError(f"unknown scenario {scenario!r}")
    return generate_traffic(shapes, times, vocab_size=VOCAB, seed=seed)


def _cell_config(policy_name: str) -> ClusterConfig:
    """The elastic fleet every matrix cell runs on."""
    policy = serving_policy_spec(policy_name, num_sink_tokens=8)
    return ClusterConfig(
        engine=EngineSpec(
            model="serve-sim",
            policy=policy,
            budget=48,
            max_new_tokens=24,
            num_full_layers=1,
            num_sink_tokens=8,
            max_batch_size=4,
            max_prefills_per_step=4,
        ),
        min_replicas=1,
        max_replicas=3,
        autoscaler="queue_depth:high=1.5,low=0.25,cooldown_s=2",
        admission="queue_deadline:deadline_s=8,service_tokens_per_s=40",
        router="jsq",
        slo=SLOSpec(ttft_s=4.0, tpot_s=0.2),
    )


def _run_cell(scenario: str, policy_name: str):
    """Run one matrix cell on a fresh simulator."""
    requests = _scenario_workload(scenario, policy_name)
    simulator = ClusterSimulator(_cell_config(policy_name))
    report = simulator.run(requests)
    return simulator, report, requests


class TestScenarioMatrix:
    """Reproducibility and conservation across scenario x policy cells."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_cell_is_byte_identical_and_conserves_requests(
        self, scenario, policy_name
    ):
        """Each cell: identical JSON run-to-run, every request accounted for."""
        _, first, requests = _run_cell(scenario, policy_name)
        simulator, second, _ = _run_cell(scenario, policy_name)
        assert first.to_json() == second.to_json()

        # Conservation: admitted = completed + rejected + in-retry, and
        # in-retry is empty once the run drains.
        assert second.num_requests + second.num_rejected == len(requests)
        assert second.num_submitted == len(requests)
        completed_ids = set(simulator.completed)
        rejected_ids = {r.request_id for r in second.rejected}
        assert completed_ids | rejected_ids == {r.request_id for r in requests}
        assert not completed_ids & rejected_ids
        # Every retry was resolved: retried requests completed or were
        # explicitly given up on (never silently dropped).
        for request_id, retries in simulator._retry_counts.items():
            assert retries >= 1
            assert request_id in completed_ids or request_id in rejected_ids

    def test_rejections_are_first_class_records(self):
        """A saturated fleet rejects with reason and decision detail."""
        requests = _scenario_workload("poisson_burst", "clusterkv")
        config = ClusterConfig(
            engine=_cell_config("clusterkv").engine,
            min_replicas=1,
            max_replicas=1,
            autoscaler="static",
            admission="queue_deadline:deadline_s=0.5,service_tokens_per_s=10",
        )
        report = simulate_cluster(requests, config)
        assert report.num_rejected > 0
        for rejection in report.rejected:
            assert rejection.reason == "queue_deadline"
            assert rejection.detail["estimated_delay_s"] > rejection.detail["deadline_s"]
        payload = report.to_dict()
        assert payload["num_rejected"] == report.num_rejected
        assert len(payload["rejected"]) == report.num_rejected


def _random_view(rng: np.random.Generator) -> FleetView:
    """One synthetic fleet snapshot for the pure property tests."""
    num = int(rng.integers(1, 6))
    states = [
        ReplicaLifecycle(
            str(rng.choice(["starting", "active", "draining"], p=[0.2, 0.6, 0.2]))
        )
        for _ in range(num)
    ]
    replicas = tuple(
        ReplicaInfo(
            index=i,
            state=states[i],
            queued=int(rng.integers(0, 5)),
            active=int(rng.integers(0, 5)),
            committed_tokens=int(rng.integers(0, 2048)),
            capacity_tokens=int(rng.integers(256, 2048)),
            clock_s=float(rng.uniform(0, 100)),
        )
        for i in range(num)
    )
    min_replicas = int(rng.integers(1, 3))
    return FleetView(
        now_s=float(rng.uniform(0, 100)),
        replicas=replicas,
        parked=int(rng.integers(0, 3)),
        recent_slo_attainment=float(rng.uniform(0, 1)) if rng.random() < 0.8 else None,
        min_replicas=min_replicas,
        max_replicas=min_replicas + int(rng.integers(0, 4)),
    )


class TestControlPlaneInvariants:
    """Seeded property-style invariants of autoscaling and admission."""

    def test_registries_enumerate_builtins(self):
        """Both registries expose the built-in strategies by name."""
        assert set(AUTOSCALERS.names()) >= {"static", "queue_depth", "slo_attainment"}
        assert set(ADMISSIONS.names()) >= {"always", "token_budget", "queue_deadline"}
        assert isinstance(AUTOSCALERS.build("queue_depth", high=3.0), QueueDepthAutoscaler)
        assert isinstance(ADMISSIONS.build("token_budget"), TokenBudgetAdmission)

    def test_autoscaler_decisions_respect_bounds(self):
        """No policy ever proposes growing past max or shrinking past min."""
        rng = np.random.default_rng(0)
        scalers = [
            StaticAutoscaler(),
            QueueDepthAutoscaler(cooldown_s=0.0),
            SLOAttainmentAutoscaler(cooldown_s=0.0),
        ]
        for scaler in scalers:
            for outcome in (True, False, False, True):
                scaler.observe(outcome)
        for _ in range(200):
            view = _random_view(rng)
            for scaler in scalers:
                decision = scaler.decide(view)
                if decision.add:
                    assert view.provisioned < view.max_replicas
                if decision.drain:
                    assert view.provisioned > view.min_replicas

    def test_admission_never_rejects_with_fleet_headroom(self):
        """token_budget admits every request some accepting replica can hold."""
        rng = np.random.default_rng(1)
        policy = TokenBudgetAdmission()
        for _ in range(300):
            view = _random_view(rng)
            tokens = int(rng.integers(1, 1024))
            decision = policy.consider(tokens, view)
            if view.accepting and view.max_headroom_tokens >= tokens:
                assert decision.admitted, (
                    f"rejected {tokens} tokens with headroom "
                    f"{view.max_headroom_tokens}"
                )
            if not decision.admitted:
                assert decision.detail["max_headroom_tokens"] < tokens or (
                    not view.accepting
                )

    def test_fleet_size_always_within_bounds_in_simulation(self):
        """The provisioned count stays within [min, max] at every transition."""
        for seed in range(3):
            requests = _scenario_workload("onoff_diurnal", "streaming_llm", seed=seed)
            config = ClusterConfig(
                engine=_cell_config("streaming_llm").engine,
                min_replicas=2,
                max_replicas=4,
                autoscaler="queue_depth:high=1.0,low=0.5,cooldown_s=1",
                failures=FailurePlan.seeded(seed, num_failures=1, horizon_s=10.0),
            )
            report = simulate_cluster(requests, config)
            assert report.scaling, "elastic run must log its fleet transitions"
            for entry in report.scaling:
                assert entry["provisioned"] <= config.max_replicas
                # Two legitimate below-floor moments: while the initial
                # fleet is still being built replica by replica at t=0,
                # and the instant of a kill — healing restores the floor
                # at the same instant, before any other event runs.
                if entry["action"] != "fail" and entry["reason"] != "initial fleet":
                    assert entry["provisioned"] >= config.min_replicas
            fails = [e for e in report.scaling if e["action"] == "fail"]
            for fail in fails:
                heals = [
                    e
                    for e in report.scaling
                    if e["action"] == "boot" and e["time_s"] == fail["time_s"]
                ]
                assert heals, "every kill is healed back to the floor instantly"

    def test_no_scale_down_while_replica_holds_work(self):
        """Drained replicas retire their work; removal only happens empty."""
        requests = _scenario_workload("poisson_burst", "streaming_llm")
        config = ClusterConfig(
            engine=_cell_config("streaming_llm").engine,
            min_replicas=1,
            max_replicas=3,
            # Aggressive watermarks force both scale-ups and drains.
            autoscaler="queue_depth:high=0.75,low=0.6,cooldown_s=0.5",
        )
        simulator = ClusterSimulator(config)
        report = simulator.run(requests)
        drains = [e for e in report.scaling if e["action"] == "drain"]
        removes = {e["replica"]: e for e in report.scaling if e["action"] == "remove"}
        assert drains, "the aggressive watermarks must trigger a drain"
        # No failures were injected, so a lost request could only come
        # from an unsafe drain; conservation proves there was none.
        assert report.num_retries == 0
        assert report.num_requests + report.num_rejected == len(requests)
        for drain in drains:
            replica = next(
                r for r in simulator.fleet if r.index == drain["replica"]
            )
            assert replica.state in (
                ReplicaLifecycle.STOPPED,
                ReplicaLifecycle.DRAINING,
                ReplicaLifecycle.FAILED,
            )
            if replica.index in removes:
                assert removes[replica.index]["time_s"] >= drain["time_s"]
        # Removing a replica that still holds work is an assertion error.
        victim = simulator.fleet[0]
        victim.engine._draining = False
        victim.handle.submit(np.arange(8) + 4, "late", 8, None, 0.0, "interactive")
        with pytest.raises(AssertionError):
            simulator._stop_replica(victim, 0.0)


class TestFailureDeterminism:
    """Failure injection changes nothing it should not change."""

    def _workload(self, seed: int = 3):
        policy = serving_policy_spec("clusterkv", num_sink_tokens=8)
        shapes = [
            RequestShape(prompt_len_range=(24, 48), max_new_tokens=16, policy=policy)
        ]
        times = build_arrivals("poisson", rate=0.8).times(8, seed=seed)
        return generate_traffic(shapes, times, vocab_size=VOCAB, seed=seed)

    def _config(self, failures: FailurePlan = FailurePlan()) -> ClusterConfig:
        return ClusterConfig(
            engine=_cell_config("clusterkv").engine,
            min_replicas=2,
            max_replicas=2,
            autoscaler="static",
            failures=failures,
        )

    def test_mid_decode_kill_preserves_all_token_sequences(self):
        """Unaffected requests are bit-identical; retries reproduce outputs."""
        requests = self._workload()
        baseline = ClusterSimulator(self._config())
        baseline.run(requests)
        baseline_tokens = {
            rid: list(c.result.output_ids) for rid, c in baseline.completed.items()
        }

        plan = FailurePlan(events=(FailureEvent(time_s=7.0, slot=0),))
        failed = ClusterSimulator(self._config(plan))
        report = failed.run(requests)
        failed_tokens = {
            rid: list(c.result.output_ids) for rid, c in failed.completed.items()
        }

        # The kill actually hit live work (otherwise the test is vacuous).
        assert report.failures and report.failures[0]["lost_requests"]
        assert report.num_retries >= 1
        retried_ids = {m.request_id for m in report.requests if m.retries > 0}
        assert retried_ids

        # Every request — on the killed replica or not — produced exactly
        # the tokens of the failure-free run: decoding is a deterministic
        # function of the request, not of fleet history.
        assert failed_tokens == baseline_tokens

        # And the retried requests reproduce their monolithic outputs:
        # serving each alone on a fresh engine yields the same tokens.
        config = self._config()
        for request_id in retried_ids:
            request = next(r for r in requests if r.request_id == request_id)
            engine = BatchedEngine(
                failed.model,
                selector=config.engine.build_policy(),
                generation_config=config.engine.generation_config(),
                scheduler_config=config.engine.scheduler_config(),
            )
            engine.submit(
                request.prompt_ids,
                request_id=request.request_id,
                max_new_tokens=request.max_new_tokens,
                policy=request.policy,
            )
            solo = engine.run()
            assert list(solo.completed[0].result.output_ids) == failed_tokens[
                request_id
            ]

    def test_failure_runs_are_byte_identical(self):
        """The same failure plan yields the same report, byte for byte."""
        requests = self._workload()
        plan = FailurePlan.seeded(seed=7, num_failures=2, horizon_s=12.0)
        first = ClusterSimulator(self._config(plan)).run(requests)
        second = ClusterSimulator(self._config(plan)).run(requests)
        assert first.to_json() == second.to_json()
        assert first.failures == second.failures

    def test_exhausted_retries_do_not_count_as_redispatches(self):
        """A request given up on contributes rejections, not phantom retries."""
        requests = self._workload()
        plan = FailurePlan(events=(FailureEvent(time_s=7.0, slot=0),))
        config = ClusterConfig(
            engine=_cell_config("clusterkv").engine,
            min_replicas=2,
            max_replicas=2,
            autoscaler="static",
            failures=plan,
            max_retries=0,
        )
        report = ClusterSimulator(config).run(requests)
        exhausted = [r for r in report.rejected if r.reason == "retries_exhausted"]
        assert exhausted, "the kill must hit live work for this test to bite"
        # num_retries counts actual re-dispatches only — none happened.
        assert report.num_retries == 0
        assert all(not f.get("retried") for f in report.failures)
        assert report.num_requests + report.num_rejected == len(requests)

    def test_lost_work_is_accounted(self):
        """Retry and lost-token counters reconcile with the failure log."""
        requests = self._workload()
        plan = FailurePlan(events=(FailureEvent(time_s=7.0, slot=0),))
        report = ClusterSimulator(self._config(plan)).run(requests)
        logged_lost = sum(int(f.get("lost_tokens", 0)) for f in report.failures)
        assert report.lost_tokens == logged_lost
        logged_retries = sum(len(f.get("retried", ())) for f in report.failures)
        assert report.num_retries == logged_retries
        assert sum(m.retries for m in report.requests) == report.num_retries


class TestElasticApi:
    """The public simulate() knobs reach the cluster simulator."""

    def test_simulate_cluster_knobs(self):
        """A control-plane field on the config reaches the cluster simulator."""
        policy = serving_policy_spec("streaming_llm", num_sink_tokens=8)
        shapes = [
            RequestShape(prompt_len_range=(24, 32), max_new_tokens=8, policy=policy)
        ]
        times = build_arrivals("constant", rate=1.0).times(4, seed=0)
        requests = generate_traffic(shapes, times, vocab_size=VOCAB, seed=0)
        from repro.traffic import TrafficConfig

        config = TrafficConfig(engine=_cell_config("streaming_llm").engine)
        report = simulate(requests, dataclasses.replace(config, autoscaler="queue_depth"))
        assert report.autoscaler["name"] == "queue_depth"
        assert report.autoscaler["min_replicas"] == 1
        assert report.scaling[0]["action"] == "boot"
        static = simulate(requests, config)
        assert static.autoscaler == {}
        assert [m.request_id for m in report.requests] == [
            m.request_id for m in static.requests
        ]

    @pytest.mark.parametrize(
        "field, spec, message",
        [
            ("router", "nope", "unknown router 'nope'; registered: "),
            ("autoscaler", "nope", "unknown autoscaler 'nope'; registered: "),
            ("admission", "nope", "unknown admission policy 'nope'; registered: "),
            ("autoscaler", "queue_depth:hgh=2", "unknown 'queue_depth' configuration keys"),
            ("admission", "queue_deadline:deadline=2", "accepted keys: deadline_s"),
        ],
    )
    def test_config_refuses_unregistered_specs(self, field, spec, message):
        """A misspelt control-plane spec fails when the config is built."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterConfig(**{field: spec})

    def test_warmup_is_priced_by_the_perfmodel(self):
        """Scale-ups pay the cost model's replica warm-up lag on the clock."""
        from repro.perfmodel import StepCostModel
        from repro.traffic import build_clock

        clock = build_clock("perfmodel", context_scale=64)
        expected = StepCostModel(context_scale=64).replica_warmup_seconds()
        assert clock.warmup_seconds() == expected
        assert expected > 0.0
        requests = _scenario_workload("poisson_burst", "streaming_llm")
        config = ClusterConfig(
            engine=_cell_config("streaming_llm").engine,
            min_replicas=1,
            max_replicas=3,
            autoscaler="queue_depth:high=0.9,low=0.1,cooldown_s=0.5",
        )
        report = simulate_cluster(requests, config)
        boots = [
            e
            for e in report.scaling
            if e["action"] == "boot" and e["reason"] != "initial fleet"
        ]
        readies = {e["replica"]: e for e in report.scaling if e["action"] == "ready"}
        assert boots, "the aggressive watermarks must boot a replica"
        for boot in boots:
            ready = readies[boot["replica"]]
            assert ready["time_s"] == pytest.approx(boot["time_s"] + expected)


# ----------------------------------------------------------------------
# a static fleet is the degenerate cluster
# ----------------------------------------------------------------------
CONTROL_PLANE_FIELDS = ("admission", "autoscaler", "scaling")


def _featured_spec(**overrides) -> EngineSpec:
    """Tiny replica engine with preemption, chunked prefill and the prefix cache."""
    defaults = dict(
        model="tiny",
        policy="clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4",
        budget=24,
        max_new_tokens=8,
        num_full_layers=1,
        num_sink_tokens=4,
        max_batch_size=2,
        max_prefills_per_step=2,
        prefill_chunk_tokens=24,
        prefix_cache_tokens=512,
        prefix_block_tokens=8,
        preemption=True,
    )
    defaults.update(overrides)
    return EngineSpec(**defaults)


def _featured_workload(count: int = 10):
    """Mixed-class traffic over two shared preambles (hits, chunks, preemptions)."""
    vocab = get_model_config("tiny").vocab_size
    preambles = [np.random.default_rng(k).integers(4, vocab, size=16) for k in (7, 8)]

    def sampler(rng, length):
        head = preambles[int(rng.integers(len(preambles)))]
        return np.concatenate([head, rng.integers(4, vocab, size=length)])

    shapes = [
        RequestShape(
            prompt_len_range=(16, 40),
            max_new_tokens=8,
            slo_class=slo_class,
            prompt_sampler=sampler,
        )
        for slo_class in ("interactive", "batch")
    ]
    times = build_arrivals("poisson", rate=2.5).times(count, seed=3)
    return generate_traffic(shapes, times, vocab_size=vocab, seed=5)


class TestStaticFleetIsADegenerateCluster:
    """A TrafficConfig run is the fixed-size, static, always-admit cluster."""

    @pytest.mark.parametrize("replicas", (1, 3))
    @pytest.mark.parametrize("router", ROUTERS.names())
    def test_traffic_config_equals_fixed_cluster(self, router, replicas):
        """The preset and the hand-built static cluster report identically.

        With no control plane to report, the ``static`` / ``always`` /
        failure-free cluster leaves the control-plane fields empty, so
        the whole report agrees.
        """
        requests = _featured_workload()
        spec = _featured_spec()
        static = traffic_simulate(
            requests, TrafficConfig(engine=spec, num_replicas=replicas, router=router)
        ).to_dict()
        cluster = simulate_cluster(
            requests,
            ClusterConfig(
                engine=spec, min_replicas=replicas, max_replicas=replicas, router=router
            ),
        ).to_dict()
        assert static["num_replicas"] == replicas
        for name in CONTROL_PLANE_FIELDS:
            assert not static[name]
        assert static == cluster

    def test_cluster_config_is_honoured_by_every_entry_point(self):
        """api.simulate and traffic.simulate run a ClusterConfig as given.

        Autoscaler, admission policy and failure plan all take effect:
        the three entry points emit byte-identical JSON.
        """
        requests = _featured_workload()
        config = ClusterConfig(
            engine=_featured_spec(),
            min_replicas=2,
            max_replicas=3,
            autoscaler="queue_depth:high=1",
            router="jsq",
            failures=FailurePlan(events=(FailureEvent(time_s=1.5, slot=0),)),
        )
        expected = simulate_cluster(requests, config)
        assert expected.failures and expected.scaling
        assert simulate(requests, config).to_json() == expected.to_json()
        assert traffic_simulate(requests, config).to_json() == expected.to_json()


# ----------------------------------------------------------------------
# event order at equal instants
# ----------------------------------------------------------------------
class UnitClock(StepClock):
    """Every step lasts one second and a boot two, so instants coincide exactly."""

    name = "unit"

    def step_seconds(self, trace) -> float:
        return 1.0

    def warmup_seconds(self) -> float:
        return 2.0


class FirstAccepting(Router):
    """Always the lowest-index replica that accepts traffic."""

    name = "first"

    def choose(self, replicas, request) -> int:
        return 0


class BootOnce(Autoscaler):
    """Boot one extra replica at the first decision, then hold."""

    name = "boot_once"

    def __init__(self) -> None:
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def decide(self, view) -> ScaleDecision:
        if self._fired:
            return ScaleDecision()
        self._fired = True
        return ScaleDecision(add=1, reason="boot once")


def _request(request_id: str, arrival_s: float, max_new_tokens: int = 4) -> ServeRequest:
    prompt = np.random.default_rng(len(request_id)).integers(4, 200, size=24)
    return ServeRequest(
        request_id=request_id,
        prompt_ids=prompt,
        max_new_tokens=max_new_tokens,
        arrival_time_s=arrival_s,
    )


class TestEventOrder:
    """ready < fail < arrival < step when instants tie."""

    def test_arrival_at_a_working_clock_is_routed_before_the_step(self):
        """A request arriving exactly at a step boundary joins that step."""
        requests = [_request("a", 0.0), _request("bb", 1.0)]
        report = traffic_simulate(
            requests,
            TrafficConfig(engine=_featured_spec(preemption=False), num_replicas=1),
            clock=UnitClock(),
        )
        late = next(m for m in report.requests if m.request_id == "bb")
        # "a" is still decoding at t=1; "bb" is prefilled in the step that
        # starts at its arrival, not the one after it.
        assert late.queue_wait_s == 0.0
        assert late.ttft_s == 1.0

    def test_failure_fires_before_an_arrival_at_the_same_instant(self):
        """The arrival never lands on the replica killed at its instant."""
        config = ClusterConfig(
            engine=_featured_spec(),
            min_replicas=2,
            max_replicas=2,
            failures=FailurePlan(events=(FailureEvent(time_s=3.0, slot=0),)),
        )
        report = simulate_cluster(
            [_request("a", 3.0)], config, router=FirstAccepting(), clock=UnitClock()
        )
        (failure,) = report.failures
        assert failure["replica"] == 0 and failure["lost_requests"] == []
        (served,) = report.requests
        assert (served.replica, served.retries) == (1, 0)

    def test_replica_ready_at_a_failure_instant_is_in_its_pool(self):
        """A boot completing at the kill instant can be the victim."""
        config = ClusterConfig(
            engine=_featured_spec(),
            min_replicas=1,
            max_replicas=2,
            autoscaler=BootOnce(),
            failures=FailurePlan(events=(FailureEvent(time_s=2.0, slot=1),)),
        )
        report = simulate_cluster(
            [_request("a", 0.0, max_new_tokens=6)], config, clock=UnitClock()
        )
        timeline = [(e["time_s"], e["action"], e["replica"]) for e in report.scaling]
        assert timeline.index((2.0, "ready", 1)) < timeline.index((2.0, "fail", 1))
        (failure,) = report.failures
        assert failure["replica"] == 1
        assert report.num_requests == 1 and report.num_retries == 0
