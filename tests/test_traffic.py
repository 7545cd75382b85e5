"""Tests of the traffic layer: arrivals, workloads, routing, simulation, SLO.

The load-bearing guarantees:

* everything is seeded and deterministic — equal configuration yields
  byte-identical ``TrafficReport`` JSON, run to run;
* the virtual-clock simulator is *functionally transparent*: a single
  replica at batch capacity 1 reproduces ``BatchedEngine.run()`` outputs
  token for token;
* the SLO metrics follow the timing points (queue wait <= TTFT <= E2E);
* on the perfmodel clock, ClusterKV sustains a higher arrival rate than
  full KV at a fixed SLO — the serving claim of the paper, measurable.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from repro.api import EngineSpec, simulate as api_simulate
from repro.cluster import ClusterSimulator
from repro.model import TransformerModel, get_model_config
from repro.policies import PolicySpec
from repro.serving import BatchedEngine, SchedulerConfig, ServeRequest
from repro.serving.bench import serving_engine_spec
from repro.traffic import (
    ARRIVALS,
    ROUTERS,
    ConstantArrivals,
    OnOffArrivals,
    PoissonArrivals,
    RequestShape,
    Router,
    SLOSpec,
    TraceArrivals,
    TrafficBenchConfig,
    TrafficConfig,
    WallClock,
    WorkloadSpec,
    build_arrivals,
    format_traffic_report,
    generate_traffic,
    load_trace,
    run_traffic_bench,
    save_trace,
    simulate,
)
from repro.traffic.report import percentile


class TestArrivalProcesses:
    def test_registry_names(self):
        assert set(ARRIVALS.names()) >= {"constant", "poisson", "onoff", "trace"}
        assert set(ROUTERS.names()) >= {"round_robin", "jsq", "least_kv"}

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            build_arrivals("bogus")
        with pytest.raises(ValueError, match="unknown router"):
            ROUTERS.build("bogus")

    def test_constant_spacing(self):
        times = ConstantArrivals(rate=4.0).times(5)
        assert np.allclose(np.diff(times), 0.25)
        assert times[0] == 0.0

    def test_poisson_deterministic_and_sorted(self):
        a = PoissonArrivals(rate=2.0).times(50, seed=3)
        b = PoissonArrivals(rate=2.0).times(50, seed=3)
        c = PoissonArrivals(rate=2.0).times(50, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) >= 0)
        # Mean inter-arrival approximates 1/rate over many samples.
        assert np.mean(np.diff(a)) == pytest.approx(0.5, rel=0.5)

    def test_onoff_is_burstier_than_poisson(self):
        onoff = OnOffArrivals(rate=1.0, burstiness=8.0).times(200, seed=0)
        poisson = PoissonArrivals(rate=1.0).times(200, seed=0)
        assert np.all(np.diff(onoff) >= 0)
        # Burstiness: higher variance of inter-arrival gaps at equal mean rate.
        assert np.var(np.diff(onoff)) > np.var(np.diff(poisson))

    def test_trace_arrivals_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceArrivals(timestamps=(1.0, 0.5))
        trace = TraceArrivals.from_sequence([0.0, 1.0, 2.0])
        assert np.array_equal(trace.times(2), [0.0, 1.0])
        with pytest.raises(ValueError, match="holds 3 arrivals"):
            trace.times(4)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ConstantArrivals(rate=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-1.0)
        with pytest.raises(ValueError):
            OnOffArrivals(rate=1.0, burstiness=0.5)


class TestWorkloadGeneration:
    def test_deterministic_and_policy_propagation(self):
        shapes = [
            RequestShape(prompt_len_range=(8, 16), max_new_tokens=4, policy="quest"),
            RequestShape(prompt_len_range=(24, 24), max_new_tokens=8),
        ]
        times = ConstantArrivals(rate=1.0).times(10)
        a = generate_traffic(shapes, times, vocab_size=128, seed=5)
        b = generate_traffic(shapes, times, vocab_size=128, seed=5)
        assert len(a) == 10
        for x, y in zip(a, b):
            assert x.request_id == y.request_id
            assert x.arrival_time_s == y.arrival_time_s
            assert np.array_equal(x.prompt_ids, y.prompt_ids)
            assert x.policy == y.policy
        policies = {r.policy.name if r.policy else None for r in a}
        assert policies <= {"quest", None}
        for request in a:
            if request.policy is not None and request.policy.name == "quest":
                assert 8 <= request.prompt_length() <= 16
            else:
                assert request.prompt_length() == 24

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            generate_traffic([], [0.0], vocab_size=128)
        with pytest.raises(ValueError, match="non-decreasing"):
            generate_traffic([RequestShape()], [1.0, 0.0], vocab_size=128)
        with pytest.raises(ValueError):
            RequestShape(prompt_len_range=(0, 4))
        with pytest.raises(ValueError):
            RequestShape(max_new_tokens=0)
        with pytest.raises(ValueError, match="arrival_time_s"):
            ServeRequest(request_id="x", prompt_ids=np.array([1, 2]), arrival_time_s=-1.0)

    def test_custom_prompt_sampler(self):
        shape = RequestShape(
            prompt_len_range=(6, 6),
            prompt_sampler=lambda rng, length: np.full(length, 7, dtype=np.int64),
        )
        (request,) = generate_traffic([shape], arrival_times=[0.0], vocab_size=64)
        assert np.array_equal(request.prompt_ids, np.full(6, 7))


class TestTraceRoundTrip:
    def _requests(self):
        shapes = [RequestShape(prompt_len_range=(8, 12), max_new_tokens=4, policy="quest")]
        times = PoissonArrivals(rate=2.0).times(6, seed=1)
        return generate_traffic(shapes, times, vocab_size=128, seed=1)

    def test_round_trip_regenerates_identical_workload(self, tmp_path):
        requests = self._requests()
        path = tmp_path / "trace.jsonl"
        assert save_trace(path, requests) == 6
        loaded = load_trace(path, vocab_size=128, seed=9)
        reloaded = load_trace(path, vocab_size=128, seed=9)
        assert len(loaded) == 6
        for original, x, y in zip(requests, loaded, reloaded):
            assert x.arrival_time_s == original.arrival_time_s
            assert x.prompt_length() == original.prompt_length()
            assert x.max_new_tokens == original.max_new_tokens
            assert x.policy == original.policy
            # Same load seed -> identical regenerated contents.
            assert np.array_equal(x.prompt_ids, y.prompt_ids)

    def test_embedded_prompt_ids_replay_exactly(self, tmp_path):
        requests = self._requests()
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests, include_prompt_ids=True)
        loaded = load_trace(path, vocab_size=128, seed=123)
        for original, x in zip(requests, loaded):
            assert np.array_equal(x.prompt_ids, original.prompt_ids)

    def _mixed_class_requests(self):
        shapes = [
            RequestShape(prompt_len_range=(8, 24), max_new_tokens=6, weight=2.0),
            RequestShape(
                prompt_len_range=(16, 40),
                max_new_tokens=4,
                policy="clusterkv:tokens_per_cluster=8",
                slo_class="batch",
            ),
        ]
        times = PoissonArrivals(rate=4.0).times(12, seed=7)
        return generate_traffic(shapes, times, vocab_size=64, seed=3)

    # sha256 of the trace bytes.  Each record holds every key of the
    # format's docstring, ``seed`` and ``slo_class`` included.
    PINNED_SHA256 = {
        False: "30c3ef5f2f92dff77a1579926836e6a473f7915661a9befb7afdcf07b18f7958",
        True: "e09d29200057815142f89f0fb9d4fc905bda914ed9b95ef8ec6753f17a1c9095",
    }

    @pytest.mark.parametrize("include_prompt_ids", [False, True])
    def test_saved_bytes_are_pinned(self, tmp_path, include_prompt_ids):
        path = tmp_path / "trace.jsonl"
        save_trace(path, self._mixed_class_requests(), include_prompt_ids=include_prompt_ids)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256[include_prompt_ids]

    def test_embedded_trace_reloads_the_requests_it_saved(self, tmp_path):
        requests = self._mixed_class_requests()
        requests.append(
            ServeRequest(
                request_id=f"t{len(requests)}",
                prompt_ids=np.arange(4, 9),
                arrival_time_s=requests[-1].arrival_time_s,
                seed=5,
            )
        )
        assert {request.slo_class for request in requests} == {"interactive", "batch"}
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests, include_prompt_ids=True)
        assert load_trace(path, vocab_size=64) == requests

    def test_records_without_class_or_seed_load_with_defaults(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"arrival_time_s": 0.5, "prompt_len": 4}\n', encoding="utf-8")
        (loaded,) = load_trace(path, vocab_size=64)
        assert (loaded.slo_class, loaded.seed) == ("interactive", None)

    def test_null_decode_length_means_engine_default(self, tmp_path):
        request = ServeRequest(request_id="x", prompt_ids=np.arange(4, 12))
        path = tmp_path / "trace.jsonl"
        save_trace(path, [request])
        (loaded,) = load_trace(path, vocab_size=128)
        assert loaded.max_new_tokens is None

    def test_malformed_traces_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSON"):
            load_trace(path, vocab_size=128)
        path.write_text(
            '{"arrival_time_s": 1.0, "prompt_len": 4}\n'
            '{"arrival_time_s": 0.5, "prompt_len": 4}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            load_trace(path, vocab_size=128)
        path.write_text('{"arrival_time_s": 0.5}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="prompt_len or prompt_ids"):
            load_trace(path, vocab_size=128)

    @pytest.mark.parametrize(
        "lines, refused",
        [
            (['{"prompt_len": 4, "slo_class": "gold"}'], "slo_class must be one of"),
            (['{"prompt_len": 4, "seed": "x"}'], "invalid literal for int"),
            (['{"prompt_ids": []}'], "prompt_ids must be a non-empty"),
            (['{"prompt_len": 4, "arrival_time_s": "soon"}'], "could not convert"),
            (['{"prompt_len": 4, "max_new_tokens": 0}'], "max_new_tokens must be positive"),
            # A NaN arrival compares False with everything, so it would also
            # switch off the ordering check for the records after it.
            (
                [
                    '{"prompt_len": 4, "arrival_time_s": NaN}',
                    '{"prompt_len": 4, "arrival_time_s": 0.5}',
                ],
                "arrival_time_s must be non-negative and finite",
            ),
        ],
        ids=["slo-class", "seed", "empty-prompt", "arrival-text", "decode-length", "nan-arrival"],
    )
    def test_a_record_the_request_refuses_names_its_line(self, tmp_path, lines, refused):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt_len": 4}\n' + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {refused}"):
            load_trace(path, vocab_size=128)


class TestRouters:
    class _View:
        def __init__(self, index, queued, active, reserved):
            self.index = index
            self.queued = queued
            self.active = active
            self.reserved_kv_bytes = reserved
            self.clock_s = 0.0

    def _request(self):
        return ServeRequest(request_id="x", prompt_ids=np.array([1, 2, 3]), max_new_tokens=4)

    def test_round_robin_cycles(self):
        router = ROUTERS.build("round_robin")
        views = [self._View(i, 0, 0, 0) for i in range(3)]
        picks = [router.choose(views, self._request()) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_jsq_prefers_fewest_in_system(self):
        router = ROUTERS.build("jsq")
        views = [self._View(0, 2, 1, 0), self._View(1, 0, 2, 0), self._View(2, 1, 2, 0)]
        assert router.choose(views, self._request()) == 1

    def test_jsq_ties_break_low_index(self):
        router = ROUTERS.build("jsq")
        views = [self._View(0, 1, 1, 0), self._View(1, 0, 2, 0)]
        assert router.choose(views, self._request()) == 0

    def test_least_kv_prefers_fewest_reserved_bytes(self):
        router = ROUTERS.build("least_kv")
        views = [self._View(0, 0, 1, 500), self._View(1, 5, 0, 100)]
        assert router.choose(views, self._request()) == 1


class TestSLOAndReport:
    def test_slo_validation_and_is_met(self):
        with pytest.raises(ValueError):
            SLOSpec(ttft_s=0.0)
        with pytest.raises(ValueError):
            SLOSpec(tpot_s=-1.0)
        slo = SLOSpec(ttft_s=1.0, tpot_s=0.1)
        assert slo.is_met(0.9, 0.05)
        assert not slo.is_met(1.1, 0.05)
        assert not slo.is_met(0.9, 0.2)
        assert SLOSpec(ttft_s=None, tpot_s=None).is_met(100.0, 100.0)
        assert SLOSpec.from_dict(slo.to_dict()) == slo

    def test_percentile_helper(self):
        import math

        # No samples -> NaN (serialised as null), never a perfect-looking 0.
        assert math.isnan(percentile([], 99))
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)


def tiny_engine_spec(**overrides) -> EngineSpec:
    defaults = dict(
        model="tiny",
        policy="clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4",
        budget=24,
        max_new_tokens=6,
        num_full_layers=1,
        num_sink_tokens=4,
        max_batch_size=4,
        max_prefills_per_step=4,
    )
    defaults.update(overrides)
    return EngineSpec(**defaults)


def tiny_requests(count: int, spacing: float = 0.0, seed: int = 11) -> list[ServeRequest]:
    shapes = [RequestShape(prompt_len_range=(32, 56), max_new_tokens=6)]
    times = np.arange(count, dtype=np.float64) * spacing
    vocab = get_model_config("tiny").vocab_size
    return generate_traffic(shapes, times, vocab_size=vocab, seed=seed)


class TestSimulatorEquivalence:
    def test_capacity_one_reproduces_batched_engine_run(self):
        """Single replica, batch capacity 1: token-for-token BatchedEngine."""
        spec = tiny_engine_spec(max_batch_size=1, max_prefills_per_step=1)
        requests = tiny_requests(3)
        simulator = ClusterSimulator(TrafficConfig(engine=spec, num_replicas=1))
        simulator.run(requests)

        reference = BatchedEngine(
            TransformerModel(get_model_config("tiny")),
            selector=spec.build_policy(),
            generation_config=spec.generation_config(),
            scheduler_config=SchedulerConfig(max_batch_size=1, max_prefills_per_step=1),
        )
        for request in requests:
            reference.submit(
                request.prompt_ids,
                request_id=request.request_id,
                max_new_tokens=request.max_new_tokens,
            )
        expected = reference.run().results()

        assert set(simulator.completed) == set(expected)
        for request_id, result in expected.items():
            simulated = simulator.completed[request_id].result
            assert simulated.output_ids == result.output_ids
            assert simulated.output_logprobs == result.output_logprobs

    def test_fleet_serves_the_request_it_is_given(self):
        """A seed and an unset decode length reach the replica as given."""
        requests = [
            dataclasses.replace(request, seed=40 + index, max_new_tokens=None)
            for index, request in enumerate(tiny_requests(2))
        ]
        simulator = ClusterSimulator(TrafficConfig(engine=tiny_engine_spec(), num_replicas=1))
        simulator.run(requests)
        for request in requests:
            served = simulator.completed[request.request_id]
            assert served.request.seed == request.seed
            assert served.request.max_new_tokens is None
            assert len(served.result.output_ids) == 6  # the engine default
        # Admission projects, and a rejection records, the resolved length.
        rejecting = ClusterSimulator(
            TrafficConfig(
                engine=tiny_engine_spec(kv_capacity_tokens=1),
                num_replicas=1,
                admission="token_budget",
            )
        )
        report = rejecting.run(requests)
        assert [r.max_new_tokens for r in report.rejected] == [6, 6]

    def test_batched_simulation_also_reproduces_engine_outputs(self):
        """At full batch capacity the simulator is still output-transparent."""
        spec = tiny_engine_spec()
        requests = tiny_requests(4)
        simulator = ClusterSimulator(TrafficConfig(engine=spec, num_replicas=1))
        simulator.run(requests)
        reference = BatchedEngine(
            TransformerModel(get_model_config("tiny")),
            selector=spec.build_policy(),
            generation_config=spec.generation_config(),
            scheduler_config=spec.scheduler_config(),
        )
        for request in requests:
            reference.submit(
                request.prompt_ids,
                request_id=request.request_id,
                max_new_tokens=request.max_new_tokens,
            )
        expected = reference.run().results()
        for request_id, result in expected.items():
            assert simulator.completed[request_id].result.output_ids == result.output_ids


class TestSimulatorDeterminismAndMetrics:
    def test_bit_reproducible_report_json(self):
        config = TrafficConfig(
            engine=tiny_engine_spec(),
            num_replicas=2,
            router="jsq",
        )
        shapes = [
            RequestShape(prompt_len_range=(32, 48), max_new_tokens=6),
            RequestShape(prompt_len_range=(32, 48), max_new_tokens=6, policy="full"),
        ]
        times = PoissonArrivals(rate=1.0).times(8, seed=2)
        vocab = get_model_config("tiny").vocab_size
        requests = generate_traffic(shapes, times, vocab_size=vocab, seed=2)
        first = simulate(requests, config).to_json()
        second = simulate(requests, config).to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["num_requests"] == 8
        assert set(payload["latency"]) == {"ttft_s", "tpot_s", "queue_wait_s", "e2e_s"}
        for row in payload["latency"].values():
            assert set(row) == {"p50", "p95", "p99", "samples"}
            assert row["samples"] == 8.0

    def test_timing_points_are_ordered(self):
        report = simulate(
            tiny_requests(5, spacing=0.2),
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=2, router="round_robin"),
        )
        assert report.num_requests == 5
        for metrics in report.requests:
            assert metrics.queue_wait_s >= 0.0
            assert metrics.ttft_s > metrics.queue_wait_s
            assert metrics.e2e_s >= metrics.ttft_s
            assert metrics.tpot_s >= 0.0
            assert metrics.output_tokens == 6
        assert report.duration_s >= max(m.e2e_s for m in report.requests)

    def test_idle_replica_fast_forwards_to_arrival(self):
        """A request arriving late is timed from its arrival, not from 0."""
        report = simulate(
            tiny_requests(1, spacing=0.0)[:1]
            + [
                ServeRequest(
                    request_id="late",
                    prompt_ids=tiny_requests(2)[1].prompt_ids,
                    max_new_tokens=4,
                    arrival_time_s=50.0,
                )
            ],
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=1),
        )
        late = next(m for m in report.requests if m.request_id == "late")
        assert late.arrival_time_s == 50.0
        # The replica idled until the arrival: no queueing, a fresh TTFT.
        assert late.queue_wait_s == 0.0
        assert late.ttft_s < 5.0
        assert report.duration_s > 50.0

    def test_wall_clock_mode_runs(self):
        report = simulate(
            tiny_requests(2),
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=1, clock="wall"),
        )
        assert report.clock == {"name": "wall"}
        assert report.duration_s > 0.0
        for metrics in report.requests:
            assert metrics.ttft_s > 0.0

    def test_misbehaving_router_rejected(self):
        class Bad(Router):
            name = "bad"

            def choose(self, replicas, request):
                return len(replicas)  # out of range

        with pytest.raises(ValueError, match="chose replica"):
            simulate(
                tiny_requests(1),
                TrafficConfig(engine=tiny_engine_spec(), num_replicas=1),
                router=Bad(),
            )

    def test_api_simulate_forwards(self):
        report = api_simulate(
            tiny_requests(2),
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=1),
        )
        assert report.num_requests == 2

    def test_rerun_on_one_simulator_is_independent(self):
        """run() starts cold every time: same workload, same report."""
        simulator = ClusterSimulator(
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=2, router="round_robin")
        )
        requests = tiny_requests(4, spacing=0.5)
        first = simulator.run(requests).to_json()
        second = simulator.run(requests).to_json()
        assert first == second

    def test_least_kv_spreads_a_burst_across_replicas(self):
        """Queued requests count toward reserved KV, so bursts spread."""
        requests = tiny_requests(4)  # all arrive at t=0
        simulator = ClusterSimulator(
            TrafficConfig(engine=tiny_engine_spec(), num_replicas=2, router="least_kv")
        )
        report = simulator.run(requests)
        per_replica = {m.replica for m in report.requests}
        assert per_replica == {0, 1}


class TestPolicySLOSeparation:
    def test_clusterkv_sustains_higher_rate_than_full_at_fixed_slo(self):
        """The paper's serving claim on the virtual clock.

        At an arrival rate full KV cannot sustain (its slower decode steps
        let the queue build), ClusterKV keeps most requests inside the
        same SLO and delivers strictly more goodput.
        """
        slo = SLOSpec(ttft_s=4.0, tpot_s=0.12)
        reports = {}
        for policy in ("clusterkv", "full"):
            config = TrafficBenchConfig(
                workload=WorkloadSpec(
                    num_requests=12,
                    rate=0.7,
                    policies=(policy,),
                    prompt_len_min=48,
                    prompt_len_max=64,
                    seed=0,
                ),
                fleet=TrafficConfig(
                    engine=serving_engine_spec(max_new_tokens=160, budget=32),
                    num_replicas=1,
                    router="round_robin",
                    slo=slo,
                ),
            )
            reports[policy] = run_traffic_bench(config)
        clusterkv = reports["clusterkv"]
        full = reports["full"]
        # ClusterKV sustains the rate; full KV violates the SLO for most
        # requests at the identical workload.
        assert clusterkv.slo_attainment >= 0.7
        assert full.slo_attainment <= 0.5
        assert clusterkv.slo_attainment > full.slo_attainment
        assert clusterkv.goodput_tokens_per_s > 1.5 * full.goodput_tokens_per_s
        # Both reports stay printable.
        assert "goodput" in format_traffic_report(clusterkv)


class TestTrafficBenchConfig:
    def test_bare_policies_get_serving_tuned_specs(self):
        config = TrafficBenchConfig(workload=WorkloadSpec(policies=("clusterkv",)))
        (spec,) = config.workload.policies
        assert isinstance(spec, PolicySpec)
        assert spec.kwargs["tokens_per_cluster"] == 32

    def test_explicit_spec_used_verbatim(self):
        spec = PolicySpec("clusterkv", {"tokens_per_cluster": 16})
        config = TrafficBenchConfig(workload=WorkloadSpec(policies=(spec,)))
        assert config.workload.policies == (spec,)
        assert config.fleet.engine.policy == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(policies=())
        with pytest.raises(ValueError):
            WorkloadSpec(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadSpec(rate=0.0)

    def test_trace_replay_matches_generated_run(self, tmp_path):
        base = TrafficBenchConfig(
            workload=WorkloadSpec(
                num_requests=4,
                rate=1.0,
                policies=("full",),
                prompt_len_min=16,
                prompt_len_max=24,
                seed=3,
            ),
            fleet=TrafficConfig(
                engine=serving_engine_spec(model="tiny", max_new_tokens=4, budget=16),
                num_replicas=1,
                router="jsq",
            ),
        )
        from repro.traffic import build_bench_requests

        requests = build_bench_requests(base)
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests, include_prompt_ids=True)
        import dataclasses

        replayed = dataclasses.replace(
            base, workload=dataclasses.replace(base.workload, trace=str(path))
        )
        direct = run_traffic_bench(base)
        from_trace = run_traffic_bench(replayed)
        assert from_trace.to_json() == direct.to_json()
