"""Tests of the batched serving engine, scheduler and request queue.

The load-bearing guarantees:

* a batched run of size 1 is bit-identical to the single-sequence engine
  (same tokens, same log-probabilities) for ClusterKV and the baselines;
* the scheduler admits strictly in arrival order, never exceeds the batch
  or KV-memory budgets, and never starves a request;
* retired requests release their KV memory back to the shared tiers.
"""

import numpy as np
import pytest

from repro.baselines import FullKVSelector, QuestSelector, StreamingLLMSelector
from repro.core import ClusterKVConfig, ClusterKVSelector
from repro.model import GenerationConfig, InferenceEngine
from repro.policies import PolicySpec, build_policy, policy_spec_from_description
from repro.serving import (
    BatchedEngine,
    ContinuousBatchingScheduler,
    RequestQueue,
    SchedulerConfig,
    ServeRequest,
    format_serve_bench,
    serve_prompts,
)
from repro.serving.bench import MethodThroughput


def make_clusterkv():
    return ClusterKVSelector(
        ClusterKVConfig(
            tokens_per_cluster=12, decode_window=8, decode_clusters=2, num_sink_tokens=4
        )
    )


SELECTOR_FACTORIES = {
    "clusterkv": make_clusterkv,
    "full": FullKVSelector,
    "streaming_llm": StreamingLLMSelector,
    "quest": QuestSelector,
}


class TestRequestQueue:
    def test_fifo_order_and_arrival_numbers(self):
        queue = RequestQueue()
        first = queue.submit([1, 2, 3])
        second = queue.submit([4, 5], request_id="named")
        assert len(queue) == 2
        assert first.arrival_order < second.arrival_order
        assert queue.peek() is first
        assert queue.pop() is first
        assert queue.pop().request_id == "named"
        with pytest.raises(IndexError):
            queue.pop()

    def test_standalone_auto_ids_skip_explicit_ids(self):
        queue = RequestQueue()
        queue.submit([1, 2], request_id="req-0")
        auto = queue.submit([3, 4])
        assert auto.request_id != "req-0"

    def test_explicit_duplicate_id_rejected_by_queue(self):
        queue = RequestQueue()
        queue.submit([1, 2], request_id="a")
        queue.pop()
        # Ids stay reserved for the queue's lifetime — they key KV buffer
        # names and report entries downstream.
        with pytest.raises(ValueError, match="already submitted"):
            queue.submit([3, 4], request_id="a")

    def test_rejects_empty_prompt(self):
        queue = RequestQueue()
        with pytest.raises(ValueError):
            queue.submit(np.zeros(0, dtype=np.int64))

    def test_rejects_bad_max_new_tokens(self):
        with pytest.raises(ValueError):
            ServeRequest(request_id="x", prompt_ids=np.array([1]), max_new_tokens=0)


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_prefills_per_step=0)
        with pytest.raises(ValueError):
            SchedulerConfig(kv_budget_bytes=0)


class TestSchedulerAdmission:
    def _queue_with(self, lengths):
        queue = RequestQueue()
        for length in lengths:
            queue.submit(np.ones(length, dtype=np.int64))
        return queue

    def test_admits_in_arrival_order(self):
        queue = self._queue_with([8, 8, 8, 8])
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4)
        )
        admitted = scheduler.admit(
            queue, num_active=0, reserved_bytes=0,
            kv_bytes_per_token=1, default_max_new_tokens=4,
        )
        assert [r.arrival_order for r in admitted] == [0, 1, 2, 3]

    def test_respects_batch_slots_and_prefill_rate(self):
        queue = self._queue_with([8] * 6)
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=2)
        )
        first = scheduler.admit(queue, 0, 0, 1, 4)
        assert len(first) == 2  # prefill rate
        second = scheduler.admit(queue, 3, 0, 1, 4)
        assert len(second) == 1  # batch slots: 3 active + 1 = 4
        assert len(queue) == 3

    def test_head_of_line_blocks_under_budget_pressure(self):
        # Head request needs 100 bytes, later one only 10; with 50 bytes
        # free the scheduler must admit neither (no queue jumping).
        queue = RequestQueue()
        queue.submit(np.ones(96, dtype=np.int64))  # projected 100 bytes
        queue.submit(np.ones(6, dtype=np.int64))  # projected 10 bytes
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4, kv_budget_bytes=150)
        )
        admitted = scheduler.admit(
            queue, num_active=1, reserved_bytes=100,
            kv_bytes_per_token=1, default_max_new_tokens=4,
        )
        assert admitted == []
        assert len(queue) == 2

    def test_oversized_request_raises(self):
        queue = self._queue_with([200])
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(kv_budget_bytes=100)
        )
        with pytest.raises(ValueError):
            scheduler.admit(queue, 0, 0, 1, 4)

    def test_oversized_head_does_not_drop_admitted_requests(self):
        # A servable request ahead of an unservable one must be returned
        # (and stay popped), not lost to the ValueError.
        queue = self._queue_with([8, 200])
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4, kv_budget_bytes=100)
        )
        admitted = scheduler.admit(queue, 0, 0, 1, 4)
        assert [r.arrival_order for r in admitted] == [0]
        assert len(queue) == 1
        with pytest.raises(ValueError):
            scheduler.admit(queue, 0, 0, 1, 4)


class TestBatchOneBitIdentity:
    @pytest.mark.parametrize("method", ["clusterkv", "full", "streaming_llm", "quest"])
    def test_matches_single_sequence_engine(self, tiny_model, short_prompt, method):
        gen = GenerationConfig(
            budget=24, max_new_tokens=6, num_full_layers=1, num_sink_tokens=4
        )
        single = InferenceEngine(
            tiny_model, SELECTOR_FACTORIES[method](), gen
        ).generate(short_prompt)

        engine = BatchedEngine(
            tiny_model,
            SELECTOR_FACTORIES[method](),
            gen,
            SchedulerConfig(max_batch_size=1),
        )
        engine.submit(short_prompt, request_id="only")
        report = engine.run()
        batched = report.results()["only"]

        assert batched.output_ids == single.output_ids
        assert batched.output_logprobs == single.output_logprobs
        assert batched.decode_steps == single.decode_steps
        assert batched.selector_stats.selected_tokens == single.selector_stats.selected_tokens

    def test_non_greedy_sampling_matches(self, tiny_model, short_prompt):
        gen = GenerationConfig(
            budget=None, max_new_tokens=6, greedy=False, temperature=0.8, seed=3
        )
        single = InferenceEngine(tiny_model, FullKVSelector(), gen).generate(short_prompt)
        engine = BatchedEngine(tiny_model, FullKVSelector(), gen)
        engine.submit(short_prompt, request_id="only")
        batched = engine.run().results()["only"]
        assert batched.output_ids == single.output_ids


class TestBatchedEngine:
    def test_batched_outputs_match_sequential(self, tiny_model, rng):
        """Requests served concurrently produce the same tokens as alone."""
        gen = GenerationConfig(
            budget=24, max_new_tokens=5, num_full_layers=1, num_sink_tokens=4
        )
        prompts = [
            rng.integers(4, tiny_model.config.vocab_size, size=40 + 8 * i).astype(np.int64)
            for i in range(4)
        ]
        engine = BatchedEngine(
            tiny_model,
            make_clusterkv(),
            gen,
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4),
        )
        for i, prompt in enumerate(prompts):
            engine.submit(prompt, request_id=f"r{i}")
        report = engine.run()
        assert len(report.completed) == 4
        for i, prompt in enumerate(prompts):
            reference = InferenceEngine(tiny_model, make_clusterkv(), gen).generate(prompt)
            assert report.results()[f"r{i}"].output_ids == reference.output_ids

    def test_per_request_overrides(self, tiny_model, short_prompt):
        gen = GenerationConfig(budget=None, max_new_tokens=8)
        engine = BatchedEngine(tiny_model, FullKVSelector(), gen)
        engine.submit(short_prompt, request_id="short", max_new_tokens=2)
        engine.submit(short_prompt, request_id="long")
        report = engine.run()
        results = report.results()
        assert len(results["short"].output_ids) == 2
        assert len(results["long"].output_ids) == 8
        short_done = next(c for c in report.completed if c.request.request_id == "short")
        long_done = next(c for c in report.completed if c.request.request_id == "long")
        assert short_done.finished_at_step < long_done.finished_at_step

    def test_memory_released_on_retirement(self, tiny_model, short_prompt):
        gen = GenerationConfig(budget=16, max_new_tokens=3, num_sink_tokens=4)
        engine = BatchedEngine(tiny_model, make_clusterkv(), gen)
        for i in range(3):
            engine.submit(short_prompt, request_id=f"r{i}")
        report = engine.run()
        # ClusterKV keeps the bulk KV on the CPU tier; all of it must be
        # freed once every request has retired.
        assert engine.offload.cpu.used_bytes == 0
        assert engine.offload.gpu.used_bytes == 0
        assert report.peak_cpu_bytes > 0
        assert engine.reserved_kv_bytes() == 0

    def test_kv_budget_staggers_admission_without_starvation(self, tiny_model, rng):
        gen = GenerationConfig(budget=None, max_new_tokens=4)
        kv_per_token = tiny_model.config.kv_bytes_per_token()
        prompt_len = 32
        # Budget for exactly two in-flight requests.
        budget = 2 * (prompt_len + gen.max_new_tokens) * kv_per_token
        engine = BatchedEngine(
            tiny_model,
            FullKVSelector(),
            gen,
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8, kv_budget_bytes=budget),
        )
        for i in range(6):
            prompt = rng.integers(4, tiny_model.config.vocab_size, size=prompt_len)
            engine.submit(prompt.astype(np.int64), request_id=f"r{i}")
        report = engine.run()
        assert len(report.completed) == 6
        assert max(report.occupancy) <= 2
        assert report.peak_gpu_bytes <= budget
        # FCFS fairness: admission order equals arrival order, and earlier
        # requests never finish after later ones.
        admitted_order = sorted(report.completed, key=lambda c: c.request.arrival_order)
        admit_steps = [c.admitted_at_step for c in admitted_order]
        finish_steps = [c.finished_at_step for c in admitted_order]
        assert admit_steps == sorted(admit_steps)
        assert finish_steps == sorted(finish_steps)

    def test_mid_flight_submission_is_served(self, tiny_model, short_prompt):
        gen = GenerationConfig(budget=None, max_new_tokens=4)
        engine = BatchedEngine(tiny_model, FullKVSelector(), gen)
        engine.submit(short_prompt, request_id="first")
        engine.step()
        engine.submit(short_prompt, request_id="late")
        report = engine.run()
        assert set(report.results()) == {"late"} | {"first"}
        late = next(c for c in report.completed if c.request.request_id == "late")
        assert late.submitted_at_step == 1
        assert late.queue_delay_steps >= 0

    def test_duplicate_request_id_rejected(self, tiny_model, short_prompt):
        engine = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=2))
        engine.submit(short_prompt, request_id="dup")
        with pytest.raises(ValueError, match="already submitted"):
            engine.submit(short_prompt, request_id="dup")
        engine.run()
        # Ids key the shared KV buffers and the report, so reuse stays
        # rejected even after the original request has retired.
        with pytest.raises(ValueError, match="already submitted"):
            engine.submit(short_prompt, request_id="dup")

    def test_auto_ids_never_collide_with_explicit_ids(self, tiny_model, short_prompt):
        engine = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=2))
        engine.submit(short_prompt, request_id="req-0")
        auto = engine.submit(short_prompt)  # must not reuse "req-0"
        assert auto.request_id != "req-0"
        report = engine.run()
        assert len(report.completed) == 2
        assert set(report.results()) == {"req-0", auto.request_id}

    def test_oversized_submit_rejected_without_queueing(self, tiny_model, short_prompt):
        kv_per_token = tiny_model.config.kv_bytes_per_token()
        engine = BatchedEngine(
            tiny_model,
            FullKVSelector(),
            GenerationConfig(max_new_tokens=2),
            SchedulerConfig(kv_budget_bytes=16 * kv_per_token),
        )
        with pytest.raises(ValueError, match="more than the whole budget"):
            engine.submit(short_prompt, request_id="huge")
        assert len(engine.queue) == 0
        # The engine remains fully usable for requests that fit.
        small = np.arange(1, 9, dtype=np.int64)
        engine.submit(small, request_id="small", max_new_tokens=2)
        report = engine.run()
        assert list(report.results()) == ["small"]

    def test_no_per_request_state_retained_after_run(self, tiny_model, short_prompt):
        engine = BatchedEngine(tiny_model, FullKVSelector(), GenerationConfig(max_new_tokens=2))
        for i in range(3):
            engine.submit(short_prompt, request_id=f"r{i}")
        engine.run()
        assert engine._submitted_at_step == {}
        assert engine._reserved_bytes == {}
        assert engine.num_active == 0

    def test_request_timings_surfaced_in_report(self, tiny_model, short_prompt):
        gen = GenerationConfig(budget=None, max_new_tokens=4)
        engine = BatchedEngine(
            tiny_model, FullKVSelector(), gen, SchedulerConfig(max_batch_size=1)
        )
        engine.submit(short_prompt, request_id="first", arrival_time_s=1.5)
        engine.submit(short_prompt, request_id="second", arrival_time_s=2.5)
        report = engine.run()
        timings = report.request_timings()
        assert set(timings) == {"first", "second"}
        first = timings["first"]
        assert first["arrival_time_s"] == 1.5
        # Prefill samples the first token in the admission step.
        assert first["first_token_step"] == first["admitted_step"]
        assert first["finish_step"] >= first["first_token_step"]
        assert first["queue_wait_steps"] == 0.0
        # Batch capacity 1: the second request waits out the first.
        second = timings["second"]
        assert second["queue_wait_steps"] > 0
        assert report.queue_waits()["second"] == second["queue_wait_steps"]
        done = {c.request.request_id: c for c in report.completed}
        assert done["second"].arrival_time_s == 2.5
        assert done["first"].finish_step == done["first"].finished_at_step

    def test_step_trace_describes_each_step(self, tiny_model, short_prompt):
        gen = GenerationConfig(budget=None, max_new_tokens=3)
        engine = BatchedEngine(tiny_model, FullKVSelector(), gen)
        assert engine.last_step_trace is None
        engine.submit(short_prompt, request_id="only")
        engine.step()
        trace = engine.last_step_trace
        assert trace.engine_step == 0
        assert [e.request_id for e in trace.prefills] == ["only"]
        assert trace.prefills[0].context_length == short_prompt.shape[0]
        assert [e.request_id for e in trace.decodes] == ["only"]
        # Decode context: prompt plus the token appended this step.
        assert trace.decodes[0].context_length == short_prompt.shape[0] + 1
        assert trace.wall_seconds > 0.0
        engine.step()
        assert engine.last_step_trace.engine_step == 1
        assert engine.last_step_trace.prefills == []

    def test_serve_prompts_convenience(self, tiny_model, rng):
        prompts = [
            rng.integers(4, tiny_model.config.vocab_size, size=24).astype(np.int64)
            for _ in range(3)
        ]
        report = serve_prompts(
            tiny_model,
            prompts,
            generation_config=GenerationConfig(budget=None, max_new_tokens=2),
        )
        assert report.total_generated_tokens == 6
        assert report.mean_batch_occupancy > 0
        assert report.tokens_per_second > 0


MIXED_POLICIES = (
    "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4",
    "quest",
    "streaming_llm",
    "full",
)


class TestMixedPolicyBatches:
    """One engine serving requests that each carry their own policy."""

    def _generation_config(self):
        return GenerationConfig(
            budget=24, max_new_tokens=5, num_full_layers=1, num_sink_tokens=4
        )

    def _prompts(self, tiny_model, rng, count):
        return [
            rng.integers(4, tiny_model.config.vocab_size, size=40 + 8 * i).astype(
                np.int64
            )
            for i in range(count)
        ]

    def test_mixed_batch_bit_identical_to_homogeneous_runs(self, tiny_model, rng):
        """Each request's output is unchanged by its batch neighbours' policies.

        A single ``run()`` serves eight requests cycling through four
        policies; every request must match (tokens *and* logprobs) both a
        homogeneous batched run of that policy and the single-sequence
        engine.
        """
        gen = self._generation_config()
        prompts = self._prompts(tiny_model, rng, 8)
        assignments = [MIXED_POLICIES[i % len(MIXED_POLICIES)] for i in range(8)]

        mixed = BatchedEngine(
            tiny_model,
            selector="full",
            generation_config=gen,
            scheduler_config=SchedulerConfig(max_batch_size=8, max_prefills_per_step=8),
        )
        for i, (prompt, policy) in enumerate(zip(prompts, assignments)):
            mixed.submit(prompt, request_id=f"r{i}", policy=policy)
        mixed_results = mixed.run().results()
        assert len(mixed_results) == 8

        for policy in MIXED_POLICIES:
            indices = [i for i, assigned in enumerate(assignments) if assigned == policy]
            homogeneous = BatchedEngine(
                tiny_model,
                selector=policy,
                generation_config=gen,
                scheduler_config=SchedulerConfig(
                    max_batch_size=8, max_prefills_per_step=8
                ),
            )
            for i in indices:
                homogeneous.submit(prompts[i], request_id=f"r{i}")
            homogeneous_results = homogeneous.run().results()
            for i in indices:
                assert (
                    mixed_results[f"r{i}"].output_ids
                    == homogeneous_results[f"r{i}"].output_ids
                )
                assert (
                    mixed_results[f"r{i}"].output_logprobs
                    == homogeneous_results[f"r{i}"].output_logprobs
                )
                single = InferenceEngine(
                    tiny_model, build_policy(policy), gen
                ).generate(prompts[i])
                assert mixed_results[f"r{i}"].output_ids == single.output_ids

    def test_policy_descriptions_embedded_in_report(self, tiny_model, rng):
        gen = self._generation_config()
        engine = BatchedEngine(tiny_model, generation_config=gen)
        engine.submit(self._prompts(tiny_model, rng, 1)[0], request_id="q",
                      policy="quest:page_size=8")
        report = engine.run()
        description = report.policy_descriptions()["q"]
        assert description["name"] == "quest"
        assert description["page_size"] == 8
        # The embedded description is enough to rebuild the policy.
        rebuilt = build_policy(policy_spec_from_description(description))
        assert rebuilt.config.page_size == 8

    def test_serve_prompts_accepts_per_prompt_policies(self, tiny_model, rng):
        gen = self._generation_config()
        prompts = self._prompts(tiny_model, rng, 3)
        report = serve_prompts(
            tiny_model,
            prompts,
            generation_config=gen,
            policies=["quest", None, "streaming_llm"],
        )
        names = [
            report.policy_descriptions()[f"req-{i}"]["name"] for i in range(3)
        ]
        assert names == ["quest", "full", "streaming_llm"]

    def test_serve_prompts_policy_length_mismatch(self, tiny_model, rng):
        with pytest.raises(ValueError, match="one entry per prompt"):
            serve_prompts(
                tiny_model,
                self._prompts(tiny_model, rng, 2),
                policies=["quest"],
            )

    def test_engine_accepts_policy_string_as_default_selector(self, tiny_model, rng):
        gen = self._generation_config()
        engine = BatchedEngine(tiny_model, selector="streaming_llm", generation_config=gen)
        engine.submit(self._prompts(tiny_model, rng, 1)[0], request_id="s")
        report = engine.run()
        assert report.policy_descriptions()["s"]["name"] == "streaming_llm"

    def test_unknown_per_request_policy_rejected_at_submit(self, tiny_model, rng):
        engine = BatchedEngine(tiny_model, generation_config=self._generation_config())
        with pytest.raises(ValueError, match="registered policies"):
            engine.submit(self._prompts(tiny_model, rng, 1)[0], policy="bogus")
        assert len(engine.queue) == 0


class TestServeBenchConfigPolicies:
    def test_bare_name_policy_gets_serving_tuned_config(self):
        """--policy clusterkv benchmarks the same config as --methods clusterkv."""
        from repro.serving.bench import ServeBenchConfig, serving_policy_spec

        config = ServeBenchConfig(policies=(PolicySpec("clusterkv"),))
        (resolved,) = config.resolved_policies()
        assert resolved == serving_policy_spec("clusterkv", config.engine.num_sink_tokens)
        assert resolved.kwargs["tokens_per_cluster"] == 32

    def test_explicit_kwargs_policy_used_verbatim(self):
        from repro.serving.bench import ServeBenchConfig

        spec = PolicySpec("clusterkv", {"tokens_per_cluster": 64})
        config = ServeBenchConfig(policies=(spec,))
        assert config.resolved_policies() == (spec,)

    def test_mixed_bench_reports_only_exercised_policies(self):
        from repro.serving.bench import ServeBenchConfig, run_mixed_serve_bench, serving_engine_spec

        config = ServeBenchConfig(
            policies=(
                PolicySpec("streaming_llm"),
                PolicySpec("full"),
                PolicySpec("quest"),
            ),
            num_requests=2,  # round-robin never reaches quest
            engine=serving_engine_spec(max_batch_size=2, max_new_tokens=4),
            prompt_len=12,
            repeats=1,
        )
        result = run_mixed_serve_bench(config)
        assert [spec.name for spec in result.policies] == ["streaming_llm", "full"]

    def test_duplicate_method_names_get_distinct_row_labels(self):
        from repro.serving.bench import ServeBenchConfig, run_serve_bench, serving_engine_spec

        config = ServeBenchConfig(
            policies=(
                PolicySpec("quest", {"page_size": 8}),
                PolicySpec("quest", {"page_size": 32}),
            ),
            num_requests=2,
            engine=serving_engine_spec(max_batch_size=2, max_new_tokens=4),
            prompt_len=12,
            repeats=1,
        )
        labels = [row.method for row in run_serve_bench(config)]
        assert len(set(labels)) == 2
        assert "page_size=8" in labels[0] and "page_size=32" in labels[1]

    def test_identical_duplicate_specs_still_get_distinct_labels(self):
        from repro.serving.bench import ServeBenchConfig, run_serve_bench, serving_engine_spec

        config = ServeBenchConfig(
            policies=(PolicySpec("quest"), PolicySpec("quest")),
            num_requests=2,
            engine=serving_engine_spec(max_batch_size=2, max_new_tokens=4),
            prompt_len=12,
            repeats=1,
        )
        labels = [row.method for row in run_serve_bench(config)]
        assert len(set(labels)) == 2

    def test_a_wide_batch_prefills_in_one_step(self):
        # The bench sets max_prefills_per_step = max_batch_size itself, so a
        # batch of 16 admits all 16 requests at once: 3 engine steps at full
        # occupancy, as measured before the configs were composed (a cap left
        # at 8 needs a fourth step at mean occupancy 12).
        from repro.serving.bench import ServeBenchConfig, run_serve_bench, serving_engine_spec

        config = ServeBenchConfig(
            engine=serving_engine_spec(
                model="tiny", max_batch_size=16, max_new_tokens=4, budget=16
            ),
            methods=("clusterkv", "full"),
            num_requests=16,
            prompt_len=24,
            repeats=1,
        )
        assert config.engine.max_prefills_per_step == 16
        for row in run_serve_bench(config):
            assert (row.batched_engine_steps, row.mean_occupancy) == (3, 16.0)

    def test_empty_policies_and_methods_rejected(self):
        from repro.serving.bench import ServeBenchConfig

        with pytest.raises(ValueError, match="non-empty"):
            ServeBenchConfig(policies=())
        with pytest.raises(ValueError, match="non-empty"):
            ServeBenchConfig(methods=())


class TestServeBenchFormatting:
    def test_format_serve_bench_table(self):
        rows = [
            MethodThroughput(
                method="clusterkv",
                num_requests=8,
                batch_size=8,
                total_tokens=768,
                sequential_seconds=2.0,
                batched_seconds=1.0,
                mean_occupancy=7.5,
            )
        ]
        table = format_serve_bench(rows)
        assert "clusterkv" in table
        assert "2.00x" in table
        assert rows[0].speedup == pytest.approx(2.0)
        assert rows[0].batched_tokens_per_second == pytest.approx(768.0)
