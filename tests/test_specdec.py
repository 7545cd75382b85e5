"""Differential and unit tests of speculative decoding (:mod:`repro.specdec`).

The load-bearing guarantee: greedy decoding with speculation ON emits
exactly the tokens AND log-probabilities of speculation OFF at batch
size one, for every registered policy on both test models — speculation
is a pure engine-step optimisation, invisible in the outputs.  On top:
rejection hygiene (a fully rejected round computes one position and
leaves no residue in the KV cache, selector state or offload ledger),
the RNG draw order of sampled speculation pinned to a reference run, the
conserved accounting ``accepted + rejected == drafted`` in every report,
the step-count win the feature exists for, checkpoint compatibility, and
the satellite bugfixes of the same PR (NaN percentiles for empty samples,
typed degenerate-distribution errors, ``WorkerCrashed`` detail).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.api import EngineSpec
from repro.execbackend import WorkerCrashed
from repro.memory import OffloadManager
from repro.model import (
    EngineCore,
    GenerationConfig,
    SequenceState,
    TransformerModel,
    get_model_config,
)
from repro.model.sampling import (
    DegenerateDistributionError,
    apply_temperature,
    mix_distributions,
    temperature_sample,
)
from repro.perf.counters import count_ops
from repro.policies import available_policies, build_policy
from repro.serving import BatchedEngine
from repro.specdec import (
    Drafter,
    NGramDrafter,
    SpeculationConfig,
    build_drafter,
    drafter_names,
    register_drafter,
)
from repro.specdec.drafter import _DRAFTERS
from repro.specdec.verify import speculative_round
from repro.serving.bench import serving_engine_spec
from repro.traffic import TrafficConfig
from repro.traffic.bench import run_traffic_bench, TrafficBenchConfig, WorkloadSpec
from repro.traffic.report import RequestMetrics, TrafficReport, percentile

CLUSTERKV = "clusterkv:tokens_per_cluster=12,decode_window=8,decode_clusters=2,num_sink_tokens=4"

# Policy spec of every registered method, sized for the tiny test models.
POLICY_SPECS = {
    name: (CLUSTERKV if name == "clusterkv" else name) for name in available_policies()
}


@pytest.fixture(scope="module")
def models():
    """Both test models, built once for the whole module."""
    return {
        name: TransformerModel(get_model_config(name))
        for name in ("tiny", "serve-sim")
    }


def generation(greedy: bool = True, **overrides) -> GenerationConfig:
    """Small-budget generation config shared by the differential tests."""
    base = dict(
        budget=24,
        num_full_layers=1,
        num_sink_tokens=4,
        max_new_tokens=8,
        greedy=greedy,
        seed=3,
    )
    base.update(overrides)
    return GenerationConfig(**base)


def repetitive_prompt(vocab_size: int, length: int = 40) -> np.ndarray:
    """A periodic prompt the n-gram drafter accepts heavily on."""
    pattern = np.array([7, 11, 13, 17], dtype=np.int64) % vocab_size
    return np.tile(pattern, length // len(pattern) + 1)[:length]


def random_prompt(vocab_size: int, length: int = 40, seed: int = 11) -> np.ndarray:
    """A seeded incompressible prompt (exercises the empty-draft path)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_size, length)


def run_serve(model, policy, prompts, speculation=None, gen=None):
    """Serve ``prompts`` through one BatchedEngine; returns its report."""
    engine = BatchedEngine(
        model,
        selector=build_policy(policy),
        generation_config=gen or generation(),
        speculation=speculation,
    )
    for index, prompt in enumerate(prompts):
        engine.submit(prompt, request_id=f"req-{index}")
    return engine.run()


def results_by_id(report):
    """Request id -> GenerationResult of a ServeReport."""
    return {c.request.request_id: c.result for c in report.completed}


def assert_conserved(speculation: dict) -> None:
    """The accounting invariant every report must satisfy."""
    assert (
        speculation["accepted_tokens"] + speculation["rejected_tokens"]
        == speculation["drafted_tokens"]
    )


# ----------------------------------------------------------------------
# drafters and configuration
# ----------------------------------------------------------------------
class TestNGramDrafter:
    def test_proposes_continuation_of_earlier_match(self):
        drafter = NGramDrafter()
        # Suffix [1, 2, 3] occurs at the start; its continuation follows.
        assert drafter.propose([1, 2, 3, 4, 1, 2, 3], 3) == [4, 1, 2]

    def test_prefers_most_recent_match(self):
        drafter = NGramDrafter(max_ngram=1)
        # Token 5 occurs twice; the later occurrence (followed by 9) wins.
        assert drafter.propose([5, 8, 5, 9, 5], 1) == [9]

    def test_prefers_longer_ngram(self):
        drafter = NGramDrafter(max_ngram=3)
        # A 2-gram match exists later, but the 3-gram match wins outright.
        history = [1, 2, 3, 7, 9, 2, 3, 8, 1, 2, 3]
        assert drafter.propose(history, 1) == [7]

    def test_empty_on_novel_history(self):
        drafter = NGramDrafter()
        assert drafter.propose([1, 2, 3, 4, 5], 4) == []

    def test_empty_on_degenerate_inputs(self):
        drafter = NGramDrafter()
        assert drafter.propose([1, 1, 1], 0) == []
        assert drafter.propose([1], 4) == []
        assert drafter.propose([], 4) == []

    def test_caps_draft_at_k(self):
        drafter = NGramDrafter()
        draft = drafter.propose(list(repetitive_prompt(128, 40)), 4)
        assert 1 <= len(draft) <= 4

    def test_deterministic(self):
        drafter = NGramDrafter()
        history = list(random_prompt(128, 64))
        assert drafter.propose(history, 4) == drafter.propose(history, 4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NGramDrafter(max_ngram=0)
        with pytest.raises(ValueError):
            NGramDrafter(max_ngram=2, min_ngram=3)
        with pytest.raises(ValueError):
            NGramDrafter(max_ngram=2, min_ngram=0)

    def test_describe(self):
        assert NGramDrafter(max_ngram=5).describe() == {
            "name": "ngram",
            "max_ngram": 5,
            "min_ngram": 1,
        }


class TestRegistry:
    def test_ngram_registered(self):
        assert "ngram" in drafter_names()
        assert isinstance(build_drafter("ngram"), NGramDrafter)

    def test_unknown_drafter_lists_known_names(self):
        with pytest.raises(ValueError, match="ngram"):
            build_drafter("definitely-not-registered")

    def test_register_custom_drafter(self):
        class _Const(Drafter):
            name = "test-const"

            def propose(self, token_history, k):
                return [0] * k

        register_drafter("test-const", _Const)
        try:
            assert "test-const" in drafter_names()
            assert build_drafter("test-const").propose([1, 2], 2) == [0, 0]
        finally:
            _DRAFTERS.pop("test-const", None)


class TestSpeculationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(k=0)
        with pytest.raises(ValueError):
            SpeculationConfig(drafter="")

    def test_build_and_describe(self):
        config = SpeculationConfig(drafter="ngram", k=3)
        assert isinstance(config.build_drafter(), NGramDrafter)
        assert config.describe() == {"drafter": "ngram", "k": 3}

    def test_engine_spec_threading(self):
        spec = EngineSpec(speculate_k=4, drafter="ngram")
        config = spec.speculation_config()
        assert config == SpeculationConfig(drafter="ngram", k=4)
        assert EngineSpec(speculate_k=0).speculation_config() is None
        assert EngineSpec.from_dict(spec.to_dict()).speculate_k == 4
        with pytest.raises(ValueError):
            EngineSpec(speculate_k=-1)
        with pytest.raises(ValueError, match="drafter"):
            EngineSpec(speculate_k=2, drafter="nope")
        # An unknown drafter name is irrelevant while speculation is off.
        EngineSpec(speculate_k=0, drafter="nope")


class _ReplayDrafter(Drafter):
    """Deterministic test drafter built from a plain run's known outputs.

    Proposes the token the model will actually emit at each position,
    except every third position, which it flips to a guaranteed-wrong
    token — so every policy/model cell exercises non-trivial accepted
    prefixes AND rejections, independent of whether the
    n-gram drafter happens to find matches in that model's output.
    """

    name = "test-replay"

    def __init__(self, prompt_len: int, expected: list[int], vocab: int):
        self.prompt_len = prompt_len
        self.expected = expected
        self.vocab = vocab

    def propose(self, token_history, k):
        position = len(token_history) - self.prompt_len
        draft = []
        for offset in range(k):
            index = position + offset
            base = self.expected[index] if index < len(self.expected) else 0
            if index % 3 == 2:
                base = (base + 1) % self.vocab
            draft.append(base)
        return draft


# ----------------------------------------------------------------------
# the core property: greedy spec-on == spec-off, bit for bit, at B=1
# ----------------------------------------------------------------------
class TestGreedyDifferential:
    @pytest.mark.parametrize("model_name", ["tiny", "serve-sim"])
    @pytest.mark.parametrize("policy_name", sorted(POLICY_SPECS))
    def test_every_policy_bit_identical_at_batch_one(
        self, models, model_name, policy_name
    ):
        """Tokens AND logprobs identical, spec-on vs spec-off, all policies."""
        model = models[model_name]
        prompt = repetitive_prompt(model.config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        plain = run_serve(model, policy, [prompt])
        expected = results_by_id(plain)["req-0"]
        register_drafter(
            "test-replay",
            lambda: _ReplayDrafter(
                len(prompt), expected.output_ids, model.config.vocab_size
            ),
        )
        try:
            spec = run_serve(
                model,
                policy,
                [prompt],
                speculation=SpeculationConfig(drafter="test-replay", k=4),
            )
        finally:
            _DRAFTERS.pop("test-replay", None)
        actual = results_by_id(spec)["req-0"]
        assert actual.output_ids == expected.output_ids
        assert actual.output_logprobs == expected.output_logprobs
        assert actual.decode_steps == expected.decode_steps
        accounting = spec.speculation()
        assert_conserved(accounting)
        assert accounting["drafted_tokens"] > 0
        assert accounting["accepted_tokens"] > 0
        assert accounting["rejected_tokens"] > 0

    @pytest.mark.parametrize("model_name", ["tiny", "serve-sim"])
    def test_ngram_drafter_end_to_end_identical(self, models, model_name):
        """The production drafter: identical outputs on both models."""
        model = models[model_name]
        prompt = repetitive_prompt(model.config.vocab_size)
        plain = run_serve(model, CLUSTERKV, [prompt])
        spec = run_serve(
            model, CLUSTERKV, [prompt], speculation=SpeculationConfig(k=4)
        )
        expected = results_by_id(plain)["req-0"]
        actual = results_by_id(spec)["req-0"]
        assert actual.output_ids == expected.output_ids
        assert actual.output_logprobs == expected.output_logprobs
        assert_conserved(spec.speculation())
        if model_name == "tiny":
            # tiny's greedy output continues the periodic prompt, so the
            # n-gram drafter finds matches; serve-sim's output is novel
            # and the drafter (correctly) proposes little or nothing.
            assert spec.speculation()["drafted_tokens"] > 0

    @pytest.mark.parametrize("policy_name", ["clusterkv", "full", "streaming_llm"])
    def test_incompressible_prompt_still_identical(self, models, policy_name):
        """Random prompts (empty/low-acceptance drafts) change nothing."""
        model = models["tiny"]
        prompt = random_prompt(model.config.vocab_size)
        policy = POLICY_SPECS[policy_name]
        plain = run_serve(model, policy, [prompt])
        spec = run_serve(
            model, policy, [prompt], speculation=SpeculationConfig(k=4)
        )
        assert (
            results_by_id(spec)["req-0"].output_ids
            == results_by_id(plain)["req-0"].output_ids
        )
        assert (
            results_by_id(spec)["req-0"].output_logprobs
            == results_by_id(plain)["req-0"].output_logprobs
        )
        assert_conserved(spec.speculation())

    def test_multi_request_batch_token_identical(self, models):
        """Batched serving: same tokens; logprobs equal to BLAS rounding.

        Per-offset verify batches shrink as requests run out of draft, so
        the BLAS accumulation order (hence the last bit of the logprobs)
        can differ from the plain batch — the same batch-shape caveat the
        engine documents for occupancy changes.  Token decisions are
        argmaxes with real margins and stay identical.
        """
        model = models["serve-sim"]
        vocab = model.config.vocab_size
        prompts = [
            repetitive_prompt(vocab, 40),
            random_prompt(vocab, 36, seed=5),
            repetitive_prompt(vocab, 44),
            random_prompt(vocab, 48, seed=6),
        ]
        plain = run_serve(model, CLUSTERKV, prompts)
        spec = run_serve(
            model, CLUSTERKV, prompts, speculation=SpeculationConfig(k=4)
        )
        expected = results_by_id(plain)
        actual = results_by_id(spec)
        assert set(actual) == set(expected)
        for rid in expected:
            assert actual[rid].output_ids == expected[rid].output_ids
            np.testing.assert_allclose(
                actual[rid].output_logprobs,
                expected[rid].output_logprobs,
                rtol=1e-9,
                atol=1e-12,
            )
        assert_conserved(spec.speculation())

    def test_step_reduction_on_serve_bench_workload(self, models):
        """The headline win: >= 1.3x fewer engine steps at k=4, batch 8."""
        model = models["serve-sim"]
        prompts = [
            np.tile(np.array([5, 6, 7, 8], dtype=np.int64), 16) for _ in range(8)
        ]
        gen = GenerationConfig(
            budget=48,
            num_full_layers=1,
            num_sink_tokens=4,
            max_new_tokens=48,
            greedy=True,
            seed=3,
        )
        plain = run_serve(model, "full", prompts, gen=gen)
        spec = run_serve(
            model, "full", prompts, speculation=SpeculationConfig(k=4), gen=gen
        )
        expected = results_by_id(plain)
        actual = results_by_id(spec)
        for rid in expected:
            assert actual[rid].output_ids == expected[rid].output_ids
        assert spec.engine_steps * 1.3 <= plain.engine_steps
        accounting = spec.speculation()
        assert_conserved(accounting)
        assert accounting["acceptance_rate"] > 0.5
        assert accounting["mean_accepted_run_length"] > 1.0
        # Compressed policies improve too, if less (their looping outputs
        # give the drafter shorter matches); strict step win either way.
        plain_ck = run_serve(model, CLUSTERKV, prompts, gen=gen)
        spec_ck = run_serve(
            model, CLUSTERKV, prompts, speculation=SpeculationConfig(k=4), gen=gen
        )
        assert spec_ck.engine_steps < plain_ck.engine_steps


# ----------------------------------------------------------------------
# rejection hygiene: rejected drafts are never computed, leave no residue
# ----------------------------------------------------------------------
class _AvoidDrafter(Drafter):
    """Adversarial drafter proposing tokens guaranteed to be rejected.

    Built from the plain run's known outputs: at every position it
    proposes ``expected_token + 1 (mod vocab)``, so greedy acceptance is
    zero and every round stops at its first draft token.
    """

    name = "test-avoid"

    def __init__(self, prompt_len: int, expected: list[int], vocab: int, k_pad: int):
        self.prompt_len = prompt_len
        self.expected = expected
        self.vocab = vocab
        self.k_pad = k_pad

    def propose(self, token_history, k):
        position = len(token_history) - self.prompt_len
        draft = []
        for offset in range(min(k, self.k_pad)):
            index = position + offset
            base = self.expected[index] if index < len(self.expected) else 0
            draft.append((base + 1) % self.vocab)
        return draft


class TestRollback:
    def _fresh(self, model, policy):
        selector = build_policy(policy)
        core = EngineCore(model, generation())
        seq = SequenceState(model, selector, generation(), OffloadManager())
        return core, seq

    @pytest.mark.parametrize("policy_name", sorted(POLICY_SPECS))
    def test_fully_rejected_round_leaves_no_residue(self, models, policy_name):
        """All-wrong drafts: same emission, same state, clean invariants."""
        model = models["tiny"]
        policy = POLICY_SPECS[policy_name]
        prompt = repetitive_prompt(model.config.vocab_size)

        # Plain twin: its outputs define what the wrong drafts must avoid.
        plain = results_by_id(run_serve(model, policy, [prompt]))["req-0"]

        core, seq = self._fresh(model, policy)
        distribution = core.prefill(seq, prompt)
        token = core.pick_token(seq, distribution)
        core.record_output(seq, token, distribution)
        wrong = [
            (plain.output_ids[1 + offset] + 1) % model.config.vocab_size
            for offset in range(4)
        ]
        emitted = speculative_round(core, [seq], [token], [0], [wrong])
        assert emitted == [[plain.output_ids[1]]]
        assert seq.result.spec_accepted_tokens == 0
        assert seq.result.spec_rejected_tokens == 4
        assert seq.result.spec_drafted_tokens == 4
        assert seq.result.output_logprobs == plain.output_logprobs[:2]
        # Tier accounting reconciles against the live store mid-run.
        seq.offload.check_invariants(stores=[seq.kv_store])

        # Continuing plainly from the post-round state must replay the
        # uninterrupted run exactly — KV, selector state, pointer head and
        # ledger all back to where a plain step would have left them.
        token = emitted[0][-1]
        for step in range(1, generation().max_new_tokens - 1):
            distribution = core.decode_step_batch([seq], [token], [step])[0]
            token = core.pick_token(seq, distribution)
            core.record_output(seq, token, distribution)
        assert seq.result.output_ids == plain.output_ids
        assert seq.result.output_logprobs == plain.output_logprobs

    def test_fully_rejected_round_costs_one_decode_step(self, models):
        """A miss at the first draft token stops the round: no wasted compute.

        The four rejected positions are never fed, so the round's decode
        attention and selection GEMMs equal one plain ``decode_step_batch``.
        """
        model = models["tiny"]
        prompt = repetitive_prompt(model.config.vocab_size)
        plain = results_by_id(run_serve(model, CLUSTERKV, [prompt]))["req-0"]
        wrong = [
            (plain.output_ids[1 + offset] + 1) % model.config.vocab_size
            for offset in range(4)
        ]
        names = ("gemm.attention_decode", "gemm.selection_score")
        counts = []
        for speculate in (False, True):
            core, seq = self._fresh(model, CLUSTERKV)
            token = core.pick_token(seq, core.prefill(seq, prompt))
            with count_ops() as ops:
                if speculate:
                    speculative_round(core, [seq], [token], [0], [wrong])
                else:
                    core.decode_step_batch([seq], [token], [0])
            counts.append({name: ops.as_dict().get(name, 0) for name in names})
        assert counts[1] == counts[0]
        assert counts[0]["gemm.selection_score"] > 0

    def test_adversarial_drafter_end_to_end(self, models):
        """A zero-acceptance engine run is still bit-identical to plain."""
        model = models["tiny"]
        prompt = repetitive_prompt(model.config.vocab_size)
        plain = results_by_id(run_serve(model, CLUSTERKV, [prompt]))["req-0"]
        register_drafter(
            "test-avoid",
            lambda: _AvoidDrafter(
                len(prompt), plain.output_ids, model.config.vocab_size, 4
            ),
        )
        try:
            spec = run_serve(
                model,
                CLUSTERKV,
                [prompt],
                speculation=SpeculationConfig(drafter="test-avoid", k=4),
            )
        finally:
            _DRAFTERS.pop("test-avoid", None)
        actual = results_by_id(spec)["req-0"]
        assert actual.output_ids == plain.output_ids
        assert actual.output_logprobs == plain.output_logprobs
        accounting = spec.speculation()
        assert_conserved(accounting)
        assert accounting["accepted_tokens"] == 0.0
        assert accounting["rejected_tokens"] > 0.0


# ----------------------------------------------------------------------
# temperature sampling and checkpoint safety
# ----------------------------------------------------------------------
class TestTemperature:
    def test_sampled_speculation_is_deterministic(self, models):
        """Same seed, same config -> identical spec-on sampled output."""
        model = models["tiny"]
        prompt = repetitive_prompt(model.config.vocab_size)
        gen = generation(greedy=False, temperature=0.8)
        first = run_serve(
            model, CLUSTERKV, [prompt], speculation=SpeculationConfig(k=4), gen=gen
        )
        second = run_serve(
            model, CLUSTERKV, [prompt], speculation=SpeculationConfig(k=4), gen=gen
        )
        a, b = results_by_id(first)["req-0"], results_by_id(second)["req-0"]
        assert a.output_ids == b.output_ids
        assert a.output_logprobs == b.output_logprobs
        assert_conserved(first.speculation())

    def test_sampled_speculation_matches_reference_run(self, models):
        """RNG draw order pinned: 4 requests, temperature 0.8, rejections.

        The digest of the output ids and the per-request
        ``(rounds, drafted, accepted, rejected)`` were taken from the
        rollback-based verify round that preceded stop-at-first-miss;
        any change to the order of acceptance, residual and bonus draws
        moves them.
        """
        model = models["tiny"]
        vocab = model.config.vocab_size
        prompts = [
            repetitive_prompt(vocab, 40),
            random_prompt(vocab, 36, seed=5),
            repetitive_prompt(vocab, 44),
            random_prompt(vocab, 48, seed=6),
        ]
        gen = generation(greedy=False, temperature=0.8, max_new_tokens=16)
        report = run_serve(
            model, CLUSTERKV, prompts, speculation=SpeculationConfig(k=4), gen=gen
        )
        results = results_by_id(report)
        ids = json.dumps({rid: results[rid].output_ids for rid in sorted(results)})
        assert hashlib.sha256(ids.encode()).hexdigest()[:16] == "221634bb3febb9d7"
        assert {
            rid: (
                r.spec_rounds,
                r.spec_drafted_tokens,
                r.spec_accepted_tokens,
                r.spec_rejected_tokens,
            )
            for rid, r in results.items()
        } == {
            "req-0": (3, 12, 12, 0),
            "req-1": (4, 16, 10, 6),
            "req-2": (3, 12, 12, 0),
            "req-3": (4, 14, 11, 3),
        }

    def test_sampled_speculation_emits_full_length(self, models):
        model = models["tiny"]
        prompt = repetitive_prompt(model.config.vocab_size)
        gen = generation(greedy=False, temperature=1.2, max_new_tokens=10)
        report = run_serve(
            model, "full", [prompt], speculation=SpeculationConfig(k=3), gen=gen
        )
        result = results_by_id(report)["req-0"]
        assert len(result.output_ids) == 10
        assert all(math.isfinite(lp) for lp in result.output_logprobs)
        assert_conserved(report.speculation())


class TestCheckpointSafety:
    def test_checkpoint_mid_speculative_run_is_invisible(self, models):
        """Checkpoint between rounds, restore elsewhere: identical output."""
        model = models["tiny"]
        prompt = repetitive_prompt(model.config.vocab_size)
        speculation = SpeculationConfig(k=4)
        gen = generation(max_new_tokens=12)
        baseline = results_by_id(
            run_serve(model, CLUSTERKV, [prompt], speculation=speculation, gen=gen)
        )["req-0"]

        source = BatchedEngine(
            model,
            selector=build_policy(CLUSTERKV),
            generation_config=gen,
            speculation=speculation,
        )
        source.submit(prompt, request_id="req-0")
        for _ in range(2):  # prefill + at least one speculative round
            source.step()
        checkpoint = source.checkpoint_request("req-0", keep=False)
        assert 0 < len(checkpoint.result.output_ids) < len(baseline.output_ids)

        target = BatchedEngine(
            model,
            selector=build_policy(CLUSTERKV),
            generation_config=gen,
            speculation=speculation,
        )
        target.restore_request(checkpoint)
        report = target.run()
        restored = results_by_id(report)["req-0"]
        assert restored.output_ids == baseline.output_ids
        assert restored.output_logprobs == baseline.output_logprobs
        assert (
            restored.spec_accepted_tokens + restored.spec_rejected_tokens
            == restored.spec_drafted_tokens
        )


# ----------------------------------------------------------------------
# reports, traffic threading and the CLI
# ----------------------------------------------------------------------
class TestReports:
    def test_serve_report_zero_without_speculation(self, models):
        report = run_serve(
            models["tiny"], "full", [repetitive_prompt(128)]
        )
        accounting = report.speculation()
        assert accounting["drafted_tokens"] == 0.0
        assert accounting["acceptance_rate"] == 0.0
        assert accounting["mean_accepted_run_length"] == 0.0

    @staticmethod
    def _traffic_bench(num_replicas: int, speculate_k: int) -> TrafficBenchConfig:
        return TrafficBenchConfig(
            workload=WorkloadSpec(
                num_requests=4, rate=2.0, prompt_len_min=24, prompt_len_max=40, seed=3
            ),
            fleet=TrafficConfig(
                engine=serving_engine_spec(max_new_tokens=8, speculate_k=speculate_k),
                num_replicas=num_replicas,
                router="jsq",
            ),
        )

    def test_traffic_report_carries_speculation(self):
        config = self._traffic_bench(num_replicas=1, speculate_k=4)
        report = run_traffic_bench(config)
        accounting = report.speculation()
        assert_conserved(accounting)
        payload = json.loads(report.to_json())
        assert payload["speculation"]["drafted_tokens"] == accounting[
            "drafted_tokens"
        ]
        for metrics in report.requests:
            assert (
                metrics.spec_accepted_tokens + metrics.spec_rejected_tokens
                == metrics.spec_drafted_tokens
            )
        # Byte-reproducible with speculation on.
        assert run_traffic_bench(config).to_json() == report.to_json()

    def test_traffic_speculation_matches_serial_outputs(self):
        """Spec-on traffic sim serves the same tokens as spec-off."""
        plain = run_traffic_bench(self._traffic_bench(num_replicas=2, speculate_k=0))
        spec = run_traffic_bench(self._traffic_bench(num_replicas=2, speculate_k=4))
        plain_tokens = {m.request_id: m.output_tokens for m in plain.requests}
        spec_tokens = {m.request_id: m.output_tokens for m in spec.requests}
        assert spec_tokens == plain_tokens
        assert spec.engine_steps <= plain.engine_steps

    def test_cli_traffic_bench_speculate_flag(self, capsys):
        from repro.cli import main

        main(
            [
                "traffic-bench",
                "--requests",
                "3",
                "--rate",
                "2.0",
                "--new-tokens",
                "6",
                "--prompt-len-min",
                "24",
                "--prompt-len-max",
                "32",
                "--speculate",
                "2",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        accounting = payload["speculation"]
        assert (
            accounting["accepted_tokens"] + accounting["rejected_tokens"]
            == accounting["drafted_tokens"]
        )


# ----------------------------------------------------------------------
# satellite: empty-sample percentiles serialise as null, with counts
# ----------------------------------------------------------------------
class TestLatencyMetricEdgeCases:
    def test_percentile_of_empty_is_nan(self):
        assert math.isnan(percentile([], 50))
        assert math.isnan(percentile([], 99))

    def test_empty_report_serialises_nan_as_null(self):
        report = TrafficReport()
        summary = report.latency_summary()
        assert summary["ttft_s"]["samples"] == 0.0
        assert math.isnan(summary["ttft_s"]["p50"])
        payload = report.to_dict()
        assert payload["latency"]["ttft_s"]["p50"] is None
        assert payload["latency"]["ttft_s"]["samples"] == 0.0
        # Standard JSON: no NaN/Infinity literals anywhere in the body.
        text = report.to_json()
        json.loads(text)
        assert "NaN" not in text and "Infinity" not in text

    def test_all_rejected_class_reports_null_not_zero(self):
        """Regression: an all-rejected run must not look latency-perfect."""
        from repro.traffic.report import RejectedRequest

        report = TrafficReport(
            rejected=[
                RejectedRequest(
                    request_id="r0",
                    arrival_time_s=0.0,
                    prompt_tokens=32,
                    max_new_tokens=8,
                    reason="kv_headroom",
                )
            ]
        )
        assert report.num_submitted == 1 and report.num_requests == 0
        payload = report.to_dict()
        for series in payload["latency"].values():
            assert series["p50"] is None and series["p99"] is None
            assert series["samples"] == 0.0

    def test_samples_counts_match_served_requests(self):
        metrics = [
            RequestMetrics(
                request_id=f"r{i}",
                replica=0,
                policy="full",
                arrival_time_s=0.0,
                queue_wait_s=0.1,
                ttft_s=0.5,
                tpot_s=0.05,
                e2e_s=1.0,
                prompt_tokens=16,
                output_tokens=4,
                slo_met=True,
                slo_class="interactive" if i % 2 else "batch",
            )
            for i in range(3)
        ]
        report = TrafficReport(requests=metrics)
        summary = report.latency_summary()
        assert all(entry["samples"] == 3.0 for entry in summary.values())
        classes = report.class_summary()
        assert classes["interactive"]["num_requests"] == 1
        assert classes["batch"]["num_requests"] == 2


# ----------------------------------------------------------------------
# satellite: typed degenerate-distribution errors
# ----------------------------------------------------------------------
class TestDegenerateDistributions:
    def test_mix_zero_mass_primary_raises_typed_error(self):
        with pytest.raises(DegenerateDistributionError):
            mix_distributions(np.zeros(4), None, 1.0)

    def test_mix_zero_mass_mixture_raises_typed_error(self):
        with pytest.raises(DegenerateDistributionError):
            mix_distributions(np.zeros(4), np.zeros(4), 0.5)

    def test_typed_error_is_a_value_error(self):
        assert issubclass(DegenerateDistributionError, ValueError)

    def test_mix_shape_and_gate_validation(self):
        with pytest.raises(ValueError):
            mix_distributions(np.ones(3), np.ones(4), 0.5)
        with pytest.raises(ValueError):
            mix_distributions(np.ones(3), np.ones(3), 1.5)

    def test_mix_normalises(self):
        mixed = mix_distributions(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_allclose(mixed, [0.5, 0.5])

    def test_apply_temperature_zero_mass_raises(self):
        with pytest.raises(DegenerateDistributionError):
            apply_temperature(np.zeros(4))

    def test_temperature_sample_zero_mass_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateDistributionError):
            temperature_sample(np.zeros(4), rng)

    def test_temperature_sample_still_works(self):
        rng = np.random.default_rng(0)
        token = temperature_sample(np.array([0.0, 1.0, 0.0]), rng, 0.5)
        assert token == 1


# ----------------------------------------------------------------------
# satellite: WorkerCrashed carries an attributable detail
# ----------------------------------------------------------------------
class TestWorkerCrashedDetail:
    def test_detail_lands_in_message_and_attribute(self):
        error = WorkerCrashed(3, "step", detail="pipe error: EOFError(); worker exitcode=-9")
        assert error.worker == 3 and error.command == "step"
        assert error.detail == "pipe error: EOFError(); worker exitcode=-9"
        assert "worker 3" in str(error) and "'step'" in str(error)
        assert "exitcode=-9" in str(error)

    def test_detail_is_optional(self):
        error = WorkerCrashed(0, "submit")
        assert error.detail is None
        assert str(error).count("\n") == 0

    def test_killed_worker_surfaces_exit_code(self):
        from repro.execbackend import MultiprocessBackend

        spec = EngineSpec(model="serve-sim", max_new_tokens=8)
        backend = MultiprocessBackend(spec.build_model(), spec, workers=1)
        try:
            handle = backend.create_handle()
            client = backend._clients[0]
            client.process.kill()
            client.process.join(timeout=10)
            with pytest.raises(WorkerCrashed) as excinfo:
                handle.start_step()
                handle.finish_step()
            assert excinfo.value.detail is not None
            assert "exitcode" in excinfo.value.detail
        finally:
            backend.close()
