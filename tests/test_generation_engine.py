"""Unit and integration tests for the inference engine, pointer head and sampling."""

import numpy as np
import pytest

from repro.baselines import (
    FullKVSelector,
    KVSelectorFactory,
    LayerSelectorState,
    OracleTopKSelector,
    StreamingLLMSelector,
)
from repro.core import ClusterKVConfig, ClusterKVSelector
from repro.model import (
    CopyHead,
    EngineCore,
    GenerationConfig,
    InferenceEngine,
    ModelConfig,
    SequenceState,
    TransformerModel,
    greedy_sample,
    get_model_config,
    mix_distributions,
    temperature_sample,
)
from repro.baselines.quest import QuestLayerState
from repro.memory import OffloadManager, TransferDirection
from repro.policies import build_policy


class TestSampling:
    def test_greedy_argmax(self):
        assert greedy_sample(np.array([0.1, 0.7, 0.2])) == 1

    def test_temperature_sampling_reproducible(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        probs = np.array([0.2, 0.5, 0.3])
        assert temperature_sample(probs, rng_a) == temperature_sample(probs, rng_b)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            temperature_sample(np.array([1.0]), np.random.default_rng(0), temperature=0.0)

    def test_mix_distributions(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        mixed = mix_distributions(a, b, 0.75)
        np.testing.assert_allclose(mixed, [0.75, 0.25])
        np.testing.assert_allclose(mix_distributions(a, None, 0.5), a)

    def test_mix_rejects_bad_gate(self):
        with pytest.raises(ValueError):
            mix_distributions(np.ones(2), np.ones(2), 1.5)


class TestCopyHead:
    def test_copy_distribution_points_to_successor(self, tiny_model):
        head = CopyHead(tiny_model.weights)
        head.ingest(np.array([10, 20, 30, 10]))
        # Current token is 10; its earlier occurrence (position 0) is followed
        # by 20, so 20 must receive almost all of the copy mass.
        dist = head.copy_distribution(10)
        assert int(np.argmax(dist)) == 20
        assert dist[20] > 0.9

    def test_restriction_blocks_copying(self, tiny_model):
        head = CopyHead(tiny_model.weights)
        head.ingest(np.array([10, 20, 30, 10]))
        dist = head.copy_distribution(10, allowed_indices=np.array([1, 2]))
        # Position 0 (the occurrence of 10 followed by 20) is not visible, so
        # 20 can only receive mass if some visible position precedes it.
        assert dist[20] < 0.5

    def test_empty_history_returns_none(self, tiny_model):
        head = CopyHead(tiny_model.weights)
        assert head.copy_distribution(5) is None

    def test_distribution_normalised(self, tiny_model):
        head = CopyHead(tiny_model.weights)
        head.ingest(np.array([4, 5, 6, 7, 4]))
        dist = head.copy_distribution(4)
        assert dist.sum() == pytest.approx(1.0)

    def test_bigram_disambiguates_occurrences(self, tiny_model):
        """Two occurrences of the same token with different predecessors."""
        head = CopyHead(tiny_model.weights)
        # ... 50 60 ... 51 60 ...; querying after (51, 60) must prefer the
        # successor of the second occurrence.
        head.ingest(np.array([50, 60, 70, 51, 60, 80, 51, 60]))
        dist = head.copy_distribution(60)
        assert dist[80] > dist[70]

    def test_requires_copy_projections(self, tiny_config):
        config = ModelConfig(**{**tiny_config.__dict__, "use_copy_head": False})
        model = TransformerModel(config)
        with pytest.raises(ValueError):
            CopyHead(model.weights)


class TestInferenceEngine:
    def test_generates_requested_tokens(self, tiny_model, short_prompt, fast_generation_config):
        engine = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config)
        result = engine.generate(short_prompt)
        assert len(result.output_ids) == fast_generation_config.max_new_tokens
        assert len(result.output_logprobs) == fast_generation_config.max_new_tokens
        assert result.prompt_length == short_prompt.shape[0]

    def test_generation_deterministic(self, tiny_model, short_prompt, fast_generation_config):
        a = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config).generate(short_prompt)
        b = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config).generate(short_prompt)
        assert a.output_ids == b.output_ids

    def test_engine_single_use(self, tiny_model, short_prompt, fast_generation_config):
        engine = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config)
        engine.generate(short_prompt)
        with pytest.raises(RuntimeError):
            engine.generate(short_prompt)

    def test_empty_prompt_rejected(self, tiny_model, fast_generation_config):
        engine = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config)
        with pytest.raises(ValueError):
            engine.generate(np.zeros(0, dtype=np.int64))

    def test_full_budget_equals_unbudgeted(self, tiny_model, short_prompt):
        """A budget larger than the context must not change the output."""
        unbudgeted = InferenceEngine(
            tiny_model, FullKVSelector(), GenerationConfig(budget=None, max_new_tokens=4)
        ).generate(short_prompt)
        huge_budget = InferenceEngine(
            tiny_model,
            ClusterKVSelector(ClusterKVConfig(tokens_per_cluster=16, num_sink_tokens=4)),
            GenerationConfig(budget=100_000, max_new_tokens=4),
        ).generate(short_prompt)
        assert unbudgeted.output_ids == huge_budget.output_ids

    def test_compressed_run_records_stats_and_ledger(self, tiny_model, short_prompt):
        config = GenerationConfig(budget=32, max_new_tokens=4, num_full_layers=1, num_sink_tokens=4)
        selector = ClusterKVSelector(
            ClusterKVConfig(tokens_per_cluster=12, decode_window=8, decode_clusters=2, num_sink_tokens=4)
        )
        engine = InferenceEngine(tiny_model, selector, config)
        result = engine.generate(short_prompt)
        assert result.selector_stats.num_selections > 0
        assert result.selector_stats.selected_tokens > 0
        # ClusterKV offloads KV to CPU: prefill offload plus per-step fetches.
        assert result.ledger.total_bytes(TransferDirection.HOST_TO_DEVICE) > 0
        assert result.ledger.total_bytes(TransferDirection.DEVICE_TO_HOST) > 0
        assert result.kv_cache_bytes > 0

    def test_result_ledger_is_the_sequence_own_only(self, tiny_model, short_prompt):
        """A single-sequence result carries its ledger; a batched one carries none.

        Batched sequences share the engine's offload manager, so its ledger
        holds every request's transfers: it stays on the serve report and
        the engine, never copied into each result.
        """
        from repro.execbackend import engine_offload_stats
        from repro.serving import BatchedEngine

        config = GenerationConfig(budget=32, max_new_tokens=4, num_full_layers=1, num_sink_tokens=4)
        policy = ClusterKVConfig(tokens_per_cluster=12, decode_window=8, num_sink_tokens=4)
        single = InferenceEngine(tiny_model, ClusterKVSelector(policy), config)
        assert single.generate(short_prompt).ledger is single.offload.ledger

        batched = BatchedEngine(tiny_model, ClusterKVSelector(policy), config)
        for index in range(2):
            batched.submit(short_prompt, request_id=f"r{index}")
        report = batched.run()
        assert [item.result.ledger for item in report.completed] == [None, None]
        assert report.ledger is batched.offload.ledger
        transfers = engine_offload_stats(batched)["transfers"]
        assert transfers[TransferDirection.HOST_TO_DEVICE.value] == report.ledger.total_bytes(
            TransferDirection.HOST_TO_DEVICE
        ) > 0

    def test_num_full_layers_bypass(self, tiny_model, short_prompt):
        """Layers below num_full_layers must not have selector states."""
        config = GenerationConfig(budget=16, max_new_tokens=2, num_full_layers=2)
        engine = InferenceEngine(tiny_model, StreamingLLMSelector(), config)
        assert engine.layer_states[0] is None
        assert engine.layer_states[1] is None
        assert engine.layer_states[-1] is not None or tiny_model.config.n_layers <= 2

    def test_recall_records_oracle_is_perfect(self, tiny_model, short_prompt):
        config = GenerationConfig(
            budget=24, max_new_tokens=3, num_full_layers=1, record_true_scores=True
        )
        engine = InferenceEngine(tiny_model, OracleTopKSelector(), config)
        result = engine.generate(short_prompt)
        assert result.recall_records
        assert result.mean_recall() == pytest.approx(1.0)

    def test_recall_records_streaming_is_imperfect(self, tiny_model, short_prompt):
        config = GenerationConfig(
            budget=24, max_new_tokens=3, num_full_layers=1, record_true_scores=True
        )
        engine = InferenceEngine(tiny_model, StreamingLLMSelector(), config)
        result = engine.generate(short_prompt)
        assert 0.0 <= result.mean_recall() < 1.0

    def test_attention_trace_recorded(self, tiny_model, short_prompt):
        config = GenerationConfig(
            budget=None, max_new_tokens=3, num_full_layers=0, record_attention_trace=True
        )
        engine = InferenceEngine(tiny_model, FullKVSelector(), config)
        result = engine.generate(short_prompt)
        assert len(result.attention_trace) == 2  # one per decode step after the first token
        record = result.attention_trace[0]
        assert record.layer == tiny_model.config.n_layers - 1
        assert len(record.attention_weights) == tiny_model.config.n_kv_heads

    def test_score_sequence_perplexity(self, tiny_model, short_prompt):
        config = GenerationConfig(budget=None, max_new_tokens=1)
        engine = InferenceEngine(tiny_model, FullKVSelector(), config)
        result = engine.score_sequence(short_prompt, prefill_length=64)
        assert len(result.target_logprobs) == short_prompt.shape[0] - 64
        assert result.perplexity() > 0

    def test_score_sequence_validates_prefill_length(self, tiny_model, short_prompt):
        engine = InferenceEngine(tiny_model, FullKVSelector(), GenerationConfig())
        with pytest.raises(ValueError):
            engine.score_sequence(short_prompt, prefill_length=0)

    def test_perplexity_requires_scoring_run(self, tiny_model, short_prompt, fast_generation_config):
        engine = InferenceEngine(tiny_model, FullKVSelector(), fast_generation_config)
        result = engine.generate(short_prompt)
        with pytest.raises(ValueError):
            result.perplexity()


class TestStackedWorkspace:
    """Growth of the fused cross-request attention buffers."""

    def test_regrow_touches_only_the_short_dimension(self, tiny_model):
        from repro.model.generation import EngineCore

        core = EngineCore(tiny_model, GenerationConfig())
        core._stacked_workspace(3, 60)
        assert core._stacked_kv.shape[1:4:2] == (3, 64)
        # Selections lengthen at a constant batch: rows must not double.
        core._stacked_workspace(3, 65)
        assert core._stacked_kv.shape[1:4:2] == (3, 128)
        core._stacked_workspace(2, 300)
        assert core._stacked_kv.shape[1:4:2] == (3, 512)
        # A bigger batch at a covered width keeps the width.
        core._stacked_workspace(4, 100)
        assert core._stacked_kv.shape[1:4:2] == (6, 512)
        assert core._stacked_queries.shape[0] == 6
        assert core._stacked_lengths.shape[0] == 6
        keys, values, queries, lengths = core._stacked_workspace(4, 100)
        assert keys.shape[:1] + keys.shape[2:3] == (4, 100)
        assert not keys.any() and not values.any()


class _OutOfRangeState(LayerSelectorState):
    """Selects a token one past the end of the context."""

    def select(self, queries, budget, step, keys=None):
        return np.full((self.n_kv_heads, 2), self._num_tokens, dtype=np.int64)


class _OutOfRangeSelector(KVSelectorFactory):
    name = "out_of_range"

    def create_layer_state(self, layer_idx, n_kv_heads, head_dim, num_sink_tokens):
        return _OutOfRangeState(layer_idx, n_kv_heads, head_dim)


class TestWorkspaceGather:
    """Budgeted selections are gathered straight into the fused workspace."""

    @pytest.mark.parametrize("batch", [1, 2], ids=["solo", "stacked"])
    def test_out_of_range_row_raises(self, tiny_model, batch):
        gen = GenerationConfig(budget=8, num_full_layers=1, max_new_tokens=4)
        core = EngineCore(tiny_model, gen)
        seqs = [
            SequenceState(tiny_model, _OutOfRangeSelector(), gen, OffloadManager())
            for _ in range(batch)
        ]
        prompt = np.arange(4, 40)
        tokens = [core.pick_token(seq, core.prefill(seq, prompt)) for seq in seqs]
        with pytest.raises(IndexError, match="out of range"):
            core.decode_step_batch(seqs, tokens, [0] * batch)

    def test_stale_workspace_tails_are_masked(self, monkeypatch):
        """A workspace left wider and dirty by earlier steps changes no output bit.

        Quest without its forced last page selects 13 or 16 tokens per
        head — ragged rows at some steps — and StreamingLLM 24, so both
        the lone request's one-row slot (first three steps) and the fused
        steps after it read past some head's length.
        """
        model = TransformerModel(get_model_config("tiny"))
        gen = GenerationConfig(budget=24, num_full_layers=1, num_sink_tokens=4)
        specs = ("quest:page_size=16,include_last_page=false", "streaming_llm")
        ragged: list[int] = []  # the round of every ragged Quest selection
        select = QuestLayerState.select

        def recording(state, *args, **kwargs):
            rows = select(state, *args, **kwargs)
            if isinstance(rows, list) and state.layer_idx < model.config.n_layers:
                ragged.append(current_round[0])
            return rows

        monkeypatch.setattr(QuestLayerState, "select", recording)
        current_round = [0]

        def decode(core):
            seqs = [
                SequenceState(model, build_policy(spec), gen, OffloadManager())
                for spec in specs
            ]
            tokens = [
                core.pick_token(seq, core.prefill(seq, np.arange(4, 4 + length)))
                for seq, length in zip(seqs, (40, 60))
            ]
            steps = [0, 0]
            outputs = []
            for round_index in range(8):
                current_round[0] = round_index
                batch = [0] if round_index < 3 else [0, 1]  # solo, then fused
                distributions = core.decode_step_batch(
                    [seqs[i] for i in batch], [tokens[i] for i in batch], [steps[i] for i in batch]
                )
                for i, distribution in zip(batch, distributions):
                    tokens[i] = core.pick_token(seqs[i], distribution)
                    steps[i] += 1
                outputs.extend(distributions)
            return outputs

        fresh = decode(EngineCore(model, gen))
        assert min(ragged) < 3 <= max(ragged)  # both paths saw ragged rows
        dirty = EngineCore(model, gen)
        dirty._stacked_workspace(4, 256)
        dirty._stacked_kv[...] = 1e3 * np.random.default_rng(0).normal(size=dirty._stacked_kv.shape)
        for expected, got in zip(fresh, decode(dirty)):
            assert np.array_equal(expected, got)
