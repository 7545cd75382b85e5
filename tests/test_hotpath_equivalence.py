"""Equivalence suite of the hot-path vectorization overhaul.

Every vectorized hot path must reproduce its historical scalar/per-head
counterpart exactly:

* batched grouped-GQA attention (prefill and decode, including the padded
  variable-length decode path) vs. the seed per-head loops;
* batched k-means (assignment GEMM + fused update over all heads) vs. the
  per-head :func:`~repro.core.clustering.kmeans_cluster`;
* chunked prefill with chunk >= prompt length vs. monolithic prefill,
  token for token, and small-chunk prefill producing identical tokens;
* the cached RoPE tables vs. direct cos/sin evaluation;
* cached centroid norms vs. renormalisation.

Plus the instrumentation-overhead guarantee: with recall/trace recording
disabled, the engine performs zero true-score GEMMs and materialises no
attention weights.
"""

import numpy as np
import pytest

from repro.baselines.base import merge_group_queries
from repro.core.clustering import kmeans_cluster, kmeans_cluster_batch, pairwise_scores
from repro.core.clusterkv import ClusterKVLayerState
from repro.core.config import ClusterKVConfig
from repro.core.metadata import ClusterMetadata
from repro.core.selection import score_centroids, select_clusters
from repro.model import (
    GenerationConfig,
    InferenceEngine,
    ModelConfig,
    TransformerModel,
    get_model_config,
)
from repro.model.attention import _decode_attention, full_causal_attention
from repro.model.tensor_ops import (
    apply_rope,
    causal_mask,
    masked_fill,
    rope_frequencies,
    softmax,
)
from repro.perf import count_ops
from repro.serving import BatchedEngine, SchedulerConfig


# ----------------------------------------------------------------------
# reference implementations (the seed's scalar loops, kept verbatim here)
# ----------------------------------------------------------------------
def _reference_full_attention(queries, keys, values, scale):
    """The seed's per-head prefill attention loop."""
    n_heads, t_q, head_dim = queries.shape
    n_kv_heads, t_k, _ = keys.shape
    group = n_heads // n_kv_heads
    mask = causal_mask(t_q, t_k)
    outputs = np.empty((n_heads, t_q, head_dim))
    all_weights = np.empty((n_heads, t_q, t_k))
    for head in range(n_heads):
        kv_head = head // group
        scores = (queries[head] @ keys[kv_head].T) * scale
        scores = masked_fill(scores, mask)
        weights = softmax(scores, axis=-1)
        outputs[head] = weights @ values[kv_head]
        all_weights[head] = weights
    stacked = np.transpose(outputs, (1, 0, 2)).reshape(t_q, n_heads * head_dim)
    return stacked, all_weights


def _reference_selected_attention(queries, keys_per_head, values_per_head, scale):
    """The seed's per-kv-head decode attention loop."""
    n_heads, head_dim = queries.shape
    n_kv_heads = len(keys_per_head)
    group = n_heads // n_kv_heads
    output = np.empty((n_heads, head_dim))
    weights_list = []
    for kv_head in range(n_kv_heads):
        group_queries = queries[kv_head * group : (kv_head + 1) * group]
        scores = (group_queries @ keys_per_head[kv_head].T) * scale
        weights = softmax(scores, axis=-1)
        output[kv_head * group : (kv_head + 1) * group] = (
            weights @ values_per_head[kv_head]
        )
        weights_list.extend(weights[i] for i in range(group))
    return output.reshape(-1), weights_list


class TestVectorizedAttentionEquivalence:
    def test_full_causal_attention_matches_per_head_loop(self, rng):
        """(a) Batched GQA prefill attention is bit-identical to the loop."""
        for n_heads, n_kv_heads, t_q, t_k in [(8, 4, 5, 9), (8, 2, 1, 64), (4, 4, 7, 7)]:
            q = rng.normal(size=(n_heads, t_q, 16))
            k = rng.normal(size=(n_kv_heads, t_k, 16))
            v = rng.normal(size=(n_kv_heads, t_k, 16))
            got = full_causal_attention(q, k, v, 0.25, return_weights=True)
            expected, expected_weights = _reference_full_attention(q, k, v, 0.25)
            assert np.array_equal(got.output, expected)
            assert np.array_equal(np.stack(got.weights), expected_weights)

    def test_selected_attention_matches_per_head_loop(self, rng):
        """(a) The decode kernel: requests of equal and differing widths in one workspace.

        A request as wide as the workspace, or any request of a workspace
        narrower than 8, is bit-identical to the per-head loop.
        """
        for sizes in ([5, 5, 5, 5], [5, 3, 7, 2], [1, 1, 1, 1], [64, 1, 32, 7]):
            width = max(sizes)
            queries = rng.normal(size=(4, 4, 2, 16))  # (requests, kv heads, group, d)
            # Padding past a request's width is garbage, never read.
            keys = 1e3 * rng.normal(size=(4, 4, width, 16))
            values = 1e3 * rng.normal(size=(4, 4, width, 16))
            for r, size in enumerate(sizes):
                keys[r, :, :size] = rng.normal(size=(4, size, 16))
                values[r, :, :size] = rng.normal(size=(4, size, 16))
            lengths = np.asarray(sizes, dtype=np.int64)
            outputs, weights = _decode_attention(queries, keys, values, 0.25, lengths)
            for r, size in enumerate(sizes):
                expected, expected_weights = _reference_selected_attention(
                    queries[r].reshape(8, 16),
                    list(keys[r, :, :size]),
                    list(values[r, :, :size]),
                    0.25,
                )
                got_weights = weights[r].reshape(8, width)
                assert not got_weights[:, size:].any()
                got_weights = got_weights[:, :size]
                if size == width or width < 8:
                    assert np.array_equal(outputs[r].reshape(-1), expected)
                    assert np.array_equal(got_weights, expected_weights)
                else:
                    # Padding past 8 entries regroups the float additions of
                    # NumPy's pairwise softmax row sum: last bits only.
                    np.testing.assert_allclose(outputs[r].reshape(-1), expected, rtol=1e-14)
                    np.testing.assert_allclose(got_weights, expected_weights, rtol=1e-14)


class TestBatchedKMeansEquivalence:
    def test_kmeans_batch_matches_per_head(self, rng):
        """(c) Batched k-means: labels, centroids, iterations all identical."""
        for metric in ("cosine", "ip", "l2"):
            keys = rng.normal(size=(4, 120, 8))
            batch = kmeans_cluster_batch(keys, 10, metric=metric, max_iters=20, seed=9)
            for head in range(4):
                solo = kmeans_cluster(
                    keys[head], 10, metric=metric, max_iters=20, seed=9 + head
                )
                assert np.array_equal(solo.labels, batch[head].labels)
                assert np.array_equal(solo.centroids, batch[head].centroids)
                assert solo.n_iters == batch[head].n_iters
                assert solo.converged == batch[head].converged

    def test_clusterkv_state_selection_matches_select_clusters(self, rng):
        """The layer state's batched selection equals per-head select_clusters."""
        for metric, trim in [("ip", "order"), ("cosine", "order"), ("ip", "centroid")]:
            config = ClusterKVConfig(
                tokens_per_cluster=8,
                decode_window=8,
                decode_clusters=2,
                score_metric=metric,
                trim_policy=trim,
            )
            state = ClusterKVLayerState(0, 3, 8, config, num_sink_tokens=4)
            state.observe_prefill(rng.normal(size=(3, 60, 8)))
            for step in range(16):
                state.observe_decode(rng.normal(size=(3, 1, 8)))
                queries = rng.normal(size=(3, 2, 8))
                selections = state.select(queries, 24, step)
                merged = merge_group_queries(queries)
                budget = min(24, state.context_length)
                pending = state.context_length - state._pending_start
                cluster_budget = max(0, budget - state._num_sinks_held - pending)
                for head in range(3):
                    reference = select_clusters(
                        merged[head],
                        state.metadata[head],
                        cluster_budget,
                        score_metric=metric,
                        trim_policy=trim,
                    )
                    expected = np.concatenate(
                        [
                            np.arange(state._num_sinks_held),
                            reference.token_indices,
                            np.arange(state._pending_start, state.context_length),
                        ]
                    )
                    assert np.array_equal(selections[head], expected)


class TestChunkedPrefillEquivalence:
    @pytest.fixture()
    def serve_model(self):
        return TransformerModel(get_model_config("serve-sim"))

    def _run(self, model, chunk, prompts):
        engine = BatchedEngine(
            model,
            "clusterkv",
            GenerationConfig(
                budget=32, max_new_tokens=12, num_full_layers=1, num_sink_tokens=8
            ),
            SchedulerConfig(
                max_batch_size=4, max_prefills_per_step=4, prefill_chunk_tokens=chunk
            ),
        )
        for idx, prompt in enumerate(prompts):
            engine.submit(prompt, request_id=f"r{idx}")
        return engine.run()

    def test_full_chunk_is_token_identical(self, serve_model, rng):
        """(b) chunk >= prompt length: identical tokens AND step counts."""
        prompts = [
            rng.integers(4, 2048, size=n).astype(np.int64) for n in (120, 40, 64)
        ]
        monolithic = self._run(serve_model, None, prompts)
        full_chunk = self._run(serve_model, 10_000, prompts)
        assert monolithic.engine_steps == full_chunk.engine_steps
        for rid, result in monolithic.results().items():
            other = full_chunk.results()[rid]
            assert result.output_ids == other.output_ids
            assert result.output_logprobs == other.output_logprobs

    def test_small_chunks_produce_identical_tokens(self, serve_model, rng):
        """Chunked prefill attends the same math: same tokens, more steps."""
        prompts = [
            rng.integers(4, 2048, size=n).astype(np.int64) for n in (120, 40, 64)
        ]
        monolithic = self._run(serve_model, None, prompts)
        chunked = self._run(serve_model, 16, prompts)
        assert chunked.engine_steps > monolithic.engine_steps
        for rid, result in monolithic.results().items():
            assert result.output_ids == chunked.results()[rid].output_ids

    def test_chunked_prefill_staggers_first_tokens(self, serve_model, rng):
        """Long prompts take several steps to first token under chunking."""
        prompts = [rng.integers(4, 2048, size=200).astype(np.int64)]
        chunked = self._run(serve_model, 32, prompts)
        timings = chunked.request_timings()["r0"]
        # ceil(200 / 32) = 7 chunk steps; first token lands on the last one.
        assert timings["first_token_step"] == 6.0

    def test_engine_core_rejects_bad_chunks(self, serve_model):
        """Out-of-order or empty chunk ranges are errors."""
        from repro.model.generation import EngineCore, SequenceState
        from repro.baselines.full import FullKVSelector
        from repro.memory import OffloadManager

        gen = GenerationConfig(max_new_tokens=4)
        core = EngineCore(serve_model, gen)
        seq = SequenceState(serve_model, FullKVSelector(), gen, OffloadManager())
        prompt = np.arange(4, 20, dtype=np.int64)
        with pytest.raises(ValueError):
            core.prefill_chunk(seq, prompt, 4, 4)
        core.prefill_chunk(seq, prompt, 0, 8)
        with pytest.raises(RuntimeError):
            core.prefill_chunk(seq, prompt, 4, 12)  # not where the seq is
        assert core.prefill_chunk(seq, prompt, 8, 16) is not None


class TestBatchOneEquivalence:
    def test_batch_one_serving_matches_single_sequence(self, rng):
        """Batch-1 serving is bit-identical to the InferenceEngine."""
        model = TransformerModel(get_model_config("serve-sim"))
        prompt = rng.integers(4, 2048, size=48).astype(np.int64)
        gen = GenerationConfig(
            budget=24, max_new_tokens=10, num_full_layers=1, num_sink_tokens=8
        )
        solo = InferenceEngine(model, None, gen)
        solo_result = solo.generate(prompt)
        engine = BatchedEngine(
            model, None, gen, SchedulerConfig(max_batch_size=1)
        )
        engine.submit(prompt, request_id="one")
        report = engine.run()
        batched = report.results()["one"]
        assert batched.output_ids == solo_result.output_ids
        assert batched.output_logprobs == solo_result.output_logprobs


class TestRopeCacheEquivalence:
    def test_cached_tables_match_direct_evaluation(self, rng):
        """Integer-position RoPE through the cache equals direct cos/sin."""
        inv_freq = rope_frequencies(16)
        x = rng.normal(size=(4, 6, 16))
        for positions in (
            np.arange(6),
            np.arange(100, 106),
            np.asarray([3, 17, 2, 999, 0, 4], dtype=np.int64),
        ):
            got = apply_rope(x, positions, inv_freq)
            angles = np.outer(positions.astype(np.float64), inv_freq)
            cos, sin = np.cos(angles), np.sin(angles)
            x1, x2 = x[..., :8], x[..., 8:]
            expected = np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)
            assert np.array_equal(got, expected)

    def test_float_positions_fall_back(self, rng):
        """Non-integer positions bypass the table and still work."""
        inv_freq = rope_frequencies(8)
        x = rng.normal(size=(2, 3, 8))
        positions = np.asarray([0.5, 1.25, 7.75])
        got = apply_rope(x, positions, inv_freq)
        assert got.shape == x.shape
        assert np.all(np.isfinite(got))


class TestCentroidNormCache:
    def test_metadata_norms_match_recomputation(self, rng):
        """Cached norms equal np.linalg.norm of the live centroids."""
        from repro.core.clustering import ClusteringResult

        metadata = ClusterMetadata(8)
        for offset in (0, 30):
            keys = rng.normal(size=(30, 8))
            result = kmeans_cluster(keys, 5, seed=offset)
            metadata.append_clustering(result, offset)
        assert np.array_equal(
            metadata.centroid_norms, np.linalg.norm(metadata.centroids, axis=1)
        )

    def test_cosine_scoring_with_cached_norms_is_identical(self, rng):
        """score_centroids / pairwise_scores: cached norms change nothing."""
        centroids = rng.normal(size=(7, 8))
        norms = np.linalg.norm(centroids, axis=1)
        query = rng.normal(size=8)
        keys = rng.normal(size=(12, 8))
        assert np.array_equal(
            score_centroids(query, centroids, "cosine"),
            score_centroids(query, centroids, "cosine", centroid_norms=norms),
        )
        assert np.array_equal(
            pairwise_scores(keys, centroids, "cosine"),
            pairwise_scores(keys, centroids, "cosine", centroid_norms=norms),
        )


class TestInstrumentationOverhead:
    def _generate(self, record_true_scores, record_attention_trace):
        model = TransformerModel(
            ModelConfig(
                name="instr-test",
                vocab_size=128,
                d_model=32,
                n_layers=2,
                n_heads=4,
                n_kv_heads=2,
                d_ff=64,
                use_copy_head=False,
                seed=5,
            )
        )
        gen = GenerationConfig(
            budget=12,
            max_new_tokens=6,
            num_full_layers=1,
            num_sink_tokens=4,
            record_true_scores=record_true_scores,
            record_attention_trace=record_attention_trace,
        )
        from repro.policies import build_policy

        engine = InferenceEngine(model, build_policy("clusterkv"), gen)
        prompt = np.random.default_rng(0).integers(4, 128, size=40).astype(np.int64)
        with count_ops() as ops:
            result = engine.generate(prompt)
        return result, ops

    def test_disabled_recording_does_zero_true_score_gemms(self):
        """Satellite guarantee: the disabled path never scores the full context."""
        result, ops = self._generate(False, False)
        assert ops.get("gemm.true_score") == 0
        assert result.recall_records == []
        assert result.attention_trace == []

    def test_enabled_recording_scores_and_records(self):
        """Sanity check: enabling the flags actually does the extra work."""
        result, ops = self._generate(True, True)
        assert ops.get("gemm.true_score") > 0
        assert result.recall_records
        assert result.attention_trace
        # Trace entries carry per-kv-head weights (they were materialised).
        assert all(record.attention_weights for record in result.attention_trace)
