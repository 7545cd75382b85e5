"""Unit tests for the attention module."""

import numpy as np
import pytest

from repro.model import GenerationConfig, TransformerModel, attention, get_model_config
from repro.model.attention import _decode_attention, full_causal_attention
from repro.model.tensor_ops import causal_mask, masked_fill, softmax
from repro.perf import count_ops
from repro.serving import BatchedEngine, SchedulerConfig


def _random_qkv(rng, n_heads=4, n_kv_heads=2, length=8, head_dim=8, key_length=None):
    """Random q/k/v; the queries are the last ``length`` of ``key_length`` positions."""
    key_length = length if key_length is None else key_length
    q = rng.normal(size=(n_heads, length, head_dim))
    k = rng.normal(size=(n_kv_heads, key_length, head_dim))
    v = rng.normal(size=(n_kv_heads, key_length, head_dim))
    return q, k, v


class TestFullCausalAttention:
    def test_output_shape(self, rng):
        q, k, v = _random_qkv(rng)
        out = full_causal_attention(q, k, v, scale=0.5)
        assert out.output.shape == (8, 4 * 8)

    def test_first_token_attends_only_to_itself(self, rng):
        q, k, v = _random_qkv(rng)
        out = full_causal_attention(q, k, v, scale=0.5, return_weights=True)
        for head_weights in out.weights:
            np.testing.assert_allclose(head_weights[0, 1:], 0.0, atol=1e-12)
            assert head_weights[0, 0] == pytest.approx(1.0)

    def test_weights_rows_sum_to_one(self, rng):
        q, k, v = _random_qkv(rng)
        out = full_causal_attention(q, k, v, scale=0.5, return_weights=True)
        for head_weights in out.weights:
            np.testing.assert_allclose(head_weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_matches_manual_single_head(self, rng):
        q = rng.normal(size=(1, 4, 8))
        k = rng.normal(size=(1, 4, 8))
        v = rng.normal(size=(1, 4, 8))
        out = full_causal_attention(q, k, v, scale=1.0)
        # Manual computation for the last query (sees all four keys).
        scores = q[0, -1] @ k[0].T
        expected_last = softmax(scores) @ v[0]
        np.testing.assert_allclose(out.output[-1], expected_last, atol=1e-9)

    def test_gqa_mapping(self, rng):
        """With identical kv heads, GQA must equal MHA with repeated kv."""
        q = rng.normal(size=(4, 5, 8))
        k_single = rng.normal(size=(1, 5, 8))
        v_single = rng.normal(size=(1, 5, 8))
        gqa = full_causal_attention(q, k_single, v_single, scale=0.3)
        k_rep = np.repeat(k_single, 4, axis=0)
        v_rep = np.repeat(v_single, 4, axis=0)
        mha = full_causal_attention(q, k_rep, v_rep, scale=0.3)
        np.testing.assert_allclose(gqa.output, mha.output, atol=1e-12)

    def test_rejects_bad_grouping(self, rng):
        q = rng.normal(size=(4, 3, 8))
        k = rng.normal(size=(3, 3, 8))
        v = rng.normal(size=(3, 3, 8))
        with pytest.raises(ValueError):
            full_causal_attention(q, k, v, scale=1.0)


def _decode(queries, keys, values, scale, lengths=None):
    """The decode kernel on ``(R, n_heads, d)`` queries; outputs ``(R, n_heads * d)``."""
    n_requests, n_heads, head_dim = queries.shape
    n_kv_heads = keys.shape[1]
    grouped = queries.reshape(n_requests, n_kv_heads, n_heads // n_kv_heads, head_dim)
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
    outputs, weights = _decode_attention(grouped, keys, values, scale, lengths)
    return outputs.reshape(n_requests, -1), weights.reshape(n_requests, n_heads, -1)


class TestSelectedAttention:
    def test_selecting_everything_matches_full(self, rng):
        """Decode attention over all tokens equals the last row of full attention."""
        q, k, v = _random_qkv(rng, length=10)
        full = full_causal_attention(q, k, v, scale=0.4)
        outputs, _ = _decode(q[None, :, -1, :], k[None], v[None], scale=0.4)
        np.testing.assert_allclose(outputs[0], full.output[-1], atol=1e-9)

    def test_variable_selection_sizes_per_head(self, rng):
        """Requests of different widths share one padded workspace."""
        q = rng.normal(size=(2, 4, 8))
        keys = rng.normal(size=(2, 2, 7, 8))
        values = rng.normal(size=(2, 2, 7, 8))
        outputs, weights = _decode(q, keys, values, scale=1.0, lengths=[3, 7])
        assert outputs.shape == (2, 4 * 8)
        np.testing.assert_allclose(weights[0, :, :3].sum(axis=-1), 1.0, atol=1e-12)
        assert not weights[0, :, 3:].any()
        narrow, _ = _decode(q[:1], keys[:1, :, :3], values[:1, :, :3], scale=1.0)
        np.testing.assert_allclose(outputs[0], narrow[0], atol=1e-12)

    def test_empty_selection_raises(self, rng):
        q = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError):
            _decode(q, np.zeros((1, 1, 0, 8)), np.zeros((1, 1, 0, 8)), scale=1.0)
        with pytest.raises(ValueError):
            _decode(
                np.zeros((2, 2, 8)), np.zeros((2, 1, 3, 8)), np.zeros((2, 1, 3, 8)),
                scale=1.0, lengths=[3, 0],
            )

    def test_single_token_selection_returns_its_value(self, rng):
        q = rng.normal(size=(1, 2, 4))
        key = rng.normal(size=(1, 1, 1, 4))
        value = rng.normal(size=(1, 1, 1, 4))
        outputs, _ = _decode(q, key, value, scale=1.0)
        np.testing.assert_allclose(outputs[0, :4], value[0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(outputs[0, 4:], value[0, 0, 0], atol=1e-12)


# ----------------------------------------------------------------------
# causal-frontier prefill kernel: differential suite
# ----------------------------------------------------------------------
def _reference_causal_attention(q, k, v, scale):
    """Unblocked per-head reference: full-width scores and an explicit mask."""
    n_heads, t_q, head_dim = q.shape
    n_kv_heads, t_k, _ = k.shape
    group = n_heads // n_kv_heads
    allowed = causal_mask(t_q, t_k)
    out = np.empty((t_q, n_heads, head_dim))
    for head in range(n_heads):
        scores = masked_fill((q[head] @ k[head // group].T) * scale, allowed)
        out[:, head] = softmax(scores) @ v[head // group]
    return out.reshape(t_q, n_heads * head_dim)


@pytest.fixture(scope="module")
def serve_model():
    return TransformerModel(get_model_config("serve-sim"))


class TestCausalFrontierKernel:
    # (n_heads, n_kv_heads, head_dim, t_q, t_k, rows per block)
    @pytest.mark.parametrize(
        "n_heads,n_kv_heads,head_dim,t_q,t_k,block",
        [
            (4, 2, 8, 40, 40, 8),  # block divides the length
            (4, 2, 8, 41, 41, 8),  # one-row tail block
            (8, 4, 16, 37, 37, 5),  # nothing divides
            (8, 2, 4, 9, 50, 4),  # suffix chunk: offset 41, short tail block
            (6, 6, 8, 16, 48, 16),  # t_q == block: one offset block
            (4, 1, 8, 17, 33, 1),  # one row per block
            (2, 2, 8, 1, 64, 3),  # single query row
            (4, 2, 8, 30, 31, 7),  # offset 1
            (8, 4, 16, 3, 300, 2),  # long context, tiny chunk
        ],
    )
    def test_blocked_matches_unblocked_reference(
        self, monkeypatch, rng, n_heads, n_kv_heads, head_dim, t_q, t_k, block
    ):
        """Every block shape agrees with full-width masked attention."""
        monkeypatch.setattr(attention, "_PREFILL_BLOCK_ELEMENTS", n_heads * t_k * block)
        q, k, v = _random_qkv(rng, n_heads, n_kv_heads, t_q, head_dim, t_k)
        with count_ops() as ops:
            got = full_causal_attention(q, k, v, 0.3).output
        assert ops.get("gemm.attention_prefill") == 2 * -(-t_q // min(block, t_q))
        np.testing.assert_allclose(
            got, _reference_causal_attention(q, k, v, 0.3), atol=1e-12, rtol=0
        )

    def test_random_shapes_match_reference(self, monkeypatch, rng):
        """Random (heads, groups, head_dim, t_q <= t_k, block) draws."""
        for _ in range(40):
            n_kv_heads = int(rng.integers(1, 4))
            n_heads = n_kv_heads * int(rng.integers(1, 4))
            head_dim = int(rng.choice([2, 8, 16]))
            t_k = int(rng.integers(1, 70))
            t_q = int(rng.integers(1, t_k + 1))
            block = int(rng.integers(1, 12))
            monkeypatch.setattr(
                attention, "_PREFILL_BLOCK_ELEMENTS", n_heads * t_k * block
            )
            q, k, v = _random_qkv(rng, n_heads, n_kv_heads, t_q, head_dim, t_k)
            np.testing.assert_allclose(
                full_causal_attention(q, k, v, 0.5).output,
                _reference_causal_attention(q, k, v, 0.5),
                atol=1e-12,
                rtol=0,
            )

    def test_production_block_size_with_chunk_offset(self, rng):
        """No patching: 8 heads x 300 rows x 420 keys takes the blocked path."""
        q, k, v = _random_qkv(rng, 8, 4, 300, 16, key_length=420)
        assert 8 * 300 * 420 > attention._PREFILL_BLOCK_ELEMENTS
        np.testing.assert_allclose(
            full_causal_attention(q, k, v, 0.25).output,
            _reference_causal_attention(q, k, v, 0.25),
            atol=1e-12,
            rtol=0,
        )

    def test_score_elements_stop_at_the_frontier(self, monkeypatch, rng):
        """Blocks are as wide as their causal frontier, not as the key length."""
        monkeypatch.setattr(attention, "_PREFILL_BLOCK_ELEMENTS", 4 * 50 * 4)
        q, k, v = _random_qkv(rng, 4, 2, 10, 8, key_length=50)
        with count_ops() as ops:
            full_causal_attention(q, k, v, 1.0)
        # rows [0,4) [4,8) [8,10) at offset 40 meet 44, 48 and 50 keys.
        assert ops.get("attention_prefill.score_elements") == 4 * (
            4 * 44 + 4 * 48 + 2 * 50
        )

    def test_future_keys_get_exactly_zero_weight(self, rng):
        """Rows never attend past their position (single-shot weights)."""
        q, k, v = _random_qkv(rng, 4, 2, 5, 8, key_length=9)
        out = full_causal_attention(q, k, v, 0.5, return_weights=True)
        for head_weights in out.weights:
            assert head_weights.shape == (5, 9)
            for row in range(5):
                assert np.all(head_weights[row, 4 + row + 1 :] == 0.0)
                assert np.all(head_weights[row, : 4 + row + 1] > 0.0)

    def test_rejects_more_queries_than_keys(self, rng):
        q, k, v = _random_qkv(rng, length=5, key_length=3)
        with pytest.raises(ValueError, match="query_len 5 cannot exceed key_len 3"):
            full_causal_attention(q, k, v, 1.0)

    def test_inplace_softmax_is_bit_identical(self, rng):
        """The kernels' private softmax reproduces ``tensor_ops.softmax``."""
        for shape in [(7,), (3, 11), (4, 2, 16, 33), (2, 2, 1, 300)]:
            scores = rng.normal(size=shape) * 5.0
            scores[..., -1] = -np.inf  # a padded decode slot
            expected = softmax(scores)
            buffer = scores.copy()
            got = attention._softmax_inplace(buffer)
            assert got is buffer
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("policy", ["clusterkv", "full"])
    def test_chunked_prefill_matches_monolithic_tokens(self, serve_model, policy, rng):
        """Suffix chunks (offset > 0, blocked and single-shot) ≡ one prefill."""
        model = serve_model
        prompt = rng.integers(4, model.config.vocab_size, size=600).astype(np.int64)

        def run(chunk):
            engine = BatchedEngine(
                model,
                policy,
                GenerationConfig(
                    budget=64, max_new_tokens=12, num_full_layers=1, num_sink_tokens=8
                ),
                SchedulerConfig(max_batch_size=1, prefill_chunk_tokens=chunk),
            )
            engine.submit(prompt, request_id="r0")
            return engine.run().results()["r0"].output_ids

        assert run(128) == run(None)
