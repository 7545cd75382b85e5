"""Unit tests for the numerical primitives."""

import numpy as np
import pytest

from repro.model.tensor_ops import (
    apply_rope,
    causal_mask,
    gelu,
    layer_norm,
    log_softmax,
    masked_fill,
    rms_norm,
    rope_frequencies,
    silu,
    softmax,
    swiglu,
)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_large_values_are_stable(self):
        x = np.array([1e4, 1e4 + 1.0])
        out = softmax(x)
        assert np.all(np.isfinite(out))
        assert out[1] > out[0]

    def test_matches_log_softmax(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        np.testing.assert_allclose(np.log(softmax(x)), log_softmax(x), atol=1e-12)

    def test_invariant_to_shift(self):
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)


class TestNorms:
    def test_rms_norm_unit_scale(self):
        x = np.random.default_rng(1).normal(size=(4, 8))
        out = rms_norm(x, np.ones(8))
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(2).normal(loc=3.0, size=(4, 16))
        out = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_bias_applied(self):
        x = np.random.default_rng(3).normal(size=(2, 4))
        out = layer_norm(x, np.ones(4), np.full(4, 5.0))
        np.testing.assert_allclose(out.mean(axis=-1), 5.0, atol=1e-8)


class TestActivations:
    def test_silu_at_zero(self):
        assert silu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_silu_positive_limit(self):
        x = np.array([20.0])
        assert silu(x)[0] == pytest.approx(20.0, rel=1e-6)

    def test_gelu_monotone_region(self):
        # GELU is monotone to the right of its minimum (around x = -0.75).
        x = np.linspace(-0.5, 1.0, 11)
        y = gelu(x)
        assert np.all(np.diff(y) > 0)

    def test_swiglu_is_silu_times_up(self):
        gate = np.array([1.0, -2.0])
        up = np.array([3.0, 4.0])
        np.testing.assert_allclose(swiglu(gate, up), silu(gate) * up)

    def test_swiglu_workspace_is_bit_identical_on_strided_halves(self):
        """The feed-forward block's layout: column halves of one fused product."""
        rng = np.random.default_rng(5)
        for rows in (1, 3, 64):
            fused = rng.normal(size=(rows, 24)) * 4.0
            gate, up = fused[:, :12], fused[:, 12:]
            before = fused.copy()
            got = swiglu(gate, up)
            assert np.array_equal(got, silu(gate) * up)
            assert got.flags.c_contiguous
            assert np.array_equal(fused, before)  # operands are not mutated


class TestRope:
    def test_requires_even_head_dim(self):
        with pytest.raises(ValueError):
            rope_frequencies(7)

    def test_rotation_preserves_norm(self):
        inv_freq = rope_frequencies(8)
        x = np.random.default_rng(4).normal(size=(2, 5, 8))
        rotated = apply_rope(x, np.arange(5), inv_freq)
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-9
        )

    def test_position_zero_is_identity(self):
        inv_freq = rope_frequencies(8)
        x = np.random.default_rng(5).normal(size=(1, 1, 8))
        rotated = apply_rope(x, np.array([0]), inv_freq)
        np.testing.assert_allclose(rotated, x, atol=1e-12)

    def test_relative_position_property(self):
        """q·k after RoPE depends only on the relative distance."""
        inv_freq = rope_frequencies(16)
        rng = np.random.default_rng(6)
        q = rng.normal(size=16)
        k = rng.normal(size=16)
        def scored(pos_q, pos_k):
            rq = apply_rope(q[None, None, :], np.array([pos_q]), inv_freq)[0, 0]
            rk = apply_rope(k[None, None, :], np.array([pos_k]), inv_freq)[0, 0]
            return rq @ rk
        np.testing.assert_allclose(scored(3, 1), scored(13, 11), atol=1e-9)

    def test_length_mismatch_raises(self):
        inv_freq = rope_frequencies(8)
        x = np.zeros((1, 4, 8))
        with pytest.raises(ValueError):
            apply_rope(x, np.arange(3), inv_freq)


class TestMasking:
    def test_causal_mask_shape_and_content(self):
        mask = causal_mask(2, 4)
        assert mask.shape == (2, 4)
        # query 0 is position 2 of 4, so it sees positions 0..2.
        np.testing.assert_array_equal(mask[0], [True, True, True, False])
        np.testing.assert_array_equal(mask[1], [True, True, True, True])

    def test_causal_mask_rejects_longer_query(self):
        with pytest.raises(ValueError):
            causal_mask(5, 4)

    def test_masked_fill(self):
        scores = np.array([[1.0, 2.0]])
        mask = np.array([[True, False]])
        out = masked_fill(scores, mask, value=-99.0)
        assert out[0, 0] == 1.0
        assert out[0, 1] == -99.0
