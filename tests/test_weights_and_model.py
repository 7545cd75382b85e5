"""Unit tests for weight initialisation, the transformer and the tokenizer."""

import numpy as np
import pytest

from repro.model import ModelConfig, SyntheticTokenizer, TransformerModel, init_weights


class TestModelConfig:
    def test_head_dim_and_group_size(self, tiny_config):
        assert tiny_config.head_dim == tiny_config.d_model // tiny_config.n_heads
        assert tiny_config.group_size == tiny_config.n_heads // tiny_config.n_kv_heads

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=30, n_heads=4)

    def test_rejects_bad_gqa_grouping(self):
        with pytest.raises(ValueError):
            ModelConfig(n_heads=8, n_kv_heads=3, d_model=64)

    def test_kv_bytes_per_token(self):
        config = ModelConfig(d_model=64, n_heads=8, n_kv_heads=4, n_layers=2)
        expected = 2 * 4 * 8 * 2 * 2  # K+V * kv_heads * head_dim * fp16 * layers
        assert config.kv_bytes_per_token() == expected

    def test_softmax_scale_default(self):
        config = ModelConfig(d_model=64, n_heads=4)
        assert config.softmax_scale == pytest.approx(1.0 / np.sqrt(16))


class TestWeights:
    def test_deterministic_initialisation(self, tiny_config):
        a = init_weights(tiny_config)
        b = init_weights(tiny_config)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.layers[0].wq, b.layers[0].wq)

    def test_different_seeds_differ(self, tiny_config):
        other = ModelConfig(**{**tiny_config.__dict__, "seed": tiny_config.seed + 1})
        a = init_weights(tiny_config)
        b = init_weights(other)
        assert not np.allclose(a.embedding, b.embedding)

    def test_embedding_rows_unit_norm(self, tiny_config):
        weights = init_weights(tiny_config)
        norms = np.linalg.norm(weights.embedding, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_embedding_cluster_structure(self, tiny_config):
        """Tokens in the same embedding cluster are closer than across clusters."""
        weights = init_weights(tiny_config)
        num_clusters = tiny_config.num_embedding_clusters
        block = tiny_config.vocab_size // num_clusters
        same = weights.embedding[4] @ weights.embedding[5]  # same block
        other = weights.embedding[4] @ weights.embedding[4 + 3 * block]
        assert same > other

    def test_parameter_count_positive_and_consistent(self, tiny_model):
        count = tiny_model.num_parameters
        assert count > 0
        assert count == tiny_model.weights.num_parameters()


class TestTransformerForward:
    def test_forward_shapes(self, tiny_model, short_prompt):
        logits = tiny_model.forward_full(short_prompt[:12])
        assert logits.shape == (12, tiny_model.config.vocab_size)
        assert np.all(np.isfinite(logits))

    def test_forward_deterministic(self, tiny_model, short_prompt):
        a = tiny_model.forward_full(short_prompt[:8])
        b = tiny_model.forward_full(short_prompt[:8])
        np.testing.assert_array_equal(a, b)

    def test_causality(self, tiny_model, short_prompt):
        """Changing a later token must not change earlier logits."""
        ids = short_prompt[:10].copy()
        base = tiny_model.forward_full(ids)
        ids_changed = ids.copy()
        ids_changed[-1] = (ids_changed[-1] + 1) % tiny_model.config.vocab_size
        changed = tiny_model.forward_full(ids_changed)
        np.testing.assert_allclose(base[:-1], changed[:-1], atol=1e-9)
        assert not np.allclose(base[-1], changed[-1])

    def test_rejects_out_of_vocab(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.embed(np.array([10_000]))

    def test_qkv_shapes(self, tiny_model, short_prompt):
        config = tiny_model.config
        hidden = tiny_model.embed(short_prompt[:6])
        q, k, v = tiny_model.attention_qkv(0, hidden, np.arange(6))
        assert q.shape == (config.n_heads, 6, config.head_dim)
        assert k.shape == (config.n_kv_heads, 6, config.head_dim)
        assert v.shape == (config.n_kv_heads, 6, config.head_dim)


class TestTokenizer:
    def test_roundtrip(self, tiny_tokenizer):
        text = "w10 w20 w30"
        ids = tiny_tokenizer.encode(text)
        assert tiny_tokenizer.decode(ids) == text

    def test_unknown_word_maps_to_unk(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("definitely-not-a-word")
        assert ids == [tiny_tokenizer.unk_id]

    def test_special_tokens_skipped_in_decode(self, tiny_tokenizer):
        ids = [tiny_tokenizer.bos_id, 10, tiny_tokenizer.eos_id]
        assert tiny_tokenizer.decode(ids) == "w10"

    def test_add_bos(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("w10", add_bos=True)
        assert ids[0] == tiny_tokenizer.bos_id

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            SyntheticTokenizer(3)

    def test_random_word_ids_respect_exclusions(self, tiny_tokenizer, rng):
        exclude = {10, 11, 12}
        ids = tiny_tokenizer.random_word_ids(50, rng, exclude=exclude)
        assert not (set(ids.tolist()) & exclude)
        assert np.all(ids >= tiny_tokenizer.num_special_tokens)
