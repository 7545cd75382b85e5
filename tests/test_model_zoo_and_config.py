"""Unit tests for the model zoo, reference architectures and generation config."""

import pytest

from repro.model import (
    GenerationConfig,
    TransformerModel,
    get_model_config,
    get_reference_architecture,
    list_model_configs,
    list_reference_architectures,
)


class TestModelZoo:
    def test_all_simulation_configs_valid(self):
        for name in list_model_configs():
            config = get_model_config(name)
            assert config.d_model % config.n_heads == 0
            assert config.n_heads % config.n_kv_heads == 0
            assert config.name == name

    def test_expected_families_present(self):
        names = list_model_configs()
        assert set(names) == {"tiny", "llama-sim", "glm-sim", "serve-sim"}

    def test_llama_and_glm_use_gqa(self):
        for name in ("llama-sim", "glm-sim"):
            config = get_model_config(name)
            assert config.n_kv_heads < config.n_heads

    def test_all_sim_models_instantiate(self):
        for name in list_model_configs():
            model = TransformerModel(get_model_config(name))
            assert model.num_parameters > 0

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            get_model_config("gpt-7")
        with pytest.raises(KeyError):
            get_reference_architecture("gpt-7")


class TestReferenceArchitectures:
    def test_expected_architectures_present(self):
        assert set(list_reference_architectures()) == {
            "llama-3.1-8b",
            "glm4-9b",
            "opt-6.7b",
        }

    def test_llama_parameter_count_plausible(self):
        llama = get_reference_architecture("llama-3.1-8b")
        params = llama.num_parameters
        assert 6e9 < params < 10e9  # ~8B parameters

    def test_opt_parameter_count_plausible(self):
        # The estimate assumes a three-projection FFN for every family, so it
        # over-counts OPT's two-projection FFN by ~2 B parameters; the check
        # only guards against order-of-magnitude mistakes.
        opt = get_reference_architecture("opt-6.7b")
        assert 5e9 < opt.num_parameters < 10e9

    def test_kv_bytes_per_token_llama(self):
        llama = get_reference_architecture("llama-3.1-8b")
        # 2 (K+V) * 32 layers * 8 kv heads * 128 dims * 2 bytes = 128 KiB.
        assert llama.kv_bytes_per_token() == 131072

    def test_head_dim(self):
        assert get_reference_architecture("glm4-9b").head_dim == 128


class TestGenerationConfig:
    def test_defaults_valid(self):
        config = GenerationConfig()
        assert config.budget is None
        assert config.num_full_layers == 2
        assert config.num_sink_tokens == 16

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            GenerationConfig(budget=0)
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            GenerationConfig(num_sink_tokens=-1)
        with pytest.raises(ValueError):
            GenerationConfig(num_full_layers=-1)
