"""Unit tests for the experiment harness utilities and perf-model experiments."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    CacheStudyConfig,
    ContextScale,
    DesignAblationConfig,
    Fig9Config,
    Fig10Config,
    Fig11Config,
    Fig12Config,
    Fig13Config,
    build_clusterkv_config,
    build_selector,
)
from repro.experiments import fig9_longbench
from repro.experiments.fig9_longbench import run_fig9
from repro.experiments.methods import ACCURACY_METHODS
from repro.experiments.reporting import format_kv, format_series, format_table
from repro.experiments.table1_average import PAPER_TABLE1
from repro.baselines import FullKVSelector, InfiniGenSelector, QuestSelector
from repro.core import ClusterKVSelector


class TestContextScale:
    def test_length_scaling(self):
        scale = ContextScale(16)
        assert scale.length(32768) == 2048
        assert scale.length(256) == 16
        assert scale.length(8) == 1  # floors at the minimum

    def test_identity_scale(self):
        scale = ContextScale(1)
        assert scale.length(1000) == 1000

    def test_sink_tokens_scaled(self):
        assert ContextScale(16).sink_tokens(16) == 4
        assert ContextScale(1).sink_tokens(16) == 16

    def test_describe(self):
        assert "paper 32768" in ContextScale(16).describe(32768)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ContextScale(0)
        with pytest.raises(ValueError):
            ContextScale(4).length(0)


@pytest.mark.parametrize(
    "config_cls",
    [Fig9Config, Fig10Config, Fig11Config, CacheStudyConfig, DesignAblationConfig],
)
def test_sampled_configs_take_at_least_one_sample(config_cls):
    with pytest.raises(ValueError, match="num_samples must be at least 1"):
        config_cls(num_samples=0)


class TestMethodBuilders:
    def test_accuracy_methods_cover_paper(self):
        assert set(ACCURACY_METHODS) == {"full", "clusterkv", "quest", "infinigen"}

    def test_build_selector_types(self):
        assert isinstance(build_selector("full"), FullKVSelector)
        assert isinstance(build_selector("clusterkv"), ClusterKVSelector)
        assert isinstance(build_selector("quest"), QuestSelector)
        assert isinstance(build_selector("infinigen"), InfiniGenSelector)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            build_selector("magic")

    def test_clusterkv_config_scales(self):
        small = build_clusterkv_config(ContextScale(16))
        full = build_clusterkv_config(ContextScale(1))
        assert small.decode_window < full.decode_window
        assert full.tokens_per_cluster == 80
        assert small.num_sink_tokens <= full.num_sink_tokens

    def test_quest_page_size_not_scaled(self):
        selector = build_selector("quest", ContextScale(32))
        assert selector.config.page_size == 16


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_and_kv(self):
        assert "x" in format_series("x", {1: 0.5})
        assert "key" in format_kv({"key": 1})


class TestPaperReference:
    def test_table1_reference_ordering(self):
        """The hard-coded paper numbers must themselves satisfy the paper's claim."""
        for budget in (256, 512, 1024, 2048):
            assert PAPER_TABLE1["clusterkv"][budget] > PAPER_TABLE1["infinigen"][budget]
            assert PAPER_TABLE1["clusterkv"][budget] > PAPER_TABLE1["quest"][budget]
            assert PAPER_TABLE1["clusterkv"][budget] < PAPER_TABLE1["full"][budget]


class TestFig9:
    def test_full_kv_is_generated_once_per_sample(self, monkeypatch):
        """``full`` ignores the budget: one generation fills its whole row.

        The scores are the ones the four-generations-per-sample loop
        produced, so ``format_fig9`` / ``format_table1`` output is unchanged.
        """
        calls = []
        evaluate_sample = fig9_longbench.evaluate_sample

        def spy(context, selector, sample, budget, **kwargs):
            calls.append(budget)
            return evaluate_sample(context, selector, sample, budget, **kwargs)

        monkeypatch.setattr(fig9_longbench, "evaluate_sample", spy)
        config = Fig9Config(scale=ContextScale(64), num_samples=1, tasks=("hotpotqa",))
        result = run_fig9(config)

        budgets = len(config.paper_budgets)
        assert len(calls) == config.num_samples * (1 + 3 * budgets)
        assert calls.count(None) == config.num_samples
        hit, miss = {"hotpotqa": 6 / 7}, {"hotpotqa": 0.0}
        assert result.table.scores == {
            "full": {256: hit, 512: hit, 1024: hit, 2048: hit},
            "clusterkv": {256: miss, 512: miss, 1024: hit, 2048: hit},
            "quest": {256: miss, 512: miss, 1024: miss, 2048: hit},
            "infinigen": {256: hit, 512: hit, 1024: hit, 2048: hit},
        }


class TestPerfExperiments:
    def test_fig12_grid_and_claims(self):
        config = Fig12Config(
            prompt_lengths=(8192, 32768), decode_lengths=(1024,), budgets=(1024,)
        )
        fig12 = EXPERIMENTS.build("fig12")
        result = fig12.run(config)
        assert len(result.reports) == 2 * 1 * 2  # (full + 1 budget) per cell
        speedup_short = result.speedup(8192, 1024, 1024)
        speedup_long = result.speedup(32768, 1024, 1024)
        assert speedup_long > speedup_short  # gains grow with context length
        assert speedup_long > 1.4
        assert result.prefill_overhead_fraction(32768, 1024, 1024) < 0.10
        assert "Fig. 12" in fig12.format(result)

    def test_fig13_claims(self):
        fig13 = EXPERIMENTS.build("fig13")
        infinigen, quest = fig13.run(Fig13Config())
        assert infinigen.mean_speedup("infinigen") > 1.8
        assert quest.max_deviation("quest") < 0.08
        text = fig13.format((infinigen, quest))
        assert "Fig. 13a" in text and "Fig. 13b" in text
