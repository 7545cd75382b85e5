"""Unit tests for the experiment result containers and their formatters.

These tests build small result objects directly (no model runs) and check
that the aggregation logic and the plain-text rendering behave as the
benchmark harness expects.
"""

import pytest

from repro.experiments.ablation_design import (
    DesignAblationResult,
    DesignVariantResult,
    format_design_ablation,
)
from repro.experiments.cache_study import CacheStudyResult, format_cache_study
from repro.experiments.fig9_longbench import Fig9Result
from repro.experiments.fig10_perplexity import Fig10Result, format_fig10
from repro.experiments.fig11_recall import Fig11Result, format_fig11
from repro.experiments.table1_average import Table1Result, format_table1
from repro.metrics import ScoreTable


class TestFig10Result:
    def _result(self):
        result = Fig10Result(budget=64)
        result.perplexities = {
            "full": {8000: 10.0, 16000: 11.0},
            "clusterkv": {8000: 10.4, 16000: 11.6},
            "quest": {8000: 14.0, 16000: 15.0},
        }
        return result

    def test_deviation_from_full(self):
        result = self._result()
        assert result.deviation_from_full("clusterkv") == pytest.approx(0.5)
        assert result.deviation_from_full("quest") == pytest.approx(4.0)
        assert result.deviation_from_full("full") == pytest.approx(0.0)

    def test_deviation_with_no_overlap_is_nan(self):
        result = Fig10Result()
        result.perplexities = {"full": {8000: 10.0}, "clusterkv": {16000: 11.0}}
        assert result.deviation_from_full("clusterkv") != result.deviation_from_full(
            "clusterkv"
        )  # NaN

    def test_format_contains_methods_and_deviation(self):
        text = format_fig10(self._result())
        assert "clusterkv" in text and "dev. vs full" in text


class TestFig11Result:
    def test_record_and_format(self):
        result = Fig11Result(context_length=2048)
        result.record("clusterkv", 256, 0.3)
        result.record("clusterkv", 512, 0.4)
        result.record("quest", 256, 0.2)
        text = format_fig11(result)
        assert "clusterkv" in text and "quest" in text
        assert result.curves["clusterkv"] == {256: 0.3, 512: 0.4}


class TestTable1Formatting:
    def test_format_includes_measured_and_paper(self):
        fig9 = Fig9Result(table=ScoreTable())
        fig9.table.record("clusterkv", 256, "qasper", 0.5)
        fig9.table.record("full", 256, "qasper", 0.6)
        result = Table1Result(
            averages={"clusterkv": {256: 50.0}, "full": {256: 60.0}}, fig9=fig9
        )
        text = format_table1(result)
        assert "measured" in text
        assert "paper-reported" in text
        without_paper = format_table1(result, include_paper=False)
        assert "paper-reported" not in without_paper


class TestCacheStudyFormatting:
    def test_format_rows_per_history(self):
        result = CacheStudyResult(
            hit_rates={1: 0.12, 2: 0.2},
            throughput_gain={1: 2.4, 2: 2.5},
            throughput_gain_paper_hit={1: 2.6, 2: 2.6},
        )
        text = format_cache_study(result)
        assert "63%" in text  # paper reference for R=1
        assert "2.40x" in text


class TestDesignAblationFormatting:
    def test_format_and_accessor(self):
        result = DesignAblationResult(
            variants={
                "default": DesignVariantResult("default", 0.8, 0.5, 0.1),
                "no-sinks": DesignVariantResult("no-sinks", 0.7, 0.45, 0.1),
            }
        )
        assert result.score_of("default") == pytest.approx(0.8)
        text = format_design_ablation(result)
        assert "no-sinks" in text and "cache hit rate" in text
