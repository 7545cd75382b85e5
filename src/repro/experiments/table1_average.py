"""Table I: average score over the eight LongBench-analogue tasks per budget.

The paper's Table I averages the Fig. 9 scores across the eight datasets for
every method and budget; ClusterKV improves over Quest and InfiniGen at
every budget and approaches the full-KV score with 1k–2k budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import EXPERIMENTS, Experiment
from .fig9_longbench import Fig9Config, Fig9Result, format_fig9, run_fig9
from .reporting import format_table
from .scale import CLI_SCALE

__all__ = ["Table1Result", "run_table1", "format_table1"]

# Paper Table I values (average score over the eight datasets).
PAPER_TABLE1 = {
    "quest": {256: 35.63, 512: 40.83, 1024: 43.23, 2048: 45.59},
    "infinigen": {256: 43.69, 512: 45.04, 1024: 45.13, 2048: 45.14},
    "clusterkv": {256: 46.69, 512: 48.02, 1024: 48.34, 2048: 48.70},
    "full": {256: 49.01, 512: 49.01, 1024: 49.01, 2048: 49.01},
}


@dataclass
class Table1Result:
    """Average scores per method and budget (0–100 scale)."""

    averages: dict[str, dict[int, float]]
    fig9: Fig9Result


def run_table1(config: Fig9Config | None = None, fig9: Fig9Result | None = None) -> Table1Result:
    """Compute Table I, reusing a Fig. 9 result when provided."""
    fig9 = fig9 if fig9 is not None else run_fig9(config)
    averages = {
        method: {
            budget: 100.0 * score
            for budget, score in fig9.table.average_by_budget(method).items()
        }
        for method in fig9.table.methods()
    }
    return Table1Result(averages=averages, fig9=fig9)


def format_table1(result: Table1Result, include_paper: bool = True) -> str:
    """Format Table I (and optionally the paper's reference values)."""
    budgets = sorted({budget for scores in result.averages.values() for budget in scores})
    headers = ["method"] + [f"B={budget}" for budget in budgets]
    rows = []
    for method, scores in sorted(result.averages.items()):
        rows.append([method] + [scores.get(budget, float("nan")) for budget in budgets])
    text = format_table(headers, rows, title="[Table I] average score across tasks (measured)")
    if include_paper:
        paper_rows = []
        for method, scores in PAPER_TABLE1.items():
            paper_rows.append([method] + [scores.get(budget, float("nan")) for budget in budgets])
        text += "\n\n" + format_table(
            headers, paper_rows, title="[Table I] paper-reported values (GLM4-9B, LongBench)"
        )
    return text


@EXPERIMENTS.register("fig9")
class Fig9(Experiment):
    """``repro fig9``: the per-task Fig. 9 tables and Table I, from one run."""

    summary = "Fig. 9 / Table I LongBench-analogue accuracy"
    config_cls = Fig9Config
    cli_defaults = Fig9Config(scale=CLI_SCALE, num_samples=2)
    run = staticmethod(run_table1)

    def format(self, result: Table1Result) -> str:
        """The Fig. 9 tables, then Table I next to the paper's values."""
        return format_fig9(result.fig9) + "\n\n" + format_table1(result)
