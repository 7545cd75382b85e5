"""Fig. 9: LongBench-analogue scores of every method under every budget.

The paper evaluates Quest, InfiniGen, ClusterKV and the full KV cache on
eight LongBench datasets under KV budgets of 256–2048 tokens (on 32k-token
contexts) and reports one score curve per dataset.  This experiment runs the
synthetic analogue of each dataset under the corresponding scaled budgets
and produces the same method × budget × task score table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics import ScoreTable
from ..workloads import LONGBENCH_TASKS, LongBenchTaskGenerator
from .methods import ACCURACY_METHODS, build_selector
from .reporting import format_table
from .runner import EvaluationContext, evaluate_sample
from .scale import ContextScale, DEFAULT_SCALE

__all__ = ["Fig9Config", "Fig9Result", "run_fig9", "format_fig9"]

# Budgets reported by the paper (tokens at 32k-context scale).
PAPER_BUDGETS = (256, 512, 1024, 2048)
PAPER_CONTEXT = 32768


@dataclass(frozen=True)
class Fig9Config:
    """Configuration of the Fig. 9 reproduction.

    Defaults are sized for a CPU run of a few minutes; larger values
    reproduce the trends with less sampling noise.
    """

    tasks: tuple[str, ...] = tuple(LONGBENCH_TASKS)
    methods: tuple[str, ...] = ACCURACY_METHODS
    paper_budgets: tuple[int, ...] = PAPER_BUDGETS
    paper_context: int = PAPER_CONTEXT
    num_samples: int = 4
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "glm-sim"
    num_full_layers: int = 2
    seed: int = 0


@dataclass
class Fig9Result:
    """Score table plus the scaled settings used to produce it."""

    table: ScoreTable
    budgets: dict[int, int] = field(default_factory=dict)  # paper budget -> scaled
    context_length: int = 0
    config: Fig9Config | None = None


def run_fig9(config: Fig9Config | None = None) -> Fig9Result:
    """Run the Fig. 9 experiment and return the score table."""
    config = config or Fig9Config()
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    scaled_context = config.scale.length(config.paper_context)
    scaled_budgets = {
        paper: config.scale.length(paper) for paper in config.paper_budgets
    }

    table = ScoreTable()
    for task_name in config.tasks:
        spec = LONGBENCH_TASKS[task_name]
        generator = LongBenchTaskGenerator(
            context.tokenizer, spec, topic_model=context.topic_model, seed=config.seed
        )
        samples = generator.generate_dataset(scaled_context, config.num_samples)
        for method in config.methods:
            # One evaluation per distinct effective budget: the full KV cache
            # ignores the budget, so a single generation per sample fills
            # every budget column of its row.
            by_budget: dict[int | None, float] = {}
            for paper_budget, scaled_budget in scaled_budgets.items():
                budget = None if method == "full" else scaled_budget
                if budget not in by_budget:
                    scores = []
                    for sample in samples:
                        selector = build_selector(method, config.scale)
                        score, _ = evaluate_sample(
                            context,
                            selector,
                            sample,
                            budget,
                            num_full_layers=config.num_full_layers,
                        )
                        scores.append(score)
                    by_budget[budget] = float(np.mean(scores))
                table.record(method, paper_budget, task_name, by_budget[budget])
    return Fig9Result(
        table=table,
        budgets=scaled_budgets,
        context_length=scaled_context,
        config=config,
    )


def format_fig9(result: Fig9Result) -> str:
    """Format the Fig. 9 result as one table per task (scores are 0–100)."""
    blocks = []
    table = result.table
    budgets = table.budgets()
    for task in table.tasks():
        headers = ["method"] + [
            f"B={budget} ({result.budgets.get(budget, budget)} sim)" for budget in budgets
        ]
        rows = []
        for method in table.methods():
            curve = table.task_curve(method, task)
            rows.append(
                [method] + [100.0 * curve.get(budget, float("nan")) for budget in budgets]
            )
        blocks.append(format_table(headers, rows, title=f"[Fig. 9] {task}"))
    return "\n\n".join(blocks)
