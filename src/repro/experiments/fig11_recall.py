"""Fig. 11: recall rate of important tokens.

The paper extracts a 32k-token NarrativeQA sample and measures, for every
method, the fraction of the truly important tokens (the top-``B`` by exact
attention score) that the method's selection recalls, averaged over layers,
heads and decoding steps.  Part (a) compares methods; part (b) ablates
ClusterKV's clustering distance metric (cosine vs. L2 vs. inner product) and
the number of prefill clusters ``C0``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..baselines import KVSelectorFactory
from ..core import ClusterKVConfig, ClusterKVSelector
from ..metrics import mean_recall
from .base import EXPERIMENTS, Experiment, SampledConfig, samples_knob
from .methods import build_clusterkv_config, build_selector
from .reporting import format_series
from .runner import EvaluationContext, evaluate_sample
from .scale import CLI_SCALE, DEFAULT_SCALE, ContextScale

__all__ = [
    "Fig11Config",
    "Fig11Result",
    "run_fig11_methods",
    "run_fig11_ablation",
    "format_fig11",
]

# Budgets swept by the paper: 256..2048 in increments of 256.
PAPER_BUDGETS = tuple(range(256, 2049, 256))
PAPER_CONTEXT = 32768


@dataclass(frozen=True)
class Fig11Config(SampledConfig):
    """Configuration of the recall-rate experiments."""

    methods: tuple[str, ...] = ("clusterkv", "quest", "infinigen")
    paper_budgets: tuple[int, ...] = (256, 512, 1024, 1536, 2048)
    paper_context: int = PAPER_CONTEXT
    task: str = "narrativeqa"
    num_samples: int = samples_knob(1)
    decode_steps: int = 16
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "glm-sim"
    num_full_layers: int = 2
    seed: int = 0
    # Ablation settings (paper Fig. 11b).
    ablation_metrics: tuple[str, ...] = ("cosine", "l2", "ip")
    ablation_cluster_counts: tuple[int, ...] = (200, 400, 600, 800)


@dataclass
class Fig11Result:
    """Recall-rate curves keyed by series name then paper budget."""

    curves: dict[str, dict[int, float]] = field(default_factory=dict)
    context_length: int = 0
    config: Fig11Config | None = None

    def record(self, series: str, paper_budget: int, recall: float) -> None:
        """Store the recall of one (series, paper-scale budget) point."""
        self.curves.setdefault(series, {})[paper_budget] = recall


def _recall_curves(
    config: Fig11Config, selectors: dict[str, Callable[[], KVSelectorFactory]]
) -> Fig11Result:
    """The recall of every named selector at every budget, on one set of samples."""
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    samples = context.task_samples(
        config.task, config.paper_context, config.num_samples, config.seed, config.decode_steps
    )
    result = Fig11Result(context_length=config.scale.length(config.paper_context), config=config)
    for series, build in selectors.items():
        for paper_budget in config.paper_budgets:
            recalls = []
            for sample in samples:
                _, generation = evaluate_sample(
                    context,
                    build(),
                    sample,
                    config.scale.length(paper_budget),
                    num_full_layers=config.num_full_layers,
                    record_true_scores=True,
                )
                recalls.append(mean_recall(generation.recall_records))
            result.record(series, paper_budget, float(np.mean(recalls)))
    return result


def run_fig11_methods(config: Fig11Config | None = None) -> Fig11Result:
    """Fig. 11a: recall rate of each method across budgets."""
    config = config or Fig11Config()
    return _recall_curves(
        config, {name: partial(build_selector, name, config.scale) for name in config.methods}
    )


def run_fig11_ablation(config: Fig11Config | None = None) -> Fig11Result:
    """Fig. 11b: ClusterKV ablation over distance metrics and cluster counts.

    The cluster-count ablation is expressed in paper-scale ``C0`` values
    (200–800 for a 32k context, i.e. 160 to 40 tokens per cluster); the
    distance-metric ablation keeps the paper's default ``C0 = L / 80``.
    """
    config = config or Fig11Config()
    selectors = {
        f"metric={metric}": partial(
            ClusterKVSelector, build_clusterkv_config(config.scale, distance_metric=metric)
        )
        for metric in config.ablation_metrics
    }
    scaled_context = config.scale.length(config.paper_context)
    for paper_c0 in config.ablation_cluster_counts:
        # C0 clusters over the paper's context correspond to one cluster per
        # ``context / C0`` tokens; keep that ratio at simulation scale.
        clusterkv_config = ClusterKVConfig(
            tokens_per_cluster=max(2, round(scaled_context / paper_c0)),
            decode_window=max(4, config.scale.length(320)),
            decode_clusters=2,
            num_sink_tokens=config.scale.sink_tokens(),
        )
        selectors[f"C0={paper_c0}"] = partial(ClusterKVSelector, clusterkv_config)
    return _recall_curves(config, selectors)


def format_fig11(result: Fig11Result, title: str = "[Fig. 11] recall rate") -> str:
    """Format recall curves, one series per line."""
    lines = [title + f" (context {result.context_length} sim tokens)"]
    for series, curve in result.curves.items():
        lines.append(format_series(series, dict(sorted(curve.items()))))
    return "\n".join(lines)


@EXPERIMENTS.register("fig11")
class Fig11(Experiment):
    """``repro fig11``: recall by method (11a), then the ClusterKV ablation (11b)."""

    summary = "Fig. 11 recall rate and ablations"
    config_cls = Fig11Config
    cli_defaults = Fig11Config(scale=CLI_SCALE)

    def run(self, config: Fig11Config) -> tuple[Fig11Result, Fig11Result]:
        """Both parts of Fig. 11, methods first."""
        return run_fig11_methods(config), run_fig11_ablation(config)

    def format(self, result: tuple[Fig11Result, Fig11Result]) -> str:
        """Fig. 11a's curves, then Fig. 11b's."""
        titles = ("[Fig. 11a] recall rate by method", "[Fig. 11b] ClusterKV ablation")
        return "\n\n".join(map(format_fig11, result, titles))
