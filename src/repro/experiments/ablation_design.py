"""Design-choice ablations of ClusterKV beyond the paper's Fig. 11b.

DESIGN.md §5 lists the design decisions of the system (attention sinks,
budget trimming policy, cluster-cache depth ``R``, decode-time clustering
cadence).  This experiment quantifies each one on a single long QA sample:
for every variant it reports the task score, the recall of important tokens
and the cluster-cache hit rate, so the contribution of each mechanism is
visible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core import ClusterKVSelector
from ..metrics import mean_recall
from .base import EXPERIMENTS, Experiment, SampledConfig, samples_knob
from .methods import build_clusterkv_config
from .reporting import format_table
from .runner import EvaluationContext, evaluate_sample
from .scale import CLI_SCALE, DEFAULT_SCALE, ContextScale

__all__ = [
    "DesignAblationConfig",
    "DesignVariantResult",
    "DesignAblationResult",
    "run_design_ablation",
    "format_design_ablation",
]


@dataclass(frozen=True)
class DesignAblationConfig(SampledConfig):
    """Configuration of the design-choice ablation."""

    task: str = "multifieldqa"
    paper_context: int = 32768
    paper_budget: int = 1024
    num_samples: int = samples_knob(2)
    decode_steps: int = 12
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "glm-sim"
    num_full_layers: int = 2
    seed: int = 0


@dataclass
class DesignVariantResult:
    """Metrics of one ClusterKV variant."""

    name: str
    score: float
    recall: float
    cache_hit_rate: float


@dataclass
class DesignAblationResult:
    """All variants, keyed by name."""

    variants: dict[str, DesignVariantResult] = field(default_factory=dict)
    config: DesignAblationConfig | None = None

    def score_of(self, name: str) -> float:
        """Aggregate score of the named design variant."""
        return self.variants[name].score


def _variants(config: DesignAblationConfig) -> dict[str, dict]:
    """Named ClusterKV configuration overrides for each ablated choice."""
    base = build_clusterkv_config(config.scale)
    return {
        "default": {},
        "no-sinks": {"num_sink_tokens": 0},
        "trim-centroid": {"trim_policy": "centroid"},
        "no-cache (R=0)": {"cache_history": 0},
        "cache R=2": {"cache_history": 2},
        "coarse clusters (2x)": {"tokens_per_cluster": base.tokens_per_cluster * 2},
        "fine clusters (x0.5)": {
            "tokens_per_cluster": max(2, base.tokens_per_cluster // 2)
        },
        "l2 distance": {"distance_metric": "l2"},
    }


def run_design_ablation(config: DesignAblationConfig | None = None) -> DesignAblationResult:
    """Evaluate every ClusterKV design variant on the same samples."""
    config = config or DesignAblationConfig()
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    scaled_budget = config.scale.length(config.paper_budget)
    samples = context.task_samples(
        config.task, config.paper_context, config.num_samples, config.seed, config.decode_steps
    )

    base_config = build_clusterkv_config(config.scale)
    result = DesignAblationResult(config=config)
    for name, overrides in _variants(config).items():
        variant_config = replace(base_config, **overrides)
        scores, recalls, hit_rates = [], [], []
        for sample in samples:
            selector = ClusterKVSelector(variant_config)
            score, generation = evaluate_sample(
                context,
                selector,
                sample,
                scaled_budget,
                num_full_layers=config.num_full_layers,
                record_true_scores=True,
            )
            scores.append(score)
            recalls.append(mean_recall(generation.recall_records))
            hit_rates.append(generation.cache_hit_rate)
        result.variants[name] = DesignVariantResult(
            name=name,
            score=float(np.mean(scores)),
            recall=float(np.mean(recalls)),
            cache_hit_rate=float(np.mean(hit_rates)),
        )
    return result


def format_design_ablation(result: DesignAblationResult) -> str:
    """Format the ablation as one row per variant."""
    headers = ["variant", "task score", "recall", "cache hit rate"]
    rows = []
    for name, variant in result.variants.items():
        rows.append(
            [name, 100.0 * variant.score, variant.recall, f"{100 * variant.cache_hit_rate:.1f}%"]
        )
    return format_table(headers, rows, title="[Design ablation] ClusterKV variants")


@EXPERIMENTS.register("design-ablation")
class DesignAblation(Experiment):
    """``repro design-ablation``: score, recall and hit rate per variant."""

    summary = "ClusterKV design-choice ablation"
    config_cls = DesignAblationConfig
    cli_defaults = DesignAblationConfig(scale=CLI_SCALE)
    run = staticmethod(run_design_ablation)
    format = staticmethod(format_design_ablation)
