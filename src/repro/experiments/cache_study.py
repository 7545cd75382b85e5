"""Caching effectiveness study (paper Sec. V-C).

The paper measures the hit rate of ClusterKV's cluster-granularity cache on
a 32k-token NarrativeQA sample (63 % for ``R = 1`` and 74 % for ``R = 2``)
and the decoding-throughput improvement over loading every selected token
directly from CPU memory (2.3x and 3x).  The reproduction measures the hit
rates with the actual simulation and feeds them into the performance model
to obtain the throughput improvement at the paper's true scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import ClusterKVSelector
from ..model import get_reference_architecture
from ..perfmodel import ADA_6000, HardwareConfig, LatencyModel
from .base import EXPERIMENTS, Experiment, SampledConfig, samples_knob
from .methods import build_clusterkv_config
from .reporting import format_table
from .runner import EvaluationContext, evaluate_sample
from .scale import CLI_SCALE, DEFAULT_SCALE, ContextScale

__all__ = ["CacheStudyConfig", "CacheStudyResult", "run_cache_study", "format_cache_study"]


@dataclass(frozen=True)
class CacheStudyConfig(SampledConfig):
    """Configuration of the caching study."""

    cache_histories: tuple[int, ...] = (1, 2)
    paper_context: int = 32768
    paper_budget: int = 1024
    decode_steps: int = 24
    num_samples: int = samples_knob(1)
    task: str = "narrativeqa"
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "glm-sim"
    architecture: str = "llama-3.1-8b"
    hardware: HardwareConfig = ADA_6000
    seed: int = 0


@dataclass
class CacheStudyResult:
    """Measured hit rates and modelled throughput improvements.

    ``throughput_gain`` uses the hit rate measured by the simulation;
    ``throughput_gain_paper_hit`` uses the hit rate the paper reports for
    the same ``R`` (the synthetic model's queries change faster between
    decoding steps than a trained LLM's, which depresses the measured hit
    rate — see EXPERIMENTS.md).
    """

    hit_rates: dict[int, float] = field(default_factory=dict)
    throughput_gain: dict[int, float] = field(default_factory=dict)
    throughput_gain_paper_hit: dict[int, float] = field(default_factory=dict)
    config: CacheStudyConfig | None = None


PAPER_HIT_RATES = {1: 0.63, 2: 0.74}
PAPER_THROUGHPUT_GAINS = {1: 2.3, 2: 3.0}


def run_cache_study(config: CacheStudyConfig | None = None) -> CacheStudyResult:
    """Measure cache hit rates and derive the throughput improvement."""
    config = config or CacheStudyConfig()
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    scaled_budget = config.scale.length(config.paper_budget)
    samples = context.task_samples(
        config.task, config.paper_context, config.num_samples, config.seed, config.decode_steps
    )

    latency_model = LatencyModel(get_reference_architecture(config.architecture), config.hardware)

    def step_seconds(hit_rate: float, cache: bool = True) -> float:
        """Modelled seconds of one decode step at the paper's context and budget."""
        return latency_model.decode_step(
            "clusterkv",
            config.paper_context,
            config.paper_budget,
            cache_hit_rate=hit_rate,
            cluster_cache_enabled=cache,
        )["total"]

    no_cache = step_seconds(0.0, cache=False)
    result = CacheStudyResult(config=config)
    for history in config.cache_histories:
        clusterkv_config = build_clusterkv_config(config.scale, cache_history=history)
        hit_rates = []
        for sample in samples:
            selector = ClusterKVSelector(clusterkv_config)
            _, generation = evaluate_sample(
                context, selector, sample, scaled_budget, num_full_layers=2
            )
            hit_rates.append(generation.cache_hit_rate)
        hit_rate = float(np.mean(hit_rates))
        result.hit_rates[history] = hit_rate
        result.throughput_gain[history] = no_cache / step_seconds(hit_rate)
        paper_hit_rate = PAPER_HIT_RATES.get(history, hit_rate)
        result.throughput_gain_paper_hit[history] = no_cache / step_seconds(paper_hit_rate)
    return result


def format_cache_study(result: CacheStudyResult) -> str:
    """Format the caching study like the paper's Sec. V-C summary."""
    headers = [
        "R",
        "hit rate (measured)",
        "paper hit rate",
        "gain (measured hit)",
        "gain (paper hit)",
        "paper gain",
    ]
    rows = []
    for history in sorted(result.hit_rates):
        rows.append(
            [
                history,
                f"{100 * result.hit_rates[history]:.1f}%",
                f"{100 * PAPER_HIT_RATES.get(history, float('nan')):.0f}%",
                f"{result.throughput_gain[history]:.2f}x",
                f"{result.throughput_gain_paper_hit.get(history, float('nan')):.2f}x",
                f"{PAPER_THROUGHPUT_GAINS.get(history, float('nan')):.1f}x",
            ]
        )
    return format_table(headers, rows, title="[Sec. V-C] cluster-cache effectiveness")


@EXPERIMENTS.register("cache-study")
class CacheStudy(Experiment):
    """``repro cache-study``: measured hit rates and the modelled gains."""

    summary = "Sec. V-C cluster-cache effectiveness"
    config_cls = CacheStudyConfig
    cli_defaults = CacheStudyConfig(scale=CLI_SCALE)
    run = staticmethod(run_cache_study)
    format = staticmethod(format_cache_study)
