"""Fig. 10: language-modelling perplexity under a fixed KV budget.

The paper evaluates perplexity on PG19 with input lengths from 1 to 32 000
tokens and a uniform KV budget of 1024; ClusterKV stays within ~0.5 of the
full-KV perplexity while Quest and InfiniGen deviate by roughly 4 and 2.
The reproduction scores the synthetic PG19-analogue corpus: the first part
of every document is processed as the prompt and the remainder is
teacher-forced through the decoding path, so KV compression affects the
predictions exactly as it would during generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model import GenerationConfig, InferenceEngine
from ..workloads import PG19Config, PG19Generator
from .base import EXPERIMENTS, Experiment, SampledConfig, samples_knob
from .methods import ACCURACY_METHODS, build_selector
from .reporting import format_table
from .runner import EvaluationContext
from .scale import CLI_SCALE, DEFAULT_SCALE, ContextScale

__all__ = ["Fig10Config", "Fig10Result", "run_fig10", "format_fig10"]

PAPER_BUDGET = 1024
# Input lengths the paper sweeps (paper-scale tokens).
PAPER_LENGTHS = (4000, 8000, 16000, 24000, 32000)


@dataclass(frozen=True)
class Fig10Config(SampledConfig):
    """Configuration of the Fig. 10 reproduction."""

    methods: tuple[str, ...] = ACCURACY_METHODS
    paper_lengths: tuple[int, ...] = PAPER_LENGTHS
    paper_budget: int = PAPER_BUDGET
    num_samples: int = samples_knob(2)
    scored_tokens: int = 48
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "glm-sim"
    num_full_layers: int = 2
    seed: int = 0


@dataclass
class Fig10Result:
    """Perplexity per method and input length."""

    perplexities: dict[str, dict[int, float]] = field(default_factory=dict)
    budget: int = 0
    config: Fig10Config | None = None

    def deviation_from_full(self, method: str) -> float:
        """Mean perplexity deviation of a method from the full-KV curve."""
        full = self.perplexities.get("full", {})
        other = self.perplexities.get(method, {})
        common = sorted(set(full) & set(other))
        if not common:
            return float("nan")
        return float(np.mean([other[length] - full[length] for length in common]))


def run_fig10(config: Fig10Config | None = None) -> Fig10Result:
    """Run the perplexity sweep and return per-method curves."""
    config = config or Fig10Config()
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    generator = PG19Generator(
        context.tokenizer, PG19Config(), topic_model=context.topic_model, seed=config.seed
    )
    scaled_budget = config.scale.length(config.paper_budget)

    result = Fig10Result(budget=scaled_budget, config=config)
    for paper_length in config.paper_lengths:
        scaled_length = config.scale.length(paper_length)
        total_length = scaled_length + config.scored_tokens
        samples = generator.generate_dataset(total_length, config.num_samples)
        for method in config.methods:
            budget = None if method == "full" else scaled_budget
            logprob_means = []
            for sample in samples:
                selector = build_selector(method, config.scale)
                generation_config = GenerationConfig(
                    budget=budget,
                    max_new_tokens=1,
                    num_full_layers=config.num_full_layers,
                    num_sink_tokens=config.scale.sink_tokens(),
                )
                engine = InferenceEngine(context.model, selector, generation_config)
                scored = engine.score_sequence(sample.token_ids, scaled_length)
                logprob_means.append(float(np.mean(scored.target_logprobs)))
            perplexity = float(np.exp(-np.mean(logprob_means)))
            result.perplexities.setdefault(method, {})[paper_length] = perplexity
    return result


def format_fig10(result: Fig10Result) -> str:
    """Format the perplexity curves as a table."""
    lengths = sorted(
        {length for curve in result.perplexities.values() for length in curve}
    )
    headers = ["method"] + [f"L={length}" for length in lengths] + ["dev. vs full"]
    rows = []
    for method, curve in sorted(result.perplexities.items()):
        rows.append(
            [method]
            + [curve.get(length, float("nan")) for length in lengths]
            + [result.deviation_from_full(method)]
        )
    return format_table(
        headers, rows, title=f"[Fig. 10] perplexity (budget {result.budget} sim tokens)"
    )


@EXPERIMENTS.register("fig10")
class Fig10(Experiment):
    """``repro fig10``: perplexity curves under a fixed budget."""

    summary = "Fig. 10 language-modelling perplexity"
    config_cls = Fig10Config
    cli_defaults = Fig10Config(scale=CLI_SCALE)
    run = staticmethod(run_fig10)
    format = staticmethod(format_fig10)
