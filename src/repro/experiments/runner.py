"""Shared evaluation runner used by the accuracy experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import KVSelectorFactory
from ..metrics import qa_f1_score, rouge_l_score
from ..model import (
    GenerationConfig,
    GenerationResult,
    InferenceEngine,
    SyntheticTokenizer,
    TransformerModel,
    get_model_config,
)
from ..workloads import LONGBENCH_TASKS, LongBenchSample, LongBenchTaskGenerator, TopicModel
from .scale import ContextScale, DEFAULT_SCALE

__all__ = ["EvaluationContext", "evaluate_sample", "score_prediction"]


@dataclass
class EvaluationContext:
    """Model, tokenizer and topic model shared by one experiment run.

    Building the transformer weights is deterministic but not free; the
    experiments create one context and reuse it across methods and budgets
    so that every method sees exactly the same model and data.
    """

    model: TransformerModel
    tokenizer: SyntheticTokenizer
    topic_model: TopicModel
    scale: ContextScale

    @classmethod
    def create(
        cls,
        model_name: str = "glm-sim",
        scale: ContextScale = DEFAULT_SCALE,
        seed: int = 0,
    ) -> "EvaluationContext":
        """Build the standard evaluation context used by the paper analogues."""
        config = get_model_config(model_name)
        model = TransformerModel(config)
        tokenizer = SyntheticTokenizer(config.vocab_size)
        topic_model = TopicModel(tokenizer, seed=seed)
        return cls(model=model, tokenizer=tokenizer, topic_model=topic_model, scale=scale)

    def task_samples(
        self, task: str, paper_context: int, num_samples: int, seed: int, decode_steps: int = 0
    ) -> list[LongBenchSample]:
        """``num_samples`` samples of ``task`` at the scaled ``paper_context``.

        Each answer is lengthened to ``decode_steps`` tokens at least.
        """
        generator = LongBenchTaskGenerator(
            self.tokenizer, LONGBENCH_TASKS[task], topic_model=self.topic_model, seed=seed
        )
        samples = generator.generate_dataset(self.scale.length(paper_context), num_samples)
        for sample in samples:
            sample.answer_length = max(sample.answer_length, decode_steps)
        return samples


def score_prediction(prediction: str, reference: str, metric: str) -> float:
    """Score a prediction with the metric the task specifies."""
    if metric == "f1":
        return qa_f1_score(prediction, reference)
    if metric == "rouge_l":
        return rouge_l_score(prediction, reference)
    raise ValueError(f"unknown metric {metric!r}")


def evaluate_sample(
    context: EvaluationContext,
    selector: KVSelectorFactory,
    sample: LongBenchSample,
    budget: int | None,
    num_full_layers: int = 2,
    record_true_scores: bool = False,
) -> tuple[float, GenerationResult]:
    """Generate an answer for one sample and score it.

    Returns the task-metric score and the full :class:`GenerationResult`
    (which carries selection statistics, cache hit rates and optional recall
    records for downstream experiments).
    """
    generation_config = GenerationConfig(
        budget=budget,
        max_new_tokens=sample.answer_length,
        num_full_layers=num_full_layers,
        num_sink_tokens=context.scale.sink_tokens(),
        record_true_scores=record_true_scores,
    )
    engine = InferenceEngine(context.model, selector, generation_config)
    result = engine.generate(np.asarray(sample.prompt_ids))
    prediction = context.tokenizer.decode(result.output_ids)
    score = score_prediction(prediction, sample.reference_answer, sample.metric)
    return score, result
