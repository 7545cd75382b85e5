"""Fig. 3: motivation analyses.

Part (a) shows that token importance (attention-weight ranking) fluctuates
strongly across decoding steps, which is why non-recallable eviction loses
accuracy.  Part (b) shows that the truly important tokens are scattered so
that fixed pages of 16 tokens contain only one or two of them (internal
fragmentation of page-granularity recall).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import (
    FragmentationStats,
    ImportanceTrace,
    analyse_page_fragmentation,
    track_token_importance,
)
from ..baselines import FullKVSelector
from ..model import GenerationConfig, InferenceEngine
from .base import EXPERIMENTS, Experiment
from .reporting import format_kv
from .runner import EvaluationContext
from .scale import CLI_SCALE, DEFAULT_SCALE, ContextScale

__all__ = ["Fig3Config", "Fig3Result", "run_fig3", "format_fig3"]


@dataclass(frozen=True)
class Fig3Config:
    """Configuration of the Fig. 3 reproduction."""

    paper_context: int = 8192
    decode_steps: int = 48
    num_tracked_tokens: int = 3
    page_size: int = 16
    top_k_fraction: float = 0.03
    task: str = "narrativeqa"
    scale: ContextScale = DEFAULT_SCALE
    model_name: str = "llama-sim"
    seed: int = 0


@dataclass
class Fig3Result:
    """Importance-fluctuation trace and page-fragmentation statistics."""

    importance: ImportanceTrace
    fragmentation: FragmentationStats
    context_length: int
    config: Fig3Config | None = None

    @property
    def mean_rank_variation(self) -> float:
        """Average rank range of the tracked tokens (Fig. 3a fluctuation)."""
        return float(np.mean(self.importance.rank_variation()))


def run_fig3(config: Fig3Config | None = None) -> Fig3Result:
    """Run both motivation analyses on one long sample."""
    config = config or Fig3Config()
    context = EvaluationContext.create(config.model_name, config.scale, config.seed)
    (sample,) = context.task_samples(config.task, config.paper_context, 1, config.seed)

    # Track tokens spread across the context (mirroring the paper's choice of
    # tokens at different depths, e.g. 2048/3200/7168 in an 8k context).
    prompt_length = sample.prompt_length
    positions = np.linspace(prompt_length // 4, prompt_length - 8, config.num_tracked_tokens)
    positions = positions.astype(np.int64)

    importance = track_token_importance(
        context.model,
        sample.prompt_ids,
        positions,
        num_steps=config.decode_steps,
        num_sink_tokens=config.scale.sink_tokens(),
    )

    # Fragmentation: exact attention scores recorded during a full-KV run.
    generation_config = GenerationConfig(
        budget=None,
        max_new_tokens=config.decode_steps,
        num_full_layers=0,
        num_sink_tokens=config.scale.sink_tokens(),
        record_attention_trace=True,
    )
    engine = InferenceEngine(context.model, FullKVSelector(), generation_config)
    result = engine.generate(sample.prompt_ids)
    score_vectors = [
        record.true_scores[0]
        for record in result.attention_trace
        if record.true_scores is not None
    ]
    top_k = max(8, int(prompt_length * config.top_k_fraction))
    fragmentation = analyse_page_fragmentation(score_vectors, top_k, config.page_size)

    return Fig3Result(
        importance=importance,
        fragmentation=fragmentation,
        context_length=config.scale.length(config.paper_context),
        config=config,
    )


def format_fig3(result: Fig3Result) -> str:
    """Format the motivation analyses."""
    importance = format_kv(
        {
            "tracked tokens": list(result.importance.token_positions),
            "decode steps": result.importance.num_steps,
            "mean rank variation": result.mean_rank_variation,
            "max rank variation": int(result.importance.rank_variation().max()),
        },
        title="[Fig. 3a] token-importance fluctuation across decoding steps",
    )
    frag = result.fragmentation
    fragmentation = format_kv(
        {
            "page size": frag.page_size,
            "important tokens tracked": frag.top_k,
            "important tokens per occupied page": frag.important_per_occupied_page,
            "tokens loaded per important token": frag.waste_factor,
            "context fraction needed (page granularity)": frag.pages_needed_fraction,
        },
        title="[Fig. 3b] internal fragmentation of important tokens in pages",
    )
    return importance + "\n" + fragmentation


@EXPERIMENTS.register("fig3")
class Fig3(Experiment):
    """``repro fig3``: importance fluctuation and page fragmentation."""

    summary = "Fig. 3 motivation analyses"
    config_cls = Fig3Config
    cli_defaults = Fig3Config(scale=CLI_SCALE)
    run = staticmethod(run_fig3)
    format = staticmethod(format_fig3)
