"""Fig. 12: inference latency of ClusterKV vs. the full KV cache.

The paper measures end-to-end latency on Llama-3.1-8B with prompt lengths of
8k/16k/32k, decode lengths of 256/512/1024 and ClusterKV budgets of
512/1024/2048, reporting up to a 2x latency speedup and a 2.5x decoding
throughput improvement at 32k, with the prefill-time clustering overhead
staying within a few percent of prefill.  The reproduction evaluates the
same grid with the analytical performance model at the paper's true scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import get_reference_architecture
from ..perfmodel import ADA_6000, HardwareConfig, LatencyModel, LatencyReport
from .base import EXPERIMENTS, Experiment
from .reporting import format_table

__all__ = ["Fig12Config", "Fig12Result", "run_fig12", "format_fig12"]


@dataclass(frozen=True)
class Fig12Config:
    """Configuration of the Fig. 12 reproduction (paper-scale settings)."""

    architecture: str = "llama-3.1-8b"
    prompt_lengths: tuple[int, ...] = (8192, 16384, 32768)
    decode_lengths: tuple[int, ...] = (256, 512, 1024)
    budgets: tuple[int, ...] = (512, 1024, 2048)
    cache_hit_rate: float = 0.63
    hardware: HardwareConfig = ADA_6000


@dataclass
class Fig12Result:
    """Latency reports keyed by (prompt, decode, configuration)."""

    reports: dict[tuple[int, int, str], LatencyReport] = field(default_factory=dict)
    config: Fig12Config | None = None

    def speedup(self, prompt: int, decode: int, budget: int) -> float:
        """Total-latency speedup of ClusterKV over the full KV cache."""
        full = self.reports[(prompt, decode, "full")]
        clusterkv = self.reports[(prompt, decode, f"budget={budget}")]
        return clusterkv.speedup_over(full)

    def throughput_ratio(self, prompt: int, decode: int, budget: int) -> float:
        """Decoding-throughput ratio of ClusterKV over the full KV cache."""
        full = self.reports[(prompt, decode, "full")]
        clusterkv = self.reports[(prompt, decode, f"budget={budget}")]
        if full.decode_throughput == 0:
            return 0.0
        return clusterkv.decode_throughput / full.decode_throughput

    def prefill_overhead_fraction(self, prompt: int, decode: int, budget: int) -> float:
        """Clustering overhead as a fraction of ClusterKV's prefill time."""
        report = self.reports[(prompt, decode, f"budget={budget}")]
        total_prefill = report.prefill_seconds + report.prefill_build_seconds
        if total_prefill == 0:
            return 0.0
        return report.prefill_build_seconds / total_prefill


def run_fig12(config: Fig12Config | None = None) -> Fig12Result:
    """Evaluate the Fig. 12 latency grid."""
    config = config or Fig12Config()
    model = LatencyModel(get_reference_architecture(config.architecture), config.hardware)
    result = Fig12Result(config=config)
    for prompt in config.prompt_lengths:
        for decode in config.decode_lengths:
            result.reports[(prompt, decode, "full")] = model.generation_latency(
                "full", prompt, decode
            )
            for budget in config.budgets:
                result.reports[(prompt, decode, f"budget={budget}")] = (
                    model.generation_latency(
                        "clusterkv",
                        prompt,
                        decode,
                        budget=budget,
                        cache_hit_rate=config.cache_hit_rate,
                    )
                )
    return result


def format_fig12(result: Fig12Result) -> str:
    """Format the latency grid like the paper's grouped bars."""
    config = result.config or Fig12Config()
    headers = ["P", "D", "full (s)"] + [f"B={budget} (s)" for budget in config.budgets] + [
        "best speedup",
        "best thr. ratio",
        "prefill overhead",
    ]
    rows = []
    for prompt in config.prompt_lengths:
        for decode in config.decode_lengths:
            full = result.reports[(prompt, decode, "full")]
            budget_latencies = [
                result.reports[(prompt, decode, f"budget={budget}")].total_seconds
                for budget in config.budgets
            ]
            speedups = [
                result.speedup(prompt, decode, budget) for budget in config.budgets
            ]
            ratios = [
                result.throughput_ratio(prompt, decode, budget)
                for budget in config.budgets
            ]
            overhead = result.prefill_overhead_fraction(
                prompt, decode, config.budgets[0]
            )
            rows.append(
                [prompt, decode, full.total_seconds]
                + budget_latencies
                + [max(speedups), max(ratios), f"{100 * overhead:.1f}%"]
            )
    return format_table(headers, rows, title="[Fig. 12] latency vs. full KV (Llama-3.1-8B scale)")


@EXPERIMENTS.register("fig12")
class Fig12(Experiment):
    """``repro fig12``: the latency grid on the performance model."""

    summary = "Fig. 12 latency vs. full KV (perf model)"
    config_cls = Fig12Config
    run = staticmethod(run_fig12)
    format = staticmethod(format_fig12)
