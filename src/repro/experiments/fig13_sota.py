"""Fig. 13: latency comparison with state-of-the-art recallable methods.

Part (a) compares ClusterKV with InfiniGen on an OPT-6.7B-class model with a
2k-token prompt and a budget of 256 tokens (the paper reports an average
speedup of about 2.3x, with InfiniGen's latency close to full-KV inference
because of its per-token selection cost).  Part (b) compares ClusterKV with
Quest on a Llama-3.1-8B-class model with a 1k budget, where the two methods
are within a few percent of each other while ClusterKV delivers much higher
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import get_reference_architecture
from ..perfmodel import ADA_6000, HardwareConfig, LatencyModel, LatencyReport
from .base import EXPERIMENTS, Experiment
from .reporting import format_table

__all__ = [
    "Fig13Config",
    "Fig13Result",
    "run_fig13_infinigen",
    "run_fig13_quest",
    "format_fig13",
]


@dataclass(frozen=True)
class Fig13Config:
    """Configuration of the Fig. 13 reproduction (paper-scale settings)."""

    # Part (a): vs. InfiniGen on OPT-6.7B.
    infinigen_architecture: str = "opt-6.7b"
    infinigen_prompt: int = 2048
    infinigen_decodes: tuple[int, ...] = (128, 256)
    infinigen_budget: int = 256
    # Part (b): vs. Quest on Llama-3.1-8B.
    quest_architecture: str = "llama-3.1-8b"
    quest_prompts: tuple[int, ...] = (8192, 16384, 32768)
    quest_decodes: tuple[int, ...] = (256, 512)
    quest_budget: int = 1024
    cache_hit_rate: float = 0.63
    hardware: HardwareConfig = ADA_6000


@dataclass
class Fig13Result:
    """Latency reports keyed by (setting label, method)."""

    reports: dict[tuple[str, str], LatencyReport] = field(default_factory=dict)
    config: Fig13Config | None = None

    def speedup(self, setting: str, baseline: str, method: str = "clusterkv") -> float:
        """Total-latency speedup of ``method`` over ``baseline`` in a setting."""
        return self.reports[(setting, method)].speedup_over(
            self.reports[(setting, baseline)]
        )

    def mean_speedup(self, baseline: str) -> float:
        """Average speedup over all settings containing the baseline."""
        speedups = [
            self.speedup(setting, baseline)
            for (setting, method) in self.reports
            if method == baseline
        ]
        return sum(speedups) / len(speedups) if speedups else 0.0

    def max_deviation(self, baseline: str) -> float:
        """Largest relative latency deviation of ClusterKV from ``baseline``."""
        deviations = []
        for (setting, method) in list(self.reports):
            if method != baseline:
                continue
            base = self.reports[(setting, baseline)].total_seconds
            ours = self.reports[(setting, "clusterkv")].total_seconds
            deviations.append(abs(ours - base) / base)
        return max(deviations) if deviations else 0.0


def run_fig13_infinigen(config: Fig13Config | None = None) -> Fig13Result:
    """Fig. 13a: ClusterKV vs. InfiniGen (and full KV) on OPT-6.7B scale."""
    config = config or Fig13Config()
    arch = get_reference_architecture(config.infinigen_architecture)
    model = LatencyModel(arch, config.hardware)
    result = Fig13Result(config=config)
    for decode in config.infinigen_decodes:
        setting = f"P={config.infinigen_prompt},D={decode}"
        result.reports[(setting, "full")] = model.generation_latency(
            "full", config.infinigen_prompt, decode
        )
        result.reports[(setting, "infinigen")] = model.generation_latency(
            "infinigen", config.infinigen_prompt, decode, budget=config.infinigen_budget
        )
        result.reports[(setting, "clusterkv")] = model.generation_latency(
            "clusterkv",
            config.infinigen_prompt,
            decode,
            budget=config.infinigen_budget,
            cache_hit_rate=config.cache_hit_rate,
        )
    return result


def run_fig13_quest(config: Fig13Config | None = None) -> Fig13Result:
    """Fig. 13b: ClusterKV vs. Quest on Llama-3.1-8B scale."""
    config = config or Fig13Config()
    arch = get_reference_architecture(config.quest_architecture)
    model = LatencyModel(arch, config.hardware)
    result = Fig13Result(config=config)
    for prompt in config.quest_prompts:
        for decode in config.quest_decodes:
            setting = f"P={prompt},D={decode}"
            result.reports[(setting, "quest")] = model.generation_latency(
                "quest", prompt, decode, budget=config.quest_budget
            )
            result.reports[(setting, "clusterkv")] = model.generation_latency(
                "clusterkv",
                prompt,
                decode,
                budget=config.quest_budget,
                cache_hit_rate=config.cache_hit_rate,
            )
    return result


def format_fig13(infinigen_result: Fig13Result, quest_result: Fig13Result) -> str:
    """Format both parts of Fig. 13."""
    settings_a = sorted({setting for setting, _ in infinigen_result.reports})
    rows_a = []
    for setting in settings_a:
        rows_a.append(
            [
                setting,
                infinigen_result.reports[(setting, "full")].total_seconds,
                infinigen_result.reports[(setting, "infinigen")].total_seconds,
                infinigen_result.reports[(setting, "clusterkv")].total_seconds,
                infinigen_result.speedup(setting, "infinigen"),
            ]
        )
    part_a = format_table(
        ["setting", "full (s)", "infinigen (s)", "clusterkv (s)", "speedup"],
        rows_a,
        title="[Fig. 13a] ClusterKV vs. InfiniGen (OPT-6.7B scale, budget 256)",
    )

    settings_b = sorted({setting for setting, _ in quest_result.reports})
    rows_b = []
    for setting in settings_b:
        quest = quest_result.reports[(setting, "quest")].total_seconds
        ours = quest_result.reports[(setting, "clusterkv")].total_seconds
        rows_b.append([setting, quest, ours, f"{100 * (ours - quest) / quest:+.1f}%"])
    part_b = format_table(
        ["setting", "quest (s)", "clusterkv (s)", "deviation"],
        rows_b,
        title="[Fig. 13b] ClusterKV vs. Quest (Llama-3.1-8B scale, budget 1k)",
    )
    return part_a + "\n\n" + part_b


@EXPERIMENTS.register("fig13")
class Fig13(Experiment):
    """``repro fig13``: ClusterKV vs. InfiniGen (13a), then vs. Quest (13b)."""

    summary = "Fig. 13 vs. Quest / InfiniGen (perf model)"
    config_cls = Fig13Config

    def run(self, config: Fig13Config) -> tuple[Fig13Result, Fig13Result]:
        """Both parts of Fig. 13, InfiniGen first."""
        return run_fig13_infinigen(config), run_fig13_quest(config)

    def format(self, result: tuple[Fig13Result, Fig13Result]) -> str:
        """Both comparison tables."""
        return format_fig13(*result)
