"""Experiment harness: one registered :class:`Experiment` per paper figure.

Each figure module holds a frozen ``*Config`` dataclass with CPU-friendly
defaults and registers one :class:`Experiment` in :data:`EXPERIMENTS`
under its ``repro`` command name: ``EXPERIMENTS.build("fig10").run(config)``
returns the result and ``.format(result)`` renders the rows/series the
paper reports.  The CLI reads its experiment commands from this registry.
"""

from .base import EXPERIMENTS, Experiment
from .methods import build_clusterkv_config, build_selector, build_selector_spec
from .runner import EvaluationContext, evaluate_sample
from .scale import ContextScale

# Every import below registers one experiment; they run in the paper's
# order, which is the order ``repro list`` prints.  ``table1_average``
# registers ``fig9``: Fig. 9 and Table I come from one run.
from .fig3_motivation import Fig3Config
from .fig9_longbench import Fig9Config
from . import table1_average  # noqa: F401
from .fig10_perplexity import Fig10Config
from .fig11_recall import Fig11Config
from .fig12_latency import Fig12Config
from .fig13_sota import Fig13Config
from .cache_study import CacheStudyConfig
from .ablation_design import DesignAblationConfig

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "ContextScale",
    "EvaluationContext",
    "evaluate_sample",
    "build_selector",
    "build_selector_spec",
    "build_clusterkv_config",
    "Fig3Config",
    "Fig9Config",
    "Fig10Config",
    "Fig11Config",
    "Fig12Config",
    "Fig13Config",
    "CacheStudyConfig",
    "DesignAblationConfig",
]
