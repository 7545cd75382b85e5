"""The one shape of a paper experiment, and the registry the CLI reads.

Each table or figure is one :class:`Experiment` subclass, registered in
:data:`EXPERIMENTS` under its ``repro`` command name.
"""

from __future__ import annotations

from typing import Any, ClassVar

from ..knobs import knob
from ..registry import Registry

__all__ = ["Experiment", "EXPERIMENTS"]


class Experiment:
    """One of the paper's tables or figures: a config class, a run and a format.

    A subclass sets ``summary`` (its ``repro list`` line), ``config_cls``
    and, when a bare ``repro <name>`` runs something other than
    ``config_cls()``, ``cli_defaults``; the command's flags are the
    config's knob fields, with their defaults read from it.
    """

    name: ClassVar[str]
    summary: ClassVar[str]
    config_cls: ClassVar[type]
    cli_defaults: ClassVar[Any] = None

    def run(self, config: Any) -> Any:
        """Run the experiment under ``config`` and return its result."""
        raise NotImplementedError

    def format(self, result: Any) -> str:
        """Render a result of :meth:`run` as the plain text the CLI prints."""
        raise NotImplementedError


EXPERIMENTS: Registry[Experiment] = Registry("experiment", Experiment)


def samples_knob(default: int):
    """The ``num_samples`` field of an accuracy config, spelled ``--samples``."""
    return knob(default, "samples per task", flag="--samples")


class SampledConfig:
    """Base of the configs with a ``num_samples`` field: at least one sample."""

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be at least 1, got {self.num_samples}")
