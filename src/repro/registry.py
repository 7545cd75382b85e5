"""One name registry for the pluggable parts around the engine.

Arrival processes, routers, autoscalers, admission policies, capacity
scenarios, drafters and the paper's experiments each keep one
:class:`Registry` (:data:`repro.traffic.ARRIVALS`,
:data:`repro.traffic.ROUTERS`, :data:`repro.cluster.AUTOSCALERS`,
:data:`repro.cluster.ADMISSIONS`, :data:`repro.capacity.SCENARIOS`,
:data:`repro.specdec.DRAFTERS`, :data:`repro.experiments.EXPERIMENTS`).  A class
joins one with the ``@REGISTRY.register("name")`` decorator; a run turns
names, or compact ``"name:key=value,..."`` specs, into instances through
:meth:`Registry.build` and :meth:`Registry.resolve` while it is set up,
never on the step path; a config checks the spec strings it holds with
:meth:`Registry.check_spec` when it is constructed.  Compression policies keep their own registry
(:mod:`repro.policies`): its entries also carry a config class and a
summary.
"""

from __future__ import annotations

import inspect
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from .policies.spec import PolicySpec

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """The registered subclasses of ``base``: one ``kind`` of pluggable part.

    Every registry follows one rule.  Registering the same class again
    (same module and qualified name, as after a module re-import) is a
    no-op; a different class under a taken name raises
    :class:`ValueError`, and so does an unknown name, listing every
    registered one, or a keyword the class does not accept, listing the
    accepted ones.
    """

    def __init__(self, kind: str, base: type[T]) -> None:
        self.kind = kind
        self.base = base
        self._classes: dict[str, type[T]] = {}

    def register(self, name: str) -> Callable[[type[T]], type[T]]:
        """Class decorator registering a class under ``name`` and setting its ``name``."""

        def decorator(cls: type[T]) -> type[T]:
            existing = self._classes.get(name)
            if existing is not None and _identity(existing) != _identity(cls):
                raise ValueError(
                    f"{self.kind} name {name!r} is already registered to "
                    f"{'.'.join(_identity(existing))}"
                )
            self._classes[name] = cls
            cls.name = name
            return cls

        return decorator

    def names(self) -> tuple[str, ...]:
        """Sorted names of every registered class."""
        return tuple(sorted(self._classes))

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[type[T]]:
        """The registered classes, in registration order."""
        return iter(self._classes.values())

    def check(self, name: str) -> None:
        """Raise :class:`ValueError`, naming every registered entry, unless ``name`` is one."""
        if name not in self._classes:
            known = ", ".join(self.names()) or "<none registered>"
            raise ValueError(f"unknown {self.kind} {name!r}; registered: {known}")

    def _check_keys(self, name: str, keys: Iterable[str]) -> None:
        """Raise :class:`ValueError` unless ``name`` is registered and takes every key."""
        self.check(name)
        parameters = inspect.signature(self._classes[name]).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in parameters):
            return
        accepted = [p.name for p in parameters if p.kind is not p.VAR_POSITIONAL]
        unknown = sorted(set(keys) - set(accepted))
        if unknown:
            raise ValueError(
                f"unknown {name!r} configuration keys {unknown}; "
                f"accepted keys: {', '.join(accepted) or '<none>'}"
            )

    def check_spec(self, value: object) -> None:
        """Check a spec string's name and keys without building it; instances pass."""
        if isinstance(value, str):
            spec = PolicySpec.parse(value)
            self._check_keys(spec.name, dict(spec.kwargs))

    def build(self, name: str, *args: object, **kwargs: object) -> T:
        """Instantiate the class registered under ``name`` with these arguments."""
        self._check_keys(name, kwargs)
        return self._classes[name](*args, **kwargs)

    def resolve(self, value: T | str) -> T:
        """An instance of ``base`` as it is, or one built from its spec string.

        Strings take the compact policy form, ``"queue_depth"`` or
        ``"queue_depth:high=2,low=0.25"``; any other value is refused.
        """
        if isinstance(value, self.base):
            return value
        if not isinstance(value, str):
            raise TypeError(
                f"expected a {self.kind} or its spec string, got {type(value).__name__}"
            )
        spec = PolicySpec.parse(value)
        return self.build(spec.name, **dict(spec.kwargs))


def _identity(cls: type) -> tuple[str, str]:
    """What makes two registered classes the same: module and qualified name."""
    return cls.__module__, cls.__qualname__
