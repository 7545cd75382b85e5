"""Registry mapping policy names to selector-factory classes.

Every KV compression method self-registers at import time by decorating its
:class:`~repro.baselines.base.KVSelectorFactory` subclass with
:func:`register_policy`.  Everything that needs a selector — the
experiments, the serving engine, the CLI and the :mod:`repro.api` session
layer — resolves methods through :func:`build_policy`, so adding a method
(including a third-party one living outside this package) never touches
core files: registering the factory makes it available everywhere at once.

The registry is intentionally declarative-first: the canonical input is a
:class:`~repro.policies.spec.PolicySpec` (name + config kwargs), and
:func:`policy_spec_of` recovers the spec of a live factory from its
``describe()`` output, giving a full round trip
``PolicySpec -> factory -> describe() -> PolicySpec``.
"""

from __future__ import annotations

import functools
import inspect
import numbers
import types
import typing
from dataclasses import dataclass
from typing import Callable, Mapping, TypeVar

from ..baselines.base import KVSelectorFactory, config_parameters
from .spec import PolicySpec

__all__ = [
    "UnknownPolicyError",
    "RegisteredPolicy",
    "register_policy",
    "build_policy",
    "available_policies",
    "policy_names",
    "policy_spec_of",
    "policy_spec_from_description",
    "resolve_policy_spec",
]

_FactoryT = TypeVar("_FactoryT", bound=type)

# Description keys that are identity/runtime metadata, not config kwargs.
_NON_CONFIG_KEYS = ("name", "kv_residency")


class UnknownPolicyError(ValueError):
    """Raised for a policy name that no registered method answers to.

    The message lists every registered name so that a typo on the command
    line (``repro traffic-bench --policy typo``) is self-diagnosing.
    """

    def __init__(self, name: str) -> None:
        known = ", ".join(policy_names()) or "<none registered>"
        super().__init__(
            f"unknown policy {name!r}; registered policies: {known}"
        )
        self.name = name

    def __reduce__(self):
        # args holds the formatted message, not the constructor argument;
        # rebuild from the name so pickling (multiprocessing, pytest-xdist)
        # does not wrap the message a second time.
        return (UnknownPolicyError, (self.name,))


@dataclass(frozen=True)
class RegisteredPolicy:
    """One registry entry: the factory class plus how to configure it.

    Attributes
    ----------
    name:
        Public method name the entry answers to.
    factory_cls:
        The :class:`~repro.baselines.base.KVSelectorFactory` subclass.
    config_cls:
        Configuration class whose instance the factory takes as its single
        constructor argument; ``None`` for factories built without
        configuration (``full``, ``streaming_llm``, ``oracle``).
    summary:
        One-line description shown by ``repro list``.
    """

    name: str
    factory_cls: type
    config_cls: type | None
    summary: str

    def config_parameters(self) -> tuple[str, ...]:
        """Names of the configuration kwargs this policy accepts."""
        if self.config_cls is None:
            return ()
        return config_parameters(self.config_cls)

    def check(self, kwargs: Mapping[str, object]) -> None:
        """Raise :class:`ValueError` unless ``kwargs`` configure this policy.

        Every key must be a parameter of the config class, and every value
        must have that parameter's annotated type (an int passes as a
        float, a bool passes only as a bool; unannotated parameters take
        anything).  The message names the policy, the key, the expected
        type and the value.
        """
        if self.config_cls is None:
            if kwargs:
                raise ValueError(
                    f"policy {self.name!r} accepts no configuration, "
                    f"got {sorted(kwargs)}"
                )
            return
        accepted = self.config_parameters()
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise ValueError(
                f"unknown {self.name!r} configuration keys {unknown}; "
                f"accepted keys: {', '.join(accepted)}"
            )
        annotations = _parameter_types(self.config_cls)
        for key, value in kwargs.items():
            expected = annotations.get(key)
            if expected is not None and not _has_type(value, expected):
                raise ValueError(
                    f"policy {self.name!r} key {key!r} expects "
                    f"{_type_name(expected)}, got {value!r}"
                )

    def build(self, kwargs: dict[str, object]) -> "KVSelectorFactory":
        """Instantiate the factory from configuration kwargs (checked by :meth:`check`)."""
        self.check(kwargs)
        if self.config_cls is None:
            return self.factory_cls()
        return self.factory_cls(self.config_cls(**kwargs))


@functools.cache
def _parameter_types(config_cls: type) -> dict[str, object]:
    """The resolved annotations of a config class's constructor parameters.

    Empty when they do not resolve (a name imported only for type
    checkers): such a class's values go unchecked.
    """
    try:
        return typing.get_type_hints(config_cls.__init__)
    except NameError:
        return {}


def _has_type(value: object, expected: object) -> bool:
    """Whether ``value`` fits the annotation ``expected`` (see :meth:`RegisteredPolicy.check`)."""
    if typing.get_origin(expected) in (typing.Union, types.UnionType):
        return any(_has_type(value, option) for option in typing.get_args(expected))
    if expected is type(None):
        return value is None
    if expected is bool:
        return isinstance(value, bool)
    if expected is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if expected is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    if isinstance(expected, type):
        return isinstance(value, expected)
    return True  # an annotation this check does not model (Literal, generics)


def _type_name(expected: object) -> str:
    """``int``, ``int | None``: how an annotation reads in an error message."""
    if typing.get_origin(expected) in (typing.Union, types.UnionType):
        return " | ".join(_type_name(option) for option in typing.get_args(expected))
    if expected is type(None):
        return "None"
    return getattr(expected, "__name__", str(expected))


_REGISTRY: dict[str, RegisteredPolicy] = {}


def register_policy(
    name: str, config_cls: type | None = None, summary: str = ""
) -> Callable[[_FactoryT], _FactoryT]:
    """Class decorator registering a selector factory under ``name``.

    Parameters
    ----------
    name:
        Public policy name; must be unique across the process.
    config_cls:
        Configuration class the factory constructor takes (as its only
        argument); defaults to the factory's own ``config_cls`` attribute,
        so a factory that declares one need not repeat it here.
    summary:
        One-line description for ``repro list`` and the docs.

    Re-registering the *same* class under the same name is a no-op (module
    reloads); registering a different class under a taken name raises.
    """

    def decorator(factory_cls: _FactoryT) -> _FactoryT:
        existing = _REGISTRY.get(name)
        # Identity by (module, qualname) rather than the class object so a
        # module re-import (same class, new object) stays a no-op while a
        # different class — even one reusing the class name — is rejected.
        if existing is not None and (
            existing.factory_cls.__module__,
            existing.factory_cls.__qualname__,
        ) != (factory_cls.__module__, factory_cls.__qualname__):
            raise ValueError(
                f"policy name {name!r} is already registered to "
                f"{existing.factory_cls.__module__}."
                f"{existing.factory_cls.__qualname__}"
            )
        _REGISTRY[name] = RegisteredPolicy(
            name=name,
            factory_cls=factory_cls,
            config_cls=config_cls or factory_cls.config_cls,
            summary=summary or (inspect.getdoc(factory_cls) or "").split("\n")[0],
        )
        return factory_cls

    return decorator


def policy_names() -> tuple[str, ...]:
    """Sorted names of all registered policies."""
    return tuple(sorted(_REGISTRY))


def available_policies() -> dict[str, RegisteredPolicy]:
    """Registered policies keyed by name, in sorted-name order."""
    return {name: _REGISTRY[name] for name in policy_names()}


def resolve_policy_spec(policy: "PolicySpec | str") -> PolicySpec:
    """Normalise a policy argument into a :class:`PolicySpec`.

    Strings go through :meth:`PolicySpec.parse`, so both the bare name
    (``"quest"``) and the compact CLI form (``"quest:page_size=32"``) are
    accepted.
    """
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        return PolicySpec.parse(policy)
    raise TypeError(f"expected PolicySpec or str, got {type(policy).__name__}")


def build_policy(policy: "PolicySpec | str") -> "KVSelectorFactory":
    """Instantiate the selector factory a spec (or name string) describes.

    Raises
    ------
    UnknownPolicyError
        If the name is not registered (message lists the known names).
    ValueError
        If the kwargs do not match the policy's configuration class.
    """
    spec = resolve_policy_spec(policy)
    entry = _REGISTRY.get(spec.name)
    if entry is None:
        raise UnknownPolicyError(spec.name)
    return entry.build(dict(spec.kwargs))


def policy_spec_from_description(description: "dict | object") -> PolicySpec:
    """Spec from a ``describe()``-style mapping, metadata keys stripped.

    ``describe()`` output mixes the configuration kwargs with identity
    metadata (``name``, ``kv_residency``); this helper separates them so a
    description embedded in a report (e.g.
    :meth:`repro.serving.ServeReport.policy_descriptions`) rebuilds the
    policy directly through :func:`build_policy`.
    """
    data = dict(description)  # type: ignore[call-overload]
    try:
        name = data.pop("name")
    except KeyError:
        raise ValueError("policy description must contain a 'name' key") from None
    for key in _NON_CONFIG_KEYS:
        data.pop(key, None)
    return PolicySpec(name=str(name), kwargs=data)


def policy_spec_of(factory: "KVSelectorFactory") -> PolicySpec:
    """Recover the declarative spec of a live factory from its ``describe()``.

    :meth:`~repro.baselines.base.KVSelectorFactory.describe` lists every
    constructor parameter of the factory's config, so the returned spec
    rebuilds an equivalently configured factory through
    :func:`build_policy` — the registry round-trip the tests assert.
    """
    description = dict(factory.describe())
    description.setdefault("name", getattr(factory, "name", "abstract"))
    return policy_spec_from_description(description)
