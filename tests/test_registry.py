"""One contract for every name registry (:class:`repro.registry.Registry`).

Arrival processes, routers, autoscalers, admission policies, capacity
scenarios and drafters all register through one class, so they share one
duplicate rule, one unknown-name message and one way to resolve a spec.
"""

import pytest

from repro.capacity import SCENARIOS, OOMFinderScenario
from repro.cluster import ADMISSIONS, AUTOSCALERS, StaticAutoscaler
from repro.cluster.admission import AlwaysAdmit
from repro.registry import Registry
from repro.specdec import DRAFTERS, NGramDrafter
from repro.traffic import ARRIVALS, ROUTERS, JoinShortestQueueRouter, PoissonArrivals

# Every registry, keyed by its kind, with one built-in entry: its name and
# the class registered under it (each builds with no arguments).
REGISTRIES = {
    "arrival process": (ARRIVALS, "poisson", PoissonArrivals),
    "router": (ROUTERS, "jsq", JoinShortestQueueRouter),
    "autoscaler": (AUTOSCALERS, "static", StaticAutoscaler),
    "admission policy": (ADMISSIONS, "always", AlwaysAdmit),
    "capacity scenario": (SCENARIOS, "oom_finder", OOMFinderScenario),
    "drafter": (DRAFTERS, "ngram", NGramDrafter),
}
EVERY_REGISTRY = pytest.mark.parametrize("kind", sorted(REGISTRIES))
# The keywords each of those built-ins accepts, as an unknown key lists them.
ACCEPTED_KEYS = {
    "arrival process": "rate",
    "router": "<none>",
    "autoscaler": "<none>",
    "admission policy": "<none>",
    "capacity scenario": "config",
    "drafter": "max_ngram, min_ngram",
}


@EVERY_REGISTRY
def test_names_are_a_sorted_tuple(kind):
    registry, name, _ = REGISTRIES[kind]
    assert registry.kind == kind
    names = registry.names()
    assert isinstance(names, tuple) and names == tuple(sorted(names))
    assert name in registry and "no-such-entry" not in registry


@EVERY_REGISTRY
def test_unknown_name_lists_every_entry(kind):
    registry, _, _ = REGISTRIES[kind]
    with pytest.raises(ValueError, match=f"unknown {kind} 'no-such-entry'") as error:
        registry.build("no-such-entry")
    assert str(error.value).endswith("; registered: " + ", ".join(registry.names()))


@EVERY_REGISTRY
def test_different_class_under_a_taken_name_is_refused(kind):
    registry, name, cls = REGISTRIES[kind]
    before = registry.names()
    # Same bare class name as the built-in, defined in another module.
    imposter = type(cls.__name__, (cls,), {"__doc__": "Pretends to be the built-in."})
    with pytest.raises(ValueError, match=f"{kind} name '{name}' is already registered"):
        registry.register(name)(imposter)
    assert registry.names() == before
    assert type(registry.build(name)) is cls


@EVERY_REGISTRY
def test_same_class_registered_again_is_a_no_op(kind):
    registry, name, cls = REGISTRIES[kind]
    before = registry.names()
    assert registry.register(name)(cls) is cls
    # A module re-import makes a new class object with the same module and
    # qualified name: still the same class.
    reimported = type(
        cls.__name__, (cls,), {"__module__": cls.__module__, "__qualname__": cls.__qualname__}
    )
    try:
        registry.register(name)(reimported)
        assert registry.names() == before
    finally:
        registry.register(name)(cls)
    assert type(registry.build(name)) is cls


@EVERY_REGISTRY
def test_resolve_passes_instances_and_builds_spec_strings(kind):
    registry, name, cls = REGISTRIES[kind]
    instance = registry.build(name)
    assert registry.resolve(instance) is instance
    assert type(registry.resolve(name)) is cls
    with pytest.raises(ValueError, match=f"unknown {kind}"):
        registry.resolve("no-such-entry:x=1")
    with pytest.raises(TypeError, match=f"expected a {kind} or its spec string"):
        registry.resolve(3)


@EVERY_REGISTRY
def test_unknown_key_lists_the_accepted_ones(kind):
    registry, name, _ = REGISTRIES[kind]
    message = (
        f"unknown {name!r} configuration keys ['no_such_key']; "
        f"accepted keys: {ACCEPTED_KEYS[kind]}"
    )
    for attempt in (
        lambda: registry.build(name, no_such_key=1),
        lambda: registry.resolve(f"{name}:no_such_key=1"),
        lambda: registry.check_spec(f"{name}:no_such_key=1"),
    ):
        with pytest.raises(ValueError) as error:
            attempt()
        assert str(error.value) == message
    registry.check_spec(name)
    registry.check_spec(registry.build(name))


def test_register_names_the_class_and_builds_with_arguments():
    widgets = Registry("widget", object)
    with pytest.raises(ValueError, match="unknown widget 'box'; registered: <none registered>"):
        widgets.build("box")

    @widgets.register("box")
    class Box:
        def __init__(self, size, colour="red"):
            self.size, self.colour = size, colour

    assert Box.name == "box"
    box = widgets.build("box", 3, colour="blue")
    assert (box.size, box.colour) == (3, "blue")
