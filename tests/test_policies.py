"""Tests of the policy registry and the declarative PolicySpec.

Load-bearing guarantees:

* every built-in selector self-registers and builds through the registry;
* ``PolicySpec -> factory -> describe() -> PolicySpec`` round-trips with
  the *full* configuration (reproducibility of reports);
* unknown names and bad configuration keys fail with self-diagnosing
  messages listing what is known/accepted;
* third-party selectors register without touching core files.
"""

import json

import numpy as np
import pytest

from repro.baselines import (
    FullKVSelector,
    InfiniGenSelector,
    OracleTopKSelector,
    QuestConfig,
    QuestSelector,
    StreamingLLMSelector,
)
from repro.baselines.base import KVSelectorFactory
from repro.baselines.full import FullKVLayerState
from repro.core import ClusterKVSelector
from repro.experiments import ContextScale, build_selector, build_selector_spec
from repro.memory import TierKind
from repro.policies import (
    PolicySpec,
    UnknownPolicyError,
    available_policies,
    build_policy,
    policy_names,
    policy_spec_from_description,
    policy_spec_of,
    register_policy,
    resolve_policy_spec,
)

BUILTIN_POLICIES = (
    "clusterkv",
    "full",
    "h2o",
    "infinigen",
    "oracle",
    "quest",
    "streaming_llm",
)


class TestPolicySpec:
    def test_parse_bare_name(self):
        spec = PolicySpec.parse("quest")
        assert spec.name == "quest"
        assert dict(spec.kwargs) == {}

    def test_parse_with_kwargs_and_coercion(self):
        spec = PolicySpec.parse(
            "clusterkv:tokens_per_cluster=32,distance_metric=cosine,"
            "max_clusters=none,trim_policy=order"
        )
        assert spec.kwargs["tokens_per_cluster"] == 32
        assert spec.kwargs["distance_metric"] == "cosine"
        assert spec.kwargs["max_clusters"] is None

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            PolicySpec.parse("quest:page_size")
        with pytest.raises(ValueError):
            PolicySpec.parse("")

    def test_cli_round_trip(self):
        spec = PolicySpec("quest", {"page_size": 32, "include_last_page": False})
        assert PolicySpec.parse(spec.to_cli()) == spec

    def test_to_cli_refuses_unrepresentable_values(self):
        """Values the CLI form would corrupt raise instead (JSON still works)."""
        for bad in ({"label": "none"}, {"tag": "16"}, {"s": "p,q"}, {"s": "a=b"}):
            spec = PolicySpec("x", bad)
            with pytest.raises(ValueError, match="to_json"):
                spec.to_cli()
            assert PolicySpec.from_json(spec.to_json()) == spec

    def test_dict_and_json_round_trip(self):
        spec = PolicySpec("infinigen", {"partial_ratio": 0.5, "seed": 3})
        assert PolicySpec.from_dict(spec.to_dict()) == spec
        assert PolicySpec.from_json(spec.to_json()) == spec

    def test_from_dict_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            PolicySpec.from_dict({"page_size": 16})

    def test_kwargs_are_read_only(self):
        spec = PolicySpec("quest", {"page_size": 16})
        with pytest.raises(TypeError):
            spec.kwargs["page_size"] = 32  # type: ignore[index]

    def test_specs_pickle_and_deepcopy(self):
        """Specs survive pickle and deepcopy despite the proxy kwargs."""
        import copy
        import pickle

        spec = PolicySpec("quest", {"page_size": 8, "include_last_page": False})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert copy.deepcopy(spec) == spec
        assert copy.copy(spec) == spec

    def test_specs_are_hashable(self):
        """Specs work as set members / dict keys despite the proxy kwargs."""
        a = PolicySpec("quest", {"page_size": 16})
        b = PolicySpec("quest", {"page_size": 16})
        c = PolicySpec("quest", {"page_size": 32})
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}
        assert {a: 1}[b] == 1

    def test_specs_with_unhashable_kwargs_are_hashable(self):
        """JSON-sourced list/dict values must not break set membership."""
        a = PolicySpec.from_dict({"name": "x", "dims": [1, 2], "m": {"p": 1, "q": 2}})
        b = PolicySpec.from_dict({"name": "x", "m": {"q": 2, "p": 1}, "dims": [1, 2]})
        assert a == b
        assert hash(a) == hash(b)
        assert {a, b} == {a}

    def test_resolve_policy_spec(self):
        spec = PolicySpec("full")
        assert resolve_policy_spec(spec) is spec
        assert resolve_policy_spec("full") == spec
        with pytest.raises(TypeError):
            resolve_policy_spec(42)  # type: ignore[arg-type]


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(BUILTIN_POLICIES) <= set(policy_names())

    def test_build_by_name_returns_expected_types(self):
        assert isinstance(build_policy("full"), FullKVSelector)
        assert isinstance(build_policy("clusterkv"), ClusterKVSelector)
        assert isinstance(build_policy("quest"), QuestSelector)
        assert isinstance(build_policy("infinigen"), InfiniGenSelector)

    def test_build_applies_kwargs(self):
        factory = build_policy("quest:page_size=8,include_last_page=false")
        assert factory.config.page_size == 8
        assert factory.config.include_last_page is False

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            build_policy("typo")
        message = str(excinfo.value)
        for name in BUILTIN_POLICIES:
            assert name in message

    def test_unknown_policy_error_pickles_cleanly(self):
        """Crossing a process boundary must not wrap the message twice."""
        import pickle

        error = UnknownPolicyError("typo")
        restored = pickle.loads(pickle.dumps(error))
        assert restored.name == "typo"
        assert str(restored) == str(error)

    def test_bad_kwargs_list_accepted_keys(self):
        with pytest.raises(ValueError, match="page_size"):
            build_policy("quest:paeg_size=8")

    def test_configless_policy_rejects_kwargs(self):
        with pytest.raises(ValueError, match="accepts no configuration"):
            build_policy("full:budget=3")

    def test_summaries_available_for_listing(self):
        policies = available_policies()
        for name in BUILTIN_POLICIES:
            assert policies[name].summary

    @pytest.mark.parametrize("name", BUILTIN_POLICIES)
    def test_spec_factory_describe_round_trip(self, name):
        """PolicySpec -> factory -> describe() -> PolicySpec is lossless."""
        spec = build_selector_spec(name, ContextScale(64))
        factory = build_policy(spec)
        recovered = policy_spec_of(factory)
        assert recovered.name == name
        rebuilt = build_policy(recovered)
        assert type(rebuilt) is type(factory)
        # The describe() of the rebuilt factory matches exactly — the spec
        # carries the *full* configuration.
        assert rebuilt.describe() == factory.describe()
        # And a second round trip is a fixed point.
        assert policy_spec_of(rebuilt) == recovered

    @pytest.mark.parametrize("name", BUILTIN_POLICIES)
    def test_description_rebuilds_policy_directly(self, name):
        """describe() output feeds build_policy via the public helper."""
        factory = build_policy(name)
        rebuilt = build_policy(policy_spec_from_description(factory.describe()))
        assert rebuilt.describe() == factory.describe()

    def test_spec_of_registered_factory_ignores_incomplete_describe(self):
        """policy_spec_of recovers the config of a factory keeping the base describe()."""

        class SparseConfig:
            """Config whose selector never overrides describe()."""

            def __init__(self, x: int = 1) -> None:
                self.x = x

        @register_policy("test_sparse", config_cls=SparseConfig, summary="toy")
        class SparseSelector(KVSelectorFactory):
            """Keeps the base describe(); its config class is registered by argument."""

            name = "test_sparse"

            def __init__(self, config: SparseConfig | None = None) -> None:
                self.config = config or SparseConfig()

            def create_layer_state(self, *args):
                """Unused."""
                raise NotImplementedError

        try:
            spec = policy_spec_of(SparseSelector(SparseConfig(x=5)))
            assert dict(spec.kwargs) == {"x": 5}
            assert build_policy(spec).config.x == 5
        finally:
            from repro.policies.registry import _REGISTRY

            _REGISTRY.pop("test_sparse", None)

    def test_description_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            policy_spec_from_description({"page_size": 16})

    def test_describe_includes_full_config(self):
        description = ClusterKVSelector().describe()
        for key in (
            "tokens_per_cluster",
            "decode_window",
            "decode_clusters",
            "num_sink_tokens",
            "distance_metric",
            "max_kmeans_iters",
            "kmeans_seed",
            "cache_history",
            "trim_policy",
            "score_metric",
        ):
            assert key in description
        infinigen = InfiniGenSelector().describe()
        for key in ("partial_ratio", "min_partial_dim", "speculation_noise", "seed"):
            assert key in infinigen
        quest = QuestSelector().describe()
        assert "page_size" in quest and "include_last_page" in quest
        h2o = build_policy("h2o").describe()
        assert "recent_ratio" in h2o

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy("quest")
            class ImposterSelector(KVSelectorFactory):
                """Pretends to be Quest."""

                name = "quest"

                def create_layer_state(self, *args):
                    """Unused."""
                    raise NotImplementedError

    def test_same_class_name_from_other_module_rejected(self):
        """A foreign class reusing the built-in's class name cannot take over."""
        with pytest.raises(ValueError, match="already registered"):
            # Same bare name as the built-in factory, different module:
            # still an impostor, must still be rejected.
            imposter = type(
                "QuestSelector",
                (KVSelectorFactory,),
                {"__doc__": "Pretends harder to be Quest.", "name": "quest"},
            )
            register_policy("quest")(imposter)
        # The real entry is untouched.
        assert isinstance(build_policy("quest:page_size=16"), QuestSelector)


# What every built-in policy describes, default and configured, as the
# JSON reports, checkpoint signatures and prefix-cache keys embed it.
DESCRIPTIONS = {
    "full": '{"name": "full", "kv_residency": "gpu"}',
    "streaming_llm": '{"name": "streaming_llm", "kv_residency": "gpu"}',
    "oracle": '{"name": "oracle", "kv_residency": "gpu"}',
    "quest": '{"name": "quest", "kv_residency": "gpu", "page_size": 16, '
    '"include_last_page": true}',
    "quest:page_size=32,include_last_page=false": '{"name": "quest", '
    '"kv_residency": "gpu", "page_size": 32, "include_last_page": false}',
    "h2o": '{"name": "h2o", "kv_residency": "gpu", "recent_ratio": 0.5}',
    "h2o:recent_ratio=0.25": '{"name": "h2o", "kv_residency": "gpu", "recent_ratio": 0.25}',
    "infinigen": '{"name": "infinigen", "kv_residency": "cpu", "partial_ratio": 0.25, '
    '"min_partial_dim": 4, "speculation_noise": 0.6, "seed": 0}',
    "infinigen:partial_ratio=0.5,min_partial_dim=8,speculation_noise=0,seed=3": '{"name": '
    '"infinigen", "kv_residency": "cpu", "partial_ratio": 0.5, "min_partial_dim": 8, '
    '"speculation_noise": 0, "seed": 3}',
    "clusterkv": '{"name": "clusterkv", "kv_residency": "cpu", "tokens_per_cluster": 80, '
    '"min_clusters": 1, "max_clusters": null, "decode_window": 320, "decode_clusters": 4, '
    '"num_sink_tokens": 16, "distance_metric": "cosine", "max_kmeans_iters": 20, '
    '"kmeans_seed": 0, "cache_history": 1, "trim_policy": "order", "score_metric": "ip", '
    '"prefill_segment_tokens": null}',
    "clusterkv:prefill_segment_tokens=256,trim_policy=centroid,max_clusters=64,"
    "cache_history=2": '{"name": "clusterkv", "kv_residency": "cpu", '
    '"tokens_per_cluster": 80, "min_clusters": 1, "max_clusters": 64, "decode_window": 320, '
    '"decode_clusters": 4, "num_sink_tokens": 16, "distance_metric": "cosine", '
    '"max_kmeans_iters": 20, "kmeans_seed": 0, "cache_history": 2, '
    '"trim_policy": "centroid", "score_metric": "ip", "prefill_segment_tokens": 256}',
}


class TestDeclaredPolicies:
    """Policies declared by class attributes describe their full configuration."""

    def test_every_builtin_is_pinned(self):
        assert {spec.split(":")[0] for spec in DESCRIPTIONS} == set(BUILTIN_POLICIES)

    @pytest.mark.parametrize("spec", sorted(DESCRIPTIONS))
    def test_describe_is_pinned_and_round_trips(self, spec):
        factory = build_policy(spec)
        assert json.dumps(factory.describe()) == DESCRIPTIONS[spec]
        recovered = policy_spec_of(factory)
        assert list(recovered.kwargs.items()) == list(factory.describe().items())[2:]
        assert build_policy(recovered).describe() == factory.describe()

    @pytest.mark.parametrize(
        "factory_cls", [FullKVSelector, StreamingLLMSelector, OracleTopKSelector]
    )
    def test_configless_policy_rejects_a_config(self, factory_cls):
        with pytest.raises(TypeError):
            factory_cls(QuestConfig())

    def test_undeclared_state_raises_clearly(self):
        with pytest.raises(NotImplementedError, match="state_cls"):
            KVSelectorFactory().create_layer_state(0, 1, 4, 0)

    def test_declaration_only_policy(self):
        """Three class attributes are a complete policy."""

        class StrideConfig:
            """Config of the declaration-only test policy."""

            def __init__(self, stride: int = 2, offset: int = 0) -> None:
                self.stride = stride
                self.offset = offset

        @register_policy("test_declared", summary="toy: declared, no methods")
        class DeclaredSelector(KVSelectorFactory):
            """Declares itself and writes no method."""

            name = "test_declared"
            config_cls = StrideConfig
            state_cls = FullKVLayerState

        try:
            assert available_policies()["test_declared"].config_parameters() == (
                "stride",
                "offset",
            )
            factory = build_policy("test_declared:stride=4")
            assert type(factory) is DeclaredSelector
            assert factory.describe() == {
                "name": "test_declared",
                "kv_residency": "gpu",
                "stride": 4,
                "offset": 0,
            }
            rebuilt = build_policy(policy_spec_of(factory))
            assert rebuilt.describe() == factory.describe()
            state = factory.create_layer_state(3, 2, 8, 5)
            assert type(state) is FullKVLayerState
            assert (state.layer_idx, state.n_kv_heads, state.head_dim) == (3, 2, 8)
            assert state.config is factory.config and state.num_sink_tokens == 5
        finally:
            from repro.policies.registry import _REGISTRY

            _REGISTRY.pop("test_declared", None)


class TestThirdPartyRegistration:
    def test_external_selector_plugs_in_everywhere(self):
        """A selector registered outside core files works by name."""

        class EveryOtherConfig:
            """Config of the toy third-party selector."""

            def __init__(self, stride: int = 2) -> None:
                self.stride = stride

        @register_policy(
            "test_every_other",
            config_cls=EveryOtherConfig,
            summary="toy: select every stride-th token",
        )
        class EveryOtherSelector(KVSelectorFactory):
            """Keeps every ``stride``-th token — accuracy be damned."""

            name = "test_every_other"
            kv_residency = TierKind.GPU

            def __init__(self, config: EveryOtherConfig | None = None) -> None:
                self.config = config or EveryOtherConfig()

            def create_layer_state(
                self, layer_idx, n_kv_heads, head_dim, num_sink_tokens
            ):
                """Reuse the full-KV state (selection itself is not under test)."""
                return FullKVLayerState(layer_idx, n_kv_heads, head_dim)

            def describe(self):
                """Full config, like every registered policy."""
                description = super().describe()
                description.update(stride=self.config.stride)
                return description

        try:
            assert "test_every_other" in policy_names()
            factory = build_policy("test_every_other:stride=4")
            assert factory.config.stride == 4
            # Registry round-trip holds for third-party policies too.
            assert build_policy(policy_spec_of(factory)).config.stride == 4
            # And experiments resolve it through the same path.
            assert type(build_selector("test_every_other")) is EveryOtherSelector
        finally:
            # Keep the process-global registry clean for other tests.
            from repro.policies.registry import _REGISTRY

            _REGISTRY.pop("test_every_other", None)


class TestExperimentMethods:
    def test_build_selector_unknown_name_is_self_diagnosing(self):
        with pytest.raises(ValueError, match="clusterkv"):
            build_selector("magic")

    def test_build_selector_spec_scales_clusterkv(self):
        spec = build_selector_spec("clusterkv", ContextScale(64))
        assert spec.kwargs["tokens_per_cluster"] >= 4
        factory = build_policy(spec)
        assert factory.config.tokens_per_cluster == spec.kwargs["tokens_per_cluster"]

    def test_build_selector_quest_page_size_not_scaled(self):
        factory = build_selector("quest", ContextScale(32))
        assert factory.config.page_size == 16
