"""One declaration per knob: structural checks on the config surface.

Every engine knob is an :class:`~repro.api.EngineSpec` field, every fleet
knob a :class:`~repro.cluster.ClusterConfig` field (the one fleet config;
:func:`~repro.traffic.TrafficConfig` is its static-fleet preset), every
workload knob a :class:`~repro.traffic.WorkloadSpec` field; the bench
configs only *hold* those, and every bench CLI derives its flags from
them (``traffic-bench`` and ``cluster-bench`` from one
:class:`~repro.traffic.TrafficBenchConfig`, with different default fleets).  These tests fail when a knob is declared a second time, when a
bench CLI loses reach of an engine field, or when a default is copied
somewhere it can drift.
"""

import argparse
from dataclasses import dataclass, field, fields, replace

import pytest

from repro import capacity, cluster
from repro.api import EngineSpec
from repro.capacity import CapacityBenchConfig, CapacityScenarioConfig
from repro.cli import (
    _dest,
    add_dataclass_flags,
    build_parser,
    dataclass_from_args,
    fleet_bench_config,
    main,
)
from repro.cluster import ClusterConfig
from repro.memory import TierBudgets
from repro.model import GenerationConfig
from repro.policies import PolicySpec, UnknownPolicyError
from repro.serving import SchedulerConfig
from repro.serving.bench import BENCH_SET_FIELDS, serving_engine_spec
from repro.traffic import TrafficBenchConfig, TrafficConfig, WorkloadSpec
from repro.traffic.bench import BENCH_FLEETS, bench_fleet

# command -> (config class, the engine/fleet fields that bench sets itself and
# therefore exposes no flag for).  ``EngineSpec.policy`` is set by every bench
# (from its own --policy list) and carries no flag anywhere.
BENCHES = {
    "traffic-bench": (TrafficBenchConfig, BENCH_SET_FIELDS),
    "cluster-bench": (TrafficBenchConfig, BENCH_SET_FIELDS),
    "capacity-bench": (CapacityBenchConfig, capacity.scenarios.PROBE_SET_FIELDS),
}


def default_config(command: str):
    """The config a bench command runs when given no flag."""
    if command in BENCH_FLEETS:
        return TrafficBenchConfig(fleet=bench_fleet(command))
    return BENCHES[command][0]()


def config_from_args(command: str, args: argparse.Namespace):
    """The config a bench command line builds, as that command's runner does."""
    if command in BENCH_FLEETS:
        return fleet_bench_config(args)
    return dataclass_from_args(BENCHES[command][0], args)


def names(cls) -> set[str]:
    return {item.name for item in fields(cls)}


class TestOneDeclaration:
    @pytest.mark.parametrize(
        "holder",
        [
            WorkloadSpec,
            TrafficBenchConfig,
            CapacityScenarioConfig,
            CapacityBenchConfig,
        ],
    )
    def test_bench_configs_redeclare_no_engine_or_fleet_field(self, holder):
        # Holding a spec (as ``engine``) is the only link.  ``seed`` is the one
        # deliberate homonym: the workload/prompt seed (--seed) and
        # EngineSpec.seed, the sampling seed (--sampling-seed), are two values.
        declared = names(EngineSpec) | names(ClusterConfig)
        assert names(holder) & (declared - {"engine"}) <= {"seed"}

    def test_fleet_configs_declare_no_shared_field_twice(self):
        # One fleet config: a static fleet is a ClusterConfig preset, not a type.
        assert {
            "engine", "router", "clock", "arch", "context_scale", "slo", "workers"
        } <= names(ClusterConfig)
        static = TrafficConfig(num_replicas=3, router="jsq")
        assert type(static) is ClusterConfig
        assert static == ClusterConfig(min_replicas=3, max_replicas=3, router="jsq")
        assert names(TrafficBenchConfig) == {"workload", "fleet"}
        assert not hasattr(ClusterConfig, "traffic_config")

    def test_declared_field_count(self):
        configs = (
            EngineSpec, ClusterConfig, WorkloadSpec, TrafficBenchConfig,
            CapacityScenarioConfig,
        )
        declared = sum(
            len(config.__dict__.get("__annotations__", {})) for config in configs
        )
        assert declared <= 59  # 117 before the configs became composed

    def test_cluster_simulator_runs_on_its_own_config(self):
        config = ClusterConfig(engine=EngineSpec(model="tiny"), min_replicas=2, max_replicas=3)
        assert config.num_replicas == 2  # sizes the default worker pool
        with cluster.ClusterSimulator(config) as simulator:
            assert simulator.config is config


class TestGeneratedFlags:
    @pytest.mark.parametrize("command", BENCHES)
    def test_every_engine_field_is_reachable(self, command):
        _, bench_sets = BENCHES[command]
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        dests = {action.dest for action in sub._actions}
        for item in fields(EngineSpec):
            if item.name != "policy" and item.name not in bench_sets:
                assert _dest(item) in dests, item.name
        assert not set(bench_sets) & dests
        assert "help" not in EngineSpec.__dataclass_fields__["policy"].metadata

    @pytest.mark.parametrize("command", BENCHES)
    def test_no_flags_rebuilds_the_default_instance(self, command):
        args = build_parser().parse_args([command])
        assert config_from_args(command, args) == default_config(command)

    @pytest.mark.parametrize("command", BENCHES)
    def test_new_engine_knobs_reach_the_engine(self, command):
        args = build_parser().parse_args(
            [command, "--kv-capacity-tokens", "4096", "--sampling-seed", "9",
             "--num-sink-tokens", "4", "--no-greedy", "--seed", "5"]
        )
        config = config_from_args(command, args)
        holder = config.config if command == "capacity-bench" else config
        engine = holder.fleet.engine
        assert engine.kv_capacity_tokens == 4096
        assert (engine.seed, engine.num_sink_tokens, engine.greedy) == (9, 4, False)
        workload = holder.workload if hasattr(holder, "workload") else holder
        assert workload.seed == 5  # --seed stays the workload/prompt seed

    def test_cli_and_constructor_derive_the_same_config(self):
        # Derived fields (resolved policies, prefill cap) come from what the
        # command line said, not from the default instance's values.
        engine = serving_engine_spec(max_new_tokens=48, num_sink_tokens=4, max_batch_size=16)
        argv = ["--num-sink-tokens", "4", "--batch", "16"]
        for command in BENCH_FLEETS:
            built = config_from_args(command, build_parser().parse_args([command, *argv]))
            fleet = replace(bench_fleet(command), engine=engine)
            assert built == TrafficBenchConfig(fleet=fleet)
            assert built.fleet.engine.policy.kwargs["num_sink_tokens"] == 4
            assert built.fleet.engine.max_prefills_per_step == 16
        args = build_parser().parse_args(["capacity-bench", "--num-sink-tokens", "4"])
        probed = dataclass_from_args(CapacityBenchConfig, args).config
        assert probed == CapacityScenarioConfig(
            fleet=replace(probed.fleet, engine=replace(probed.engine, num_sink_tokens=4))
        )
        assert probed.policies[0].kwargs["num_sink_tokens"] == 4

    def test_capacity_probes_pin_router_and_clock(self):
        sub = build_parser()._subparsers._group_actions[0].choices["capacity-bench"]
        assert not {"router", "clock"} & {action.dest for action in sub._actions}
        fleet = TrafficConfig(engine=EngineSpec(model="tiny"), router="jsq", clock="wall")
        config = CapacityScenarioConfig(fleet=fleet)
        probe = config.traffic_config(config.policies[0], 2)
        assert (probe.router, probe.clock, probe.num_replicas) == ("round_robin", "perfmodel", 1)

    def test_capacity_bench_reaches_the_newer_knobs(self):
        args = build_parser().parse_args(
            ["capacity-bench", "--prefill-chunk", "32", "--prefix-cache", "512",
             "--speculate", "2", "--concurrency", "1", "--concurrency", "4"]
        )
        config = dataclass_from_args(CapacityBenchConfig, args).config
        engine = config.traffic_config(config.policies[0], 4).engine
        assert engine.prefill_chunk_tokens == 32
        assert engine.prefix_cache_tokens == 512
        assert engine.speculate_k == 2
        # ...while the swept fields are the probe's, not the command line's.
        assert (engine.max_batch_size, engine.max_prefills_per_step) == (4, 4)
        assert config.concurrencies == (1, 4)

    def test_sentinels_parse_to_none(self):
        args = build_parser().parse_args(
            ["cluster-bench", "--budget", "0", "--slo-tpot", "0", "--workers", "0",
             "--prefix-cache", "-1", "--checkpoint-interval", "0", "--slo-class-mix", "-1"]
        )
        config = config_from_args("cluster-bench", args)
        assert config.fleet.engine.budget is None
        assert config.fleet.engine.prefix_cache_tokens is None
        assert config.fleet.slo.tpot_s is None
        assert config.fleet.workers is None
        assert config.fleet.checkpoint_interval_s is None
        assert config.workload.slo_class_mix is None
        zero = build_parser().parse_args(["traffic-bench", "--slo-class-mix", "0"])
        assert dataclass_from_args(TrafficBenchConfig, zero).workload.slo_class_mix == 0.0

    def test_adding_a_knob_needs_no_cli_code(self):
        @dataclass(frozen=True)
        class FutureSpec(EngineSpec):
            new_knob: int = field(default=3, metadata={"help": "a knob from the future"})
            new_list: tuple[int, ...] = field(default=(1,), metadata={"help": "repeatable"})

        parser = argparse.ArgumentParser()
        add_dataclass_flags(parser, FutureSpec)
        assert dataclass_from_args(FutureSpec, parser.parse_args([])) == FutureSpec()
        argv = ["--new-knob", "5", "--new-list", "2", "--new-list", "3"]
        spec = dataclass_from_args(FutureSpec, parser.parse_args(argv))
        assert spec == FutureSpec(new_knob=5, new_list=(2, 3))
        # ...and the derived slices keep working on the subclass.
        assert spec.scheduler_config() == SchedulerConfig()


class TestDerivedSlices:
    def test_slices_equal_the_hand_written_ones(self):
        spec = EngineSpec(
            model="tiny", policy="quest:page_size=8", budget=24, max_new_tokens=7,
            num_full_layers=1, num_sink_tokens=4, greedy=False, temperature=0.7,
            seed=11, max_batch_size=3, max_prefills_per_step=5,
            kv_budget_bytes=1 << 20, prefill_chunk_tokens=16, prefix_cache_tokens=64,
            prefix_block_tokens=8, prefix_semantic_reuse=False, kv_capacity_tokens=99,
            preemption=True, tiers="gpu=1MiB,host=2MiB,ssd=4MiB",
            backend="multiprocess", speculate_k=2, drafter="ngram",
        )
        default = EngineSpec()
        off_default = [
            item.name for item in fields(spec)
            if getattr(spec, item.name) != getattr(default, item.name)
        ]
        assert set(off_default) == names(EngineSpec) - {"drafter"}  # one drafter exists
        assert spec.generation_config() == GenerationConfig(
            budget=24, num_full_layers=1, num_sink_tokens=4, max_new_tokens=7,
            greedy=False, temperature=0.7, seed=11,
        )
        assert spec.scheduler_config() == SchedulerConfig(
            max_batch_size=3, max_prefills_per_step=5, kv_budget_bytes=1 << 20,
            prefill_chunk_tokens=16, prefix_cache_tokens=64, prefix_block_tokens=8,
            prefix_semantic_reuse=False, preemption=True,
        )
        assert EngineSpec().generation_config() == GenerationConfig()
        assert isinstance(spec.tiers, TierBudgets)

    def test_every_slice_field_has_an_engine_field(self):
        assert names(SchedulerConfig) <= names(EngineSpec)
        recording = {"record_true_scores", "record_attention_trace"}
        assert names(GenerationConfig) - recording <= names(EngineSpec)


class TestStringPolicySpecs:
    """String specs with kwargs used to be mangled into an unknown policy name."""

    def test_traffic_bench_config(self):
        config = TrafficBenchConfig(
            workload=WorkloadSpec(policies=("clusterkv:tokens_per_cluster=16", "full"))
        )
        tuned, full = config.workload.policies
        assert tuned == PolicySpec("clusterkv", {"tokens_per_cluster": 16})
        assert full == PolicySpec("full")
        assert config.fleet.engine.policy == tuned

    def test_capacity_scenario_config(self):
        config = CapacityScenarioConfig(policies=("quest:page_size=8", " clusterkv "))
        assert config.policies[0] == PolicySpec("quest", {"page_size": 8})
        assert config.policies[1].kwargs["tokens_per_cluster"] == 32  # serving-tuned

    def test_unknown_names_still_fail_loudly(self):
        config = TrafficBenchConfig(workload=WorkloadSpec(policies=("no_such_policy",)))
        with pytest.raises(UnknownPolicyError):
            config.fleet.engine.build_policy()

    def test_cli_policy_path(self, capsys):
        argv = [
            "traffic-bench", "--policy", "clusterkv:tokens_per_cluster=16",
            "--requests", "2", "--model", "tiny", "--prompt-len-min", "16",
            "--prompt-len-max", "24", "--new-tokens", "4", "--budget", "16", "--json",
        ]
        assert main(argv) == 0
        assert '"policy": "clusterkv"' in capsys.readouterr().out
        args = build_parser().parse_args(argv)
        config = dataclass_from_args(TrafficBenchConfig, args)
        assert config.workload.policies == (
            PolicySpec("clusterkv", {"tokens_per_cluster": 16}),
        )
