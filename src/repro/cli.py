"""Command-line interface for running the reproduction experiments.

The experiment commands, their ``list`` lines and their flags (their
config's knob fields) are read from :data:`repro.experiments.EXPERIMENTS`.
A flag value a command's config refuses is a usage error (exit code 2).

Examples
--------
List the available experiments::

    python -m repro list

Run the performance-model experiments (fast, paper-scale)::

    python -m repro fig12
    python -m repro fig13
    python -m repro cache-study --scale 64

Run an accuracy experiment at a reduced context scale::

    python -m repro fig9 --scale 64 --samples 2
    python -m repro fig11 --scale 64
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from dataclasses import MISSING, fields, is_dataclass, replace

from .experiments import EXPERIMENTS
from .knobs import NONE_IF

__all__ = [
    "main", "build_parser", "add_dataclass_flags", "dataclass_from_args", "fleet_bench_config"
]

_SCALARS = {"int": int, "float": float, "bool": bool}


def _flags(item) -> list[str]:
    """Every spelling of a field's flag, the canonical one first."""
    canonical = item.metadata.get("flag", "--" + item.name.replace("_", "-"))
    return [canonical, *item.metadata.get("aliases", ())]


def _dest(item) -> str:
    return _flags(item)[0][2:].replace("-", "_")


def _shown(value: object) -> str:
    """A default value as the user would type it."""
    if isinstance(value, tuple):
        return " ".join(map(_shown, value))
    return value.to_cli() if hasattr(value, "to_cli") else str(value)


def _converter(kind, none_if):
    """argparse ``type``: parse ``kind``, mapping the disabling sentinel to None."""
    if none_if is None:
        return kind

    def convert(text: str):
        value = kind(text)
        return None if NONE_IF[none_if](value) else value

    convert.__name__ = kind.__name__  # argparse names the type in its error message
    return convert


def add_dataclass_flags(parser, cls, defaults=None, exclude=()) -> None:
    """Generate one ``--field-name`` flag per :func:`~repro.knobs.knob` of ``cls``.

    A field gets a flag when its ``metadata`` has a ``"help"`` entry (what
    :func:`~repro.knobs.knob` writes; its other hints are honoured too).
    The flag's type comes from the field's annotation (``int``, ``float``,
    ``bool`` → ``--x/--no-x``, ``tuple[T, ...]`` → repeatable, anything
    else a string) and its default from ``defaults`` (default ``cls()``),
    so no default is written twice.  A field *without* help whose default
    is itself a dataclass is descended into, which is how a bench config
    that holds an ``EngineSpec`` exposes every engine knob.  ``exclude``
    names fields (at any depth) that get no flag.
    """
    defaults = cls() if defaults is None else defaults
    for item in fields(cls):
        value = getattr(defaults, item.name)
        if item.name in exclude:
            continue
        if "help" not in item.metadata:
            if is_dataclass(value):
                add_dataclass_flags(parser, type(value), value, exclude)
            continue
        # A string under ``from __future__ import annotations``; else a class
        # (``int``) or an alias whose str() reads the same (``tuple[int, ...]``).
        annotation = item.type.__name__ if type(item.type) is type else str(item.type)
        repeated = annotation.startswith("tuple[")
        # "tuple[int, ...]" / "int | None" / "int" all name their scalar first.
        scalar = annotation.removeprefix("tuple[").split(",")[0].split("|")[0].strip()
        kind = _SCALARS.get(scalar, str)
        options = {
            "default": argparse.SUPPRESS,  # only flags actually passed reach the namespace
            "help": f"{item.metadata['help']} (default: {_shown(value)})",
        }
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = _converter(kind, item.metadata.get("none_if"))
            options["choices"] = item.metadata.get("choices")
            options["metavar"] = item.metadata.get("metavar")
            if repeated:
                options.update(nargs="+", action="extend")
        parser.add_argument(*_flags(item), **options)


def dataclass_from_args(cls, args: argparse.Namespace, defaults=None):
    """``cls`` built from its field defaults with every passed flag applied.

    The inverse of :func:`add_dataclass_flags`: held dataclasses are
    rebuilt the same way first, fields with no flag keep their default
    (``defaults``' value when given), and every config is constructed
    exactly once, from its finished parts — so a config that derives
    fields at construction (resolved policies, the prefill cap) derives
    them from what the command line said, as ``cls(part=...)`` written
    by hand does.
    """
    values = {}
    for item in fields(cls):
        if defaults is not None:
            value = getattr(defaults, item.name)
        elif item.default is not MISSING:
            value = item.default
        elif is_dataclass(item.default_factory):
            value = item.default_factory  # a held config's own class: built below, once
        else:
            value = item.default_factory()
        if "help" in item.metadata:
            if hasattr(args, _dest(item)):
                value = getattr(args, _dest(item))
                value = tuple(value) if isinstance(value, list) else value
        elif isinstance(value, type):
            value = dataclass_from_args(value, args)
        elif is_dataclass(value):
            value = dataclass_from_args(type(value), args, value)
        values[item.name] = value
    return cls(**values)


def _parse_failure_plan(args: argparse.Namespace):
    """Build the FailurePlan from --kill and/or --failure-* flags."""
    from .cluster import FailureEvent, FailurePlan

    events = []
    for text in args.kill or ():
        time_text, _, target_text = text.partition("@")
        try:
            if target_text.startswith("zone"):
                events.append(
                    FailureEvent(time_s=float(time_text), zone=int(target_text[4:]))
                )
            else:
                events.append(
                    FailureEvent(
                        time_s=float(time_text),
                        slot=int(target_text) if target_text else 0,
                    )
                )
        except ValueError as error:
            raise ValueError(
                f"malformed --kill {text!r}; expected TIME, TIME@SLOT or TIME@zoneZ"
            ) from error
    if args.failure_count > 0:
        seeded = FailurePlan.seeded(
            seed=args.failure_seed,
            num_failures=args.failure_count,
            horizon_s=args.failure_horizon,
        )
        events.extend(seeded.events)
    return FailurePlan(events=tuple(events), num_zones=args.failure_zones)


def fleet_bench_config(args: argparse.Namespace):
    """The ``TrafficBenchConfig`` a ``traffic-bench`` / ``cluster-bench`` line asks for.

    The command's default fleet (:func:`repro.traffic.bench.bench_fleet`)
    with every passed flag applied, the failure plan built from the
    ``--kill`` / ``--failure-*`` flags.
    """
    from .cluster import ClusterConfig
    from .traffic.bench import TrafficBenchConfig, WorkloadSpec, bench_fleet

    fleet = dataclass_from_args(ClusterConfig, args, bench_fleet(args.command))
    return TrafficBenchConfig(
        workload=dataclass_from_args(WorkloadSpec, args),
        fleet=replace(fleet, failures=_parse_failure_plan(args)),
    )


def _fleet_bench(args: argparse.Namespace) -> Callable[[], str]:
    from .traffic import format_traffic_report, run_traffic_bench

    config = fleet_bench_config(args)
    return lambda: _report(run_traffic_bench(config), args, format_traffic_report)


def _report(report, args: argparse.Namespace, format_table: Callable) -> str:
    return report.to_json() if args.json else format_table(report)


class _StaticReplicas(argparse.Action):
    """``--replicas N``: N static replicas, i.e. both provisioning bounds."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        namespace.min_replicas = namespace.max_replicas = values


def _capacity_bench(args: argparse.Namespace) -> Callable[[], str]:
    from .capacity import CapacityBenchConfig, format_capacity_report, run_capacity_bench

    config = dataclass_from_args(CapacityBenchConfig, args)
    if args.sweep:
        try:
            low, high, step = (int(text) for text in args.sweep.split(":"))
        except ValueError as error:
            raise ValueError(
                f"malformed --sweep {args.sweep!r}; expected MIN:MAX:STEP token counts"
            ) from error
        grid = replace(config.config, context_min=low, context_max=high, context_step=step)
        config = replace(config, config=grid)
    return lambda: _report(run_capacity_bench(config), args, format_capacity_report)


def _perf_bench(args: argparse.Namespace) -> Callable[[], str]:
    from .perf import format_perf_bench, run_perf_bench

    return lambda: format_perf_bench(run_perf_bench())


def _experiment(args: argparse.Namespace) -> Callable[[], str]:
    experiment = EXPERIMENTS.build(args.command)
    config = dataclass_from_args(experiment.config_cls, args, experiment.cli_defaults)
    return lambda: experiment.format(experiment.run(config))


# The bench commands: (description, prepare).  Like ``_experiment``,
# ``prepare(args)`` builds the command's config and returns the run, so
# ``main`` can tell a value the config refuses (a usage error) from a
# failure during the run.  ``build_parser`` registers their subparsers and
# ``list`` prints them after the experiments, so adding a command means one
# entry here plus its subparser setup.
_SERVING_COMMANDS = {
    "traffic-bench": (
        "open-loop traffic simulation: routing, replicas, SLO latency metrics",
        _fleet_bench,
    ),
    "cluster-bench": (
        "elastic cluster simulation: autoscaling, admission control, "
        "failure injection",
        _fleet_bench,
    ),
    "capacity-bench": (
        "sweep-to-failure capacity scenarios over GPU/host/SSD tier budgets",
        _capacity_bench,
    ),
    "perf-bench": (
        "deterministic hot-path op counters on pinned scenarios "
        "(the BENCH_hotpaths.json guard)",
        _perf_bench,
    ),
}


def _format_listing() -> str:
    """The ``repro list`` output: every subcommand plus every policy.

    Commands come from the experiment registry and the serving command
    table; policies come from the policy registry, so third-party selectors
    that registered themselves show up here automatically.
    """
    from .policies import available_policies

    lines = ["commands:"]
    commands = {
        **{experiment.name: experiment.summary for experiment in EXPERIMENTS},
        **{name: description for name, (description, _) in _SERVING_COMMANDS.items()},
        "list": "list all subcommands and registered compression policies",
    }
    for name, description in commands.items():
        lines.append(f"  {name:16s} {description}")
    lines.append("")
    lines.append("policies (use with --policy NAME[:KEY=VAL,...]):")
    for name, entry in available_policies().items():
        lines.append(f"  {name:16s} {entry.summary}")
    from .capacity import SCENARIOS
    from .cluster import ADMISSIONS, AUTOSCALERS
    from .specdec import DRAFTERS
    from .traffic import ARRIVALS, ROUTERS

    lines.append("")
    lines.append("traffic routers (use with traffic-bench --router NAME):")
    lines.append("  " + ", ".join(ROUTERS.names()))
    lines.append(
        "prefix cache (traffic-/cluster-bench --prefix-cache TOKENS "
        "[--prefix-block N]; EngineSpec prefix_cache_tokens/"
        "prefix_block_tokens/prefix_semantic_reuse):"
    )
    lines.append(
        "  per-replica radix cache of prompt-prefix KV; pair with "
        "--router prefix_affine"
    )
    lines.append(
        "capacity scenarios (capacity-bench --scenario NAME "
        "--tiers gpu=SIZE,host=SIZE,ssd=SIZE --sweep MIN:MAX:STEP):"
    )
    lines.append("  " + ", ".join(SCENARIOS.names()))
    lines.append("arrival processes (traffic-bench --arrivals NAME):")
    lines.append("  " + ", ".join(ARRIVALS.names()))
    lines.append("autoscalers (cluster-bench --autoscaler NAME[:KEY=VAL,...]):")
    lines.append("  " + ", ".join(AUTOSCALERS.names()))
    lines.append("admission policies (cluster-bench --admission NAME[:KEY=VAL,...]):")
    lines.append("  " + ", ".join(ADMISSIONS.names()))
    lines.append(
        "sequence state (traffic-/cluster-bench --slo-class-mix FRAC --preempt; "
        "cluster-bench --migrate-on-drain --checkpoint-interval S "
        "[--failure-zones N, --kill TIME@zoneZ]):"
    )
    lines.append(
        "  repro.seqstate checkpoints: SLO-class preemption, live KV "
        "migration off draining replicas, periodic-checkpoint failure recovery"
    )
    lines.append(
        "execution backends (traffic-/cluster-/capacity-bench "
        "--backend {serial,multiprocess} [--workers N]):"
    )
    lines.append(
        "  repro.execbackend replica workers: --workers N runs engines in N "
        "worker processes sharing read-only weights; reports byte-identical "
        "to serial, wall-clock scales with cores"
    )
    lines.append(
        "speculative decoding (traffic-/cluster-/capacity-bench --speculate K "
        "[--drafter NAME]; EngineSpec speculate_k/drafter):"
    )
    lines.append(
        "  repro.specdec draft-then-verify decoding; drafters: "
        + ", ".join(DRAFTERS.names())
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro`` CLI."""
    from . import capacity, traffic
    from .serving.bench import BENCH_SET_FIELDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClusterKV reproduction: regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser(
        "list", help="list all subcommands and registered compression policies"
    )
    for experiment in EXPERIMENTS:
        sub = subparsers.add_parser(experiment.name, help=experiment.summary)
        add_dataclass_flags(sub, experiment.config_cls, experiment.cli_defaults)

    def bench(command: str, cls, exclude, defaults=None) -> argparse.ArgumentParser:
        # Every flag that sets a config field is generated from that field,
        # except the fields the bench sets itself; only flags that are not a
        # field are written out below.
        sub = subparsers.add_parser(command, help=_SERVING_COMMANDS[command][0])
        add_dataclass_flags(sub, cls, defaults, exclude)
        return sub

    # traffic-bench and cluster-bench run one config and differ only in
    # their default fleet.
    fleet_benches = {
        command: bench(
            command,
            traffic.TrafficBenchConfig,
            BENCH_SET_FIELDS,
            traffic.TrafficBenchConfig(fleet=traffic.bench.bench_fleet(command)),
        )
        for command in traffic.bench.BENCH_FLEETS
    }
    capacity_bench = bench(
        "capacity-bench", capacity.CapacityBenchConfig, capacity.scenarios.PROBE_SET_FIELDS
    )
    subparsers.add_parser("perf-bench", help=_SERVING_COMMANDS["perf-bench"][0])
    fleet_benches["traffic-bench"].add_argument(
        "--num-replicas", "--replicas", type=int, action=_StaticReplicas,
        default=argparse.SUPPRESS, metavar="N",
        help="N static replicas: sets both --min-replicas and --max-replicas",
    )
    for sub in fleet_benches.values():
        sub.add_argument(
            "--kill", action="append", metavar="TIME[@SLOT|@zoneZ]",
            help="kill a replica at TIME seconds (optional live-replica slot), "
            "or with @zoneZ every replica of failure zone Z; repeatable",
        )
        sub.add_argument(
            "--failure-zones", type=int, default=0,
            help="number of correlated failure zones replicas stripe across "
            "(0 disables zone-targeted kills)",
        )
        sub.add_argument(
            "--failure-count", type=int, default=0,
            help="number of seeded random replica kills (0 disables)",
        )
        sub.add_argument(
            "--failure-seed", type=int, default=0, help="seed of the random kills"
        )
        sub.add_argument(
            "--failure-horizon", type=float, default=60.0,
            help="random kills are drawn uniform over [0, HORIZON) seconds",
        )
    capacity_bench.add_argument(
        "--sweep", type=str, default=None, metavar="MIN:MAX:STEP",
        help="context-length grid swept by the scenario, in prompt tokens "
        "(default: the config's context_min:context_max:context_step)",
    )
    for sub in (*fleet_benches.values(), capacity_bench):
        sub.add_argument(
            "--json", action="store_true",
            help="print the report as canonical JSON instead of a table",
        )
    for sub in subparsers.choices.values():
        sub.add_argument("--out", type=str, default=None, help="write output to a file")
        sub.set_defaults(usage_error=sub.error)  # "repro <command>: error: ..."
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        output = _format_listing()
    else:
        _, prepare = _SERVING_COMMANDS.get(args.command, (None, _experiment))
        try:
            run = prepare(args)
        except ValueError as error:
            args.usage_error(str(error))
        output = run()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
