"""Command-line interface for running the reproduction experiments.

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
import json
import sys
from collections.abc import Sequence
from dataclasses import MISSING, fields, is_dataclass, replace

from . import experiments as exp
from .knobs import NONE_IF

__all__ = ["main", "build_parser", "add_dataclass_flags", "dataclass_from_args"]

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


def _parse_policy_json(text: str) -> tuple:
    """The policy specs of one ``--policy-json`` value (an object or a list)."""
    from .policies import PolicySpec

    payload = json.loads(text)
    specs = []
    for item in payload if isinstance(payload, list) else [payload]:
        if isinstance(item, str):
            specs.append(item)
        elif isinstance(item, dict):
            specs.append(PolicySpec.from_dict(item))
        else:
            raise ValueError(
                "--policy-json entries must be policy objects like "
                '{"name": "quest", "page_size": 32} or name strings, '
                f"got {item!r}"
            )
    return tuple(specs)


def _run_serve_bench(args: argparse.Namespace) -> str:
    from . import serving

    config = dataclass_from_args(serving.ServeBenchConfig, args)
    if args.policy_json:
        policies = (config.policies or ()) + _parse_policy_json(args.policy_json)
        config = replace(config, policies=policies)
    if args.mixed:
        return serving.format_mixed_serve_bench(serving.run_mixed_serve_bench(config))
    return serving.format_serve_bench(serving.run_serve_bench(config))


def _run_traffic_bench(args: argparse.Namespace) -> str:
    from .traffic import TrafficBenchConfig, format_traffic_report, run_traffic_bench

    report = run_traffic_bench(dataclass_from_args(TrafficBenchConfig, args))
    return report.to_json() if args.json else format_traffic_report(report)


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


def _run_cluster_bench(args: argparse.Namespace) -> str:
    from .cluster import ClusterBenchConfig, format_cluster_report, run_cluster_bench

    config = dataclass_from_args(ClusterBenchConfig, args)
    config = replace(
        config, fleet=replace(config.fleet, failures=_parse_failure_plan(args))
    )
    report = run_cluster_bench(config)
    return report.to_json() if args.json else format_cluster_report(report)


def _run_capacity_bench(args: argparse.Namespace) -> str:
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
    report = run_capacity_bench(config)
    return report.to_json() if args.json else format_capacity_report(report)


def _run_perf_bench(args: argparse.Namespace) -> str:
    from .perf import format_perf_bench, run_perf_bench

    return format_perf_bench(run_perf_bench())


def _run_fig3(args: argparse.Namespace) -> str:
    result = exp.run_fig3(exp.Fig3Config(scale=exp.ContextScale(args.scale)))
    return exp.format_fig3(result)


def _run_fig9(args: argparse.Namespace) -> str:
    config = exp.Fig9Config(
        scale=exp.ContextScale(args.scale), num_samples=args.samples
    )
    result = exp.run_table1(config)
    return exp.format_fig9(result.fig9) + "\n\n" + exp.format_table1(result)


def _run_fig10(args: argparse.Namespace) -> str:
    config = exp.Fig10Config(
        scale=exp.ContextScale(args.scale), num_samples=args.samples
    )
    return exp.format_fig10(exp.run_fig10(config))


def _run_fig11(args: argparse.Namespace) -> str:
    config = exp.Fig11Config(scale=exp.ContextScale(args.scale))
    methods = exp.run_fig11_methods(config)
    ablation = exp.run_fig11_ablation(config)
    return (
        exp.format_fig11(methods, "[Fig. 11a] recall rate by method")
        + "\n\n"
        + exp.format_fig11(ablation, "[Fig. 11b] ClusterKV ablation")
    )


def _run_fig12(args: argparse.Namespace) -> str:
    return exp.format_fig12(exp.run_fig12(exp.Fig12Config()))


def _run_fig13(args: argparse.Namespace) -> str:
    config = exp.Fig13Config()
    return exp.format_fig13(exp.run_fig13_infinigen(config), exp.run_fig13_quest(config))


def _run_cache_study(args: argparse.Namespace) -> str:
    config = exp.CacheStudyConfig(scale=exp.ContextScale(args.scale))
    return exp.format_cache_study(exp.run_cache_study(config))


def _run_design_ablation(args: argparse.Namespace) -> str:
    config = exp.DesignAblationConfig(
        scale=exp.ContextScale(args.scale), num_samples=args.samples
    )
    return exp.format_design_ablation(exp.run_design_ablation(config))


_EXPERIMENTS = {
    "fig3": ("Fig. 3 motivation analyses", _run_fig3),
    "fig9": ("Fig. 9 / Table I LongBench-analogue accuracy", _run_fig9),
    "fig10": ("Fig. 10 language-modelling perplexity", _run_fig10),
    "fig11": ("Fig. 11 recall rate and ablations", _run_fig11),
    "fig12": ("Fig. 12 latency vs. full KV (perf model)", _run_fig12),
    "fig13": ("Fig. 13 vs. Quest / InfiniGen (perf model)", _run_fig13),
    "cache-study": ("Sec. V-C cluster-cache effectiveness", _run_cache_study),
    "design-ablation": ("ClusterKV design-choice ablation", _run_design_ablation),
}

# Commands with their own argument sets (not the shared experiment flags).
# ``build_parser`` registers their subparsers; ``main`` dispatches and
# ``list`` prints both registries, so adding a command means one entry here
# plus its subparser setup.
_SERVING_COMMANDS = {
    "serve-bench": (
        "continuous-batching serving throughput vs. sequential runs",
        _run_serve_bench,
    ),
    "traffic-bench": (
        "open-loop traffic simulation: routing, replicas, SLO latency metrics",
        _run_traffic_bench,
    ),
    "cluster-bench": (
        "elastic cluster simulation: autoscaling, admission control, "
        "failure injection",
        _run_cluster_bench,
    ),
    "capacity-bench": (
        "sweep-to-failure capacity scenarios over GPU/host/SSD tier budgets",
        _run_capacity_bench,
    ),
    "perf-bench": (
        "deterministic hot-path op counters on pinned scenarios "
        "(the BENCH_hotpaths.json guard)",
        _run_perf_bench,
    ),
}


def _format_listing() -> str:
    """The ``repro list`` output: every subcommand plus every policy.

    Commands come from the experiment and serving command registries;
    policies come from the policy registry, so third-party selectors that
    registered themselves show up here automatically.
    """
    from .policies import available_policies

    lines = ["commands:"]
    commands = {
        **_EXPERIMENTS,
        **_SERVING_COMMANDS,
        "list": ("list all subcommands and registered compression policies", None),
    }
    for name, (description, _) in commands.items():
        lines.append(f"  {name:16s} {description}")
    lines.append("")
    lines.append("policies (use with --policy NAME[:KEY=VAL,...] or --methods NAME):")
    for name, entry in available_policies().items():
        lines.append(f"  {name:16s} {entry.summary}")
    from .cluster import admission_names, autoscaler_names
    from .traffic import arrival_names, router_names

    lines.append("")
    lines.append("traffic routers (use with traffic-bench --router NAME):")
    lines.append("  " + ", ".join(router_names()))
    lines.append(
        "prefix cache (traffic-/cluster-bench --prefix-cache TOKENS "
        "[--prefix-block N]; EngineSpec prefix_cache_tokens/"
        "prefix_block_tokens/prefix_semantic_reuse):"
    )
    lines.append(
        "  per-replica radix cache of prompt-prefix KV; pair with "
        "--router prefix_affine"
    )
    from .capacity import scenario_names

    lines.append(
        "capacity scenarios (capacity-bench --scenario NAME "
        "--tiers gpu=SIZE,host=SIZE,ssd=SIZE --sweep MIN:MAX:STEP):"
    )
    lines.append("  " + ", ".join(scenario_names()))
    lines.append("arrival processes (traffic-bench --arrivals NAME):")
    lines.append("  " + ", ".join(arrival_names()))
    lines.append("autoscalers (cluster-bench --autoscaler NAME[:KEY=VAL,...]):")
    lines.append("  " + ", ".join(autoscaler_names()))
    lines.append("admission policies (cluster-bench --admission NAME[:KEY=VAL,...]):")
    lines.append("  " + ", ".join(admission_names()))
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
    from .specdec import drafter_names

    lines.append(
        "speculative decoding (serve-/traffic-/cluster-bench --speculate K "
        "[--drafter NAME]; EngineSpec speculate_k/drafter):"
    )
    lines.append(
        "  repro.specdec draft-then-verify decoding; drafters: "
        + ", ".join(drafter_names())
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro`` CLI."""
    from . import capacity, cluster, serving, traffic

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClusterKV reproduction: regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser(
        "list", help="list all subcommands and registered compression policies"
    )
    for name, (description, _) in _EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument(
            "--scale",
            type=int,
            default=64,
            help="context down-scale factor for accuracy experiments (default 64)",
        )
        sub.add_argument(
            "--samples", type=int, default=2, help="samples per task (default 2)"
        )

    def bench(command: str, cls, exclude) -> argparse.ArgumentParser:
        # Every flag that sets a config field is generated from that field,
        # except the fields the bench sets itself; only flags that are not a
        # field are written out below.
        sub = subparsers.add_parser(command, help=_SERVING_COMMANDS[command][0])
        add_dataclass_flags(sub, cls, exclude=exclude)
        return sub

    bench_sets = serving.bench.BENCH_SET_FIELDS
    serve = bench("serve-bench", serving.ServeBenchConfig, bench_sets)
    traffic_bench = bench("traffic-bench", traffic.TrafficBenchConfig, bench_sets)
    cluster_bench = bench("cluster-bench", cluster.ClusterBenchConfig, bench_sets)
    capacity_bench = bench(
        "capacity-bench", capacity.CapacityBenchConfig, capacity.scenarios.PROBE_SET_FIELDS
    )
    subparsers.add_parser("perf-bench", help=_SERVING_COMMANDS["perf-bench"][0])
    serve.add_argument(
        "--policy-json",
        type=str,
        default=None,
        help="JSON policy spec or list of specs, e.g. "
        '\'{"name": "quest", "page_size": 32}\'; overrides --methods',
    )
    serve.add_argument(
        "--mixed",
        action="store_true",
        help="serve ONE batch mixing the policies across its requests "
        "instead of benchmarking each policy separately",
    )
    cluster_bench.add_argument(
        "--kill", action="append", metavar="TIME[@SLOT|@zoneZ]",
        help="kill a replica at TIME seconds (optional live-replica slot), "
        "or with @zoneZ every replica of failure zone Z; repeatable",
    )
    cluster_bench.add_argument(
        "--failure-zones", type=int, default=0,
        help="number of correlated failure zones replicas stripe across "
        "(0 disables zone-targeted kills)",
    )
    cluster_bench.add_argument(
        "--failure-count", type=int, default=0,
        help="number of seeded random replica kills (0 disables)",
    )
    cluster_bench.add_argument(
        "--failure-seed", type=int, default=0, help="seed of the random kills"
    )
    cluster_bench.add_argument(
        "--failure-horizon", type=float, default=60.0,
        help="random kills are drawn uniform over [0, HORIZON) seconds",
    )
    capacity_bench.add_argument(
        "--sweep", type=str, default=None, metavar="MIN:MAX:STEP",
        help="context-length grid swept by the scenario, in prompt tokens "
        "(default: the config's context_min:context_max:context_step)",
    )
    for sub in (traffic_bench, cluster_bench, capacity_bench):
        sub.add_argument(
            "--json", action="store_true",
            help="print the report as canonical JSON instead of a table",
        )
    for sub in subparsers.choices.values():
        sub.add_argument("--out", type=str, default=None, help="write output to a file")
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
        _, runner = {**_EXPERIMENTS, **_SERVING_COMMANDS}[args.command]
        output = runner(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
