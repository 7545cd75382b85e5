"""Traffic benchmark: latency-under-load for the ``repro traffic-bench`` CLI.

Builds a seeded open-loop workload (arrival process x request-shape mix,
or a replayed JSONL trace), simulates it over a router-fronted replica
fleet on the virtual perfmodel clock, and formats the resulting
:class:`~repro.traffic.report.TrafficReport` as a table.  With the
default clock the whole benchmark is arithmetic on seeded inputs, so a
given ``(config, seed)`` prints byte-identical numbers on any machine —
the property the reproducibility tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..knobs import knob
from ..model import get_model_config
from ..policies import PolicySpec
from ..serving.bench import POLICY_FLAG, resolve_serving_policies, serving_engine_spec
from .arrivals import build_arrivals
from .report import TrafficReport
from .simulator import TrafficConfig, simulate
from .trace import load_trace
from .workload import RequestShape, TrafficRequest, generate_traffic

__all__ = [
    "WorkloadSpec",
    "TrafficBenchConfig",
    "build_bench_requests",
    "run_traffic_bench",
    "format_traffic_report",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """The open-loop workload of the traffic and cluster benchmarks.

    ``arrivals`` names the arrival process drawing ``num_requests``
    arrival instants at mean ``rate`` requests/s of simulated time
    (``burstiness`` is the peak-to-mean ratio of ``onoff``); ``trace``
    replays a JSONL trace instead (``rate``/``arrivals`` are then
    ignored; ``num_requests`` caps how many records are replayed).
    Prompt lengths are uniform in ``[prompt_len_min, prompt_len_max]``;
    the decode length is the engine's ``max_new_tokens``.

    With several ``policies`` entries the workload mixes them across
    requests through an equal-weight seeded draw (one
    :class:`~repro.traffic.workload.RequestShape` per policy —
    proportions are equal in expectation, not exactly balanced); entries
    are specs or spec strings, bare names resolving to the serving-tuned
    configuration of ``serve-bench``
    (:func:`repro.serving.bench.resolve_serving_policies`).
    ``slo_class_mix`` splits the workload into service classes: that
    fraction of traffic (in expectation, seeded draw) is
    ``interactive``-class and the rest ``batch``-class (``None`` keeps
    everything interactive); pair it with the engine's ``preemption`` and
    ``router="slo_aware"``.  ``seed`` seeds arrivals, shapes and prompt
    contents (the engine's own ``seed`` is the sampling seed).
    """

    arrivals: str = knob(
        "poisson",
        "arrival process name, resolved through the registry — see `repro list` "
        "(use --trace to replay a JSONL trace instead)",
    )
    rate: float = knob(0.5, "mean arrival rate in requests per second of simulated time")
    burstiness: float = knob(4.0, "peak-to-mean rate ratio of the onoff process")
    num_requests: int = knob(16, "number of requests", "--requests")
    prompt_len_min: int = knob(48, "minimum prompt tokens")
    prompt_len_max: int = knob(96, "maximum prompt tokens")
    policies: tuple[PolicySpec | str, ...] = knob(
        ("clusterkv",),
        "per-request policy spec, repeatable; several specs are mixed across "
        "the workload by an equal-weight seeded draw",
        **POLICY_FLAG,
    )
    slo_class_mix: float | None = knob(
        None,
        "fraction of interactive-class traffic, the rest batch-class "
        "(< 0 keeps everything interactive; pair with --router slo_aware)",
        none_if="<0",
    )
    seed: int = knob(0, "workload seed")
    trace: str | None = knob(None, "replay arrivals/shapes from a JSONL trace file")

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.slo_class_mix is not None and not 0.0 <= self.slo_class_mix <= 1.0:
            raise ValueError("slo_class_mix must lie in [0, 1]")


@dataclass(frozen=True)
class TrafficBenchConfig:
    """The traffic benchmark: a :class:`WorkloadSpec` over a static fleet.

    Every knob lives in one of the two parts — the workload, or the
    :class:`~repro.traffic.simulator.TrafficConfig` (replica count,
    router, clock, SLO, workers, and the replica
    :class:`~repro.api.EngineSpec` with its chunked-prefill, prefix-cache,
    preemption, backend and speculation fields).  The defaults describe a
    bursty chat-style workload: Poisson arrivals over two serving-tuned
    replicas behind join-shortest-queue routing.  Construction resolves
    the workload's policies, makes the first one the engines' default and
    widens their per-step prefill cap to the batch size.
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: TrafficConfig = field(
        default_factory=lambda: TrafficConfig(
            engine=serving_engine_spec(max_new_tokens=48), num_replicas=2, router="jsq"
        )
    )

    def __post_init__(self) -> None:
        # The engine fields the benchmark sets itself (BENCH_SET_FIELDS): every
        # replica's default policy is the first entry of the workload's policy
        # mix, and a replica may prefill a whole batch in one step.
        engine = self.fleet.engine
        policies = resolve_serving_policies(self.workload.policies, engine.num_sink_tokens)
        engine = replace(
            engine, policy=policies[0], max_prefills_per_step=engine.max_batch_size
        )
        object.__setattr__(self, "workload", replace(self.workload, policies=policies))
        object.__setattr__(self, "fleet", replace(self.fleet, engine=engine))


def build_bench_requests(config: TrafficBenchConfig) -> list[TrafficRequest]:
    """The benchmark's workload: generated from seeds or replayed from disk.

    With ``trace`` set, at most ``num_requests`` records are replayed (so
    ``--requests`` bounds the run length against a large trace file);
    otherwise ``num_requests`` arrivals are drawn from the named process.
    """
    workload, engine = config.workload, config.fleet.engine
    vocab_size = get_model_config(engine.model).vocab_size
    if workload.trace is not None:
        return load_trace(
            workload.trace,
            vocab_size=vocab_size,
            seed=workload.seed,
            limit=workload.num_requests,
        )
    if workload.arrivals == "trace":
        raise ValueError(
            "the 'trace' arrival process replays a file: pass --trace PATH "
            "instead of --arrivals trace"
        )
    if workload.arrivals == "onoff":
        process = build_arrivals(
            "onoff", rate=workload.rate, burstiness=workload.burstiness
        )
    else:
        process = build_arrivals(workload.arrivals, rate=workload.rate)
    times = process.times(workload.num_requests, seed=workload.seed)
    # With a class mix, every policy contributes one shape per service
    # class, weighted by the interactive fraction (degenerate fractions
    # collapse to a single class — a RequestShape weight must be positive).
    mix = workload.slo_class_mix
    if mix is None:
        class_weights = [("interactive", 1.0)]
    elif mix <= 0.0:
        class_weights = [("batch", 1.0)]
    elif mix >= 1.0:
        class_weights = [("interactive", 1.0)]
    else:
        class_weights = [("interactive", mix), ("batch", 1.0 - mix)]
    shapes = [
        RequestShape(
            prompt_len_range=(workload.prompt_len_min, workload.prompt_len_max),
            max_new_tokens=engine.max_new_tokens,
            policy=spec,
            weight=weight,
            slo_class=slo_class,
        )
        for spec in workload.policies
        for slo_class, weight in class_weights
    ]
    return generate_traffic(shapes, times, vocab_size=vocab_size, seed=workload.seed)


def run_traffic_bench(config: TrafficBenchConfig | None = None) -> TrafficReport:
    """Simulate the benchmark workload and return its report."""
    config = config or TrafficBenchConfig()
    return simulate(build_bench_requests(config), config.fleet)


def format_traffic_report(report: TrafficReport) -> str:
    """Human-readable table of one traffic-simulation report."""
    slo_parts = []
    if report.slo.ttft_s is not None:
        slo_parts.append(f"TTFT<={report.slo.ttft_s:g}s")
    if report.slo.tpot_s is not None:
        slo_parts.append(f"TPOT<={report.slo.tpot_s:g}s")
    slo_label = " ".join(slo_parts) or "none"
    router = report.router.get("name", "?")
    clock = report.clock.get("name", "?")
    lines = [
        f"[traffic-bench] open-loop traffic over {report.num_replicas} replica(s), "
        f"router={router}, clock={clock}",
        f"requests: {report.num_requests}  tokens: {report.total_output_tokens}  "
        f"duration: {report.duration_s:.2f}s  steps: {report.engine_steps}  "
        f"occupancy: {report.mean_occupancy:.2f}",
        f"throughput: {report.throughput_tokens_per_s:.2f} tok/s  "
        f"goodput: {report.goodput_tokens_per_s:.2f} tok/s  "
        f"SLO attainment: {report.slo_attainment * 100.0:.1f}% ({slo_label})",
    ]
    if report.prefix_cache:
        cache = report.prefix_cache
        lines.append(
            f"prefix cache: hit rate {float(cache.get('hit_rate', 0.0)) * 100.0:.1f}% "
            f"({cache.get('hits', 0)}/{int(cache.get('hits', 0)) + int(cache.get('misses', 0))} lookups, "
            f"{cache.get('hit_tokens', 0)} tokens attached)  "
            f"TTFT hit/miss: {float(cache.get('ttft_hit_mean_s', 0.0)):.3f}s"
            f"/{float(cache.get('ttft_miss_mean_s', 0.0)):.3f}s"
        )
    speculation = report.speculation()
    if speculation["drafted_tokens"] > 0:
        lines.append(
            f"speculation: acceptance {speculation['acceptance_rate'] * 100.0:.1f}% "
            f"({int(speculation['accepted_tokens'])}/"
            f"{int(speculation['drafted_tokens'])} drafted)  "
            f"mean accepted run: {speculation['mean_accepted_run_length']:.2f} "
            f"over {int(speculation['rounds'])} rounds"
        )
    if report.num_rejected:
        reasons: dict[str, int] = {}
        for item in report.rejected:
            reasons[item.reason] = reasons.get(item.reason, 0) + 1
        spread = ", ".join(f"{name}: {count}" for name, count in sorted(reasons.items()))
        lines.append(
            f"rejected: {report.num_rejected}/{report.num_submitted} ({spread})"
        )
    lines.append(f"{'metric':12s} {'p50':>9s} {'p95':>9s} {'p99':>9s}")
    for metric, row in report.latency_summary().items():
        lines.append(
            f"{metric:12s} {row['p50']:9.3f} {row['p95']:9.3f} {row['p99']:9.3f}"
        )
    classes = report.class_summary()
    if len(classes) > 1 or report.num_preemptions:
        for name, row in sorted(classes.items()):
            ttft = row["ttft_s"]
            lines.append(
                f"class {name:11s} requests: {row['num_requests']:>4}  "
                f"TTFT p50/p99: {ttft['p50']:.3f}/{ttft['p99']:.3f}s  "
                f"goodput: {float(row['goodput_tokens_per_s']):.2f} tok/s"
            )
        if report.num_preemptions:
            lines.append(f"preemptions: {report.num_preemptions}")
    per_replica: dict[int, int] = {}
    for item in report.requests:
        per_replica[item.replica] = per_replica.get(item.replica, 0) + 1
    if per_replica:
        spread = "  ".join(
            f"replica {index}: {count}" for index, count in sorted(per_replica.items())
        )
        lines.append(f"requests per replica: {spread}")
    return "\n".join(lines)
