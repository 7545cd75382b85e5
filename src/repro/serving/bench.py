"""Serving throughput benchmark: continuous batching vs. sequential runs.

Measures generated-token throughput of the :class:`~repro.serving.engine.
BatchedEngine` against the same requests served one at a time by the
single-sequence :class:`~repro.model.generation.InferenceEngine`.  Both
paths execute the same numerical code (see
:class:`~repro.model.generation.EngineCore`), so the speedup isolates what
continuous batching amortises: the per-token transformer matmuls that are
shared across the batch, while KV selection and attention remain
per-request.

Methods are addressed declaratively through the policy registry: the
benchmark accepts arbitrary :class:`~repro.policies.PolicySpec` entries
(``--policy`` on the CLI), and :func:`run_mixed_serve_bench` serves one
heterogeneous batch in which every request carries its own policy — the
mixed-workload scenario a single-factory engine could not express.

Used by the ``repro serve-bench`` CLI command and by
``benchmarks/test_bench_serving_throughput.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..knobs import knob
from ..model import InferenceEngine, TransformerModel
from ..policies import PolicySpec, build_policy, resolve_policy_spec
from .engine import BatchedEngine

if TYPE_CHECKING:
    from ..api import EngineSpec

__all__ = [
    "ServeBenchConfig",
    "MethodThroughput",
    "MixedServeResult",
    "serving_policy_spec",
    "resolve_serving_policies",
    "serving_engine_spec",
    "run_serve_bench",
    "run_mixed_serve_bench",
    "format_serve_bench",
    "format_mixed_serve_bench",
]

# Methods exercised by the serving benchmark: the paper's method plus the
# two baselines whose decode paths bracket it (no selection at all, and
# selection with trivial scoring cost).
SERVE_BENCH_METHODS = ("clusterkv", "streaming_llm", "full")


# How every benchmark spells its ``policies`` field on the command line.
POLICY_FLAG = {"flag": "--policy", "metavar": "NAME[:KEY=VAL,...]"}

# The engine knob serve-, traffic- and cluster-bench set themselves next to
# the policy (which has no flag on any bench), so it gets no CLI flag: a
# per-step prefill cap as wide as the batch, so ``max_batch_size`` alone
# sizes the admission burst.
BENCH_SET_FIELDS = ("max_prefills_per_step",)


def serving_engine_spec(**overrides: object) -> EngineSpec:
    """The serving-tuned engine every benchmark's default starts from.

    KV budget 48, one full layer and eight sink tokens; ``overrides`` are
    :class:`~repro.api.EngineSpec` fields.  Imported lazily:
    :mod:`repro.api` sits above this package.
    """
    from ..api import EngineSpec

    tuned = {"budget": 48, "num_full_layers": 1, "num_sink_tokens": 8}
    return EngineSpec(**{**tuned, **overrides})


@dataclass(frozen=True)
class ServeBenchConfig:
    """Workload shape of the serving throughput benchmark.

    ``engine`` holds every engine knob (:class:`~repro.api.EngineSpec`);
    the default describes a decode-heavy chat-style workload on the
    ``serve-sim`` model: short prompts, long generations, a KV budget of 48
    tokens per head and a batch of eight concurrent requests — the regime
    where continuous batching amortises the per-token matmuls.  The
    benchmark sets the spec's ``policy`` per benchmarked method itself, and
    construction widens ``max_prefills_per_step`` to the batch size
    (:data:`BENCH_SET_FIELDS`).

    ``policies`` optionally replaces the ``methods`` name list with
    configured policy specs or spec strings (the CLI's
    ``--policy``/``--policy-json`` path); either way bare names resolve
    through :func:`resolve_serving_policies`.

    ``engine.speculate_k > 0`` switches the *batched* mode to speculative
    decoding (the sequential baseline always decodes plainly — greedy
    outputs are bit-identical either way, so the token-count guard still
    holds and the step ratio additionally shows what speculation saves).
    ``seed`` seeds the prompts; the sampling seed is ``engine.seed``.
    """

    engine: EngineSpec = field(
        default_factory=lambda: serving_engine_spec(max_new_tokens=96)
    )
    methods: tuple[str, ...] = knob(SERVE_BENCH_METHODS, "KV selection methods to benchmark")
    policies: tuple[PolicySpec | str, ...] | None = knob(
        None,
        "policy spec, repeatable (e.g. clusterkv:tokens_per_cluster=32); "
        "overrides --methods. A bare name uses the same serving-tuned config "
        "as --methods; a spec with any explicit key is used verbatim "
        "(unspecified keys take the method's registered defaults)",
        **POLICY_FLAG,
    )
    num_requests: int = knob(8, "number of requests", "--requests")
    prompt_len: int = knob(64, "prompt tokens per request")
    repeats: int = knob(2, "timing repeats (the best is kept)")
    seed: int = knob(0, "prompt seed")

    def __post_init__(self) -> None:
        if self.num_requests <= 0 or self.engine.max_batch_size <= 0:
            raise ValueError("num_requests and max_batch_size must be positive")
        if self.prompt_len <= 0 or self.engine.max_new_tokens <= 0:
            raise ValueError("prompt_len and max_new_tokens must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if self.policies is not None and not self.policies:
            raise ValueError("policies must be non-empty when set (or None)")
        if self.policies is None and not self.methods:
            raise ValueError("methods must be non-empty")
        widened = replace(self.engine, max_prefills_per_step=self.engine.max_batch_size)
        object.__setattr__(self, "engine", widened)

    def resolved_policies(self) -> tuple[PolicySpec, ...]:
        """The policy specs this benchmark runs (explicit or from names)."""
        return resolve_serving_policies(
            self.methods if self.policies is None else self.policies,
            self.engine.num_sink_tokens,
        )


@dataclass
class MethodThroughput:
    """Throughput of one method under sequential and batched serving.

    Besides the wall-clock timings the row carries the *step counts* of
    both modes: one engine step executes one batched per-token pass, so
    ``step_speedup`` — sequential steps over batched steps — is the
    deterministic, machine-independent measure of what continuous
    batching amortises.  The benchmark tests assert on it (wall-clock
    ratios flake under heavy parallel load); the wall-clock columns stay
    for humans reading the table.
    """

    method: str
    num_requests: int
    batch_size: int
    total_tokens: int
    sequential_seconds: float
    batched_seconds: float
    mean_occupancy: float = 0.0
    sequential_engine_steps: int = 0
    batched_engine_steps: int = 0
    policy: dict[str, object] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def sequential_tokens_per_second(self) -> float:
        """Throughput of one-at-a-time serving."""
        return self.total_tokens / self.sequential_seconds

    @property
    def batched_tokens_per_second(self) -> float:
        """Throughput of continuous-batching serving."""
        return self.total_tokens / self.batched_seconds

    @property
    def speedup(self) -> float:
        """Batched over sequential tokens/sec (wall clock, host-dependent)."""
        return self.sequential_seconds / self.batched_seconds

    @property
    def step_speedup(self) -> float:
        """Sequential over batched engine steps (deterministic).

        Each engine step runs the per-token transformer matmuls once for
        the whole batch, so the step ratio measures the amortisation
        continuous batching provides independent of host load.
        """
        if self.batched_engine_steps <= 0:
            return 0.0
        return self.sequential_engine_steps / self.batched_engine_steps

    @property
    def tokens_per_batched_step(self) -> float:
        """Generated tokens per batched engine step (deterministic)."""
        if self.batched_engine_steps <= 0:
            return 0.0
        return self.total_tokens / self.batched_engine_steps


@dataclass
class MixedServeResult:
    """Outcome of one heterogeneous batch with per-request policies.

    ``per_request`` lists ``(request_id, policy_cli_string, tokens)`` in
    retirement order; ``policy_descriptions`` embeds each request's full
    selector configuration for reproducibility.
    """

    policies: tuple[PolicySpec, ...]
    num_requests: int
    total_tokens: int
    wall_seconds: float
    mean_occupancy: float
    per_request: list[tuple[str, str, int]] = field(default_factory=list)
    policy_descriptions: dict[str, dict[str, object]] = field(default_factory=dict)

    @property
    def tokens_per_second(self) -> float:
        """Generated-token throughput of the mixed batch."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_tokens / self.wall_seconds


def _spec_label(spec: PolicySpec) -> str:
    """Display label of a spec; safe for kwargs the CLI form cannot carry."""
    try:
        return spec.to_cli()
    except ValueError:
        return f"{spec.name}:<non-CLI kwargs>"


def serving_policy_spec(name: str, num_sink_tokens: int = 8) -> PolicySpec:
    """Serving-tuned policy spec for a method name.

    ClusterKV uses a serving-tuned configuration (larger clusters and a
    longer re-clustering window than the accuracy experiments) so that the
    per-step selection overhead matches a throughput-oriented deployment;
    every other method uses its registered defaults.  The single source of
    these constants: both ``serve-bench`` and ``traffic-bench`` resolve
    bare policy names through this function.
    """
    if name == "clusterkv":
        return PolicySpec(
            name,
            {
                "tokens_per_cluster": 32,
                "decode_window": 32,
                "decode_clusters": 2,
                "num_sink_tokens": num_sink_tokens,
            },
        )
    return PolicySpec(name)


def resolve_serving_policies(
    policies: Iterable[PolicySpec | str], num_sink_tokens: int = 8
) -> tuple[PolicySpec, ...]:
    """Normalise a benchmark's policy list (specs or spec strings).

    A bare name — ``"clusterkv"`` or ``PolicySpec("clusterkv")`` —
    resolves to the serving-tuned :func:`serving_policy_spec`; a spec with
    any explicit key (``"clusterkv:tokens_per_cluster=16"``) is used
    verbatim.  The one resolver behind serve-, traffic- and
    capacity-bench.
    """
    specs = (resolve_policy_spec(item) for item in policies)
    return tuple(
        spec if spec.kwargs else serving_policy_spec(spec.name, num_sink_tokens)
        for spec in specs
    )


def _bench_prompts(config: ServeBenchConfig, model: TransformerModel) -> list[np.ndarray]:
    rng = np.random.default_rng(config.seed)
    return [
        rng.integers(4, model.config.vocab_size, size=config.prompt_len).astype(np.int64)
        for _ in range(config.num_requests)
    ]


def run_serve_bench(config: ServeBenchConfig | None = None) -> list[MethodThroughput]:
    """Measure sequential vs. batched throughput for every configured policy.

    Each policy is timed ``repeats`` times and the best (lowest-noise)
    timing of each mode is kept.  Sequential and batched runs serve the
    same prompts and produce the same number of tokens.
    """
    from ..execbackend import build_engine  # sits above this package, like repro.api

    config = config or ServeBenchConfig()
    model = config.engine.build_model()
    prompts = _bench_prompts(config, model)

    specs = config.resolved_policies()
    name_counts: dict[str, int] = {}
    for spec in specs:
        name_counts[spec.name] = name_counts.get(spec.name, 0) + 1

    results: list[MethodThroughput] = []
    labels_used: set[str] = set()
    for idx, spec in enumerate(specs):
        # Rows are labelled by bare name unless the run benchmarks several
        # configurations of the same method — then the full spec string
        # disambiguates them (and a positional suffix covers specs whose
        # strings still collide, e.g. literally identical entries).
        label = spec.name
        if name_counts[spec.name] > 1:
            label = _spec_label(spec)
        if label in labels_used:
            label = f"{label}#{idx}"
        labels_used.add(label)
        # The two fields the benchmark sets itself: the method's policy, and
        # no budget for full attention (it has none to honour).
        engine_spec = replace(
            config.engine,
            policy=spec,
            budget=None if spec.name == "full" else config.engine.budget,
        )
        gen = engine_spec.generation_config()
        # One stateless factory per method, shared by both modes (per-request
        # selector states are created inside each engine, inside the timers).
        selector = engine_spec.build_policy()
        # Warm the BLAS/allocator before timing.
        InferenceEngine(model, selector, gen).generate(prompts[0])
        best_sequential = float("inf")
        best_batched = float("inf")
        occupancy = 0.0
        total_tokens = 0
        batched_steps = 0
        sequential_steps = 0
        for _ in range(config.repeats):
            # Both timed regions cover engine construction, per-request state
            # setup, prefill and decode, so the speedup isolates batching.
            start = time.perf_counter()
            sequential_tokens = 0
            sequential_steps = 0
            for prompt in prompts:
                engine = InferenceEngine(model, selector, gen)
                result = engine.generate(prompt)
                sequential_tokens += len(result.output_ids)
                # One prefill pass plus decode_steps per-token passes: the
                # step count of serving this request alone.
                sequential_steps += 1 + result.decode_steps
            best_sequential = min(best_sequential, time.perf_counter() - start)

            start = time.perf_counter()
            batched = build_engine(model, engine_spec)
            for prompt in prompts:
                batched.submit(prompt)
            report = batched.run()
            best_batched = min(best_batched, time.perf_counter() - start)
            occupancy = report.mean_batch_occupancy
            total_tokens = report.total_generated_tokens
            batched_steps = report.engine_steps
            speculation = report.speculation()
            if total_tokens != sequential_tokens:
                raise RuntimeError(
                    "sequential and batched runs generated different token counts"
                )
        extra: dict[str, float] = {}
        if engine_spec.speculate_k > 0:
            extra = dict(speculation)
        results.append(
            MethodThroughput(
                method=label,
                num_requests=config.num_requests,
                batch_size=engine_spec.max_batch_size,
                total_tokens=total_tokens,
                sequential_seconds=best_sequential,
                batched_seconds=best_batched,
                mean_occupancy=occupancy,
                sequential_engine_steps=sequential_steps,
                batched_engine_steps=batched_steps,
                policy=dict(selector.describe()),
                extra=extra,
            )
        )
    return results


def run_mixed_serve_bench(config: ServeBenchConfig | None = None) -> MixedServeResult:
    """Serve one batch mixing the configured policies across its requests.

    Request ``i`` gets policy ``i mod len(policies)``, so every method is
    exercised in the same continuous batch (the result's ``policies``
    lists only the specs that actually served a request — with fewer
    requests than policies, the tail specs are unused).  The KV budget
    applies to every compressed request; ``full`` requests simply select
    everything.  Like :func:`run_serve_bench`, the engine is warmed before
    timing and the best of ``repeats`` timed runs is reported (outputs
    are deterministic, so every repeat serves identical tokens).
    """
    config = config or ServeBenchConfig()
    specs = config.resolved_policies()
    model = config.engine.build_model()
    prompts = _bench_prompts(config, model)
    gen = config.engine.generation_config()
    assignments = [specs[idx % len(specs)] for idx in range(len(prompts))]
    # Warm the BLAS/allocator before timing, as in run_serve_bench.
    InferenceEngine(model, build_policy(assignments[0]), gen).generate(prompts[0])

    best_wall = float("inf")
    report = None
    for _ in range(config.repeats):
        engine = BatchedEngine(
            model,
            generation_config=gen,
            scheduler_config=config.engine.scheduler_config(),
        )
        for idx, prompt in enumerate(prompts):
            engine.submit(prompt, request_id=f"mixed-{idx}", policy=assignments[idx])
        start = time.perf_counter()
        report = engine.run()
        best_wall = min(best_wall, time.perf_counter() - start)

    assignment_by_id = {
        f"mixed-{idx}": spec for idx, spec in enumerate(assignments)
    }
    per_request = [
        (
            completed.request.request_id,
            _spec_label(assignment_by_id[completed.request.request_id]),
            len(completed.result.output_ids),
        )
        for completed in report.completed
    ]
    return MixedServeResult(
        # Only the specs that actually served a request; with fewer
        # requests than policies the round-robin never reaches the tail.
        policies=tuple(dict.fromkeys(assignments)),
        num_requests=config.num_requests,
        total_tokens=report.total_generated_tokens,
        wall_seconds=best_wall,
        mean_occupancy=report.mean_batch_occupancy,
        per_request=per_request,
        policy_descriptions=report.policy_descriptions(),
    )


def format_serve_bench(results: list[MethodThroughput]) -> str:
    """Human-readable table of the serving benchmark results."""
    lines = [
        "[serve-bench] continuous batching vs. sequential single-request serving",
        f"{'method':14s} {'tokens':>7s} {'seq tok/s':>10s} {'batch tok/s':>12s} "
        f"{'speedup':>8s} {'step x':>8s} {'occupancy':>10s}",
    ]
    for item in results:
        lines.append(
            f"{item.method:14s} {item.total_tokens:7d} "
            f"{item.sequential_tokens_per_second:10.1f} "
            f"{item.batched_tokens_per_second:12.1f} "
            f"{item.speedup:7.2f}x {item.step_speedup:7.2f}x "
            f"{item.mean_occupancy:10.1f}"
        )
        if "acceptance_rate" in item.extra:
            lines.append(
                f"{'':14s} speculation: "
                f"acceptance {item.extra['acceptance_rate']:.2f}  "
                f"mean run {item.extra['mean_accepted_run_length']:.2f}  "
                f"drafted {int(item.extra['drafted_tokens'])}  "
                f"accepted {int(item.extra['accepted_tokens'])}"
            )
    return "\n".join(lines)


def format_mixed_serve_bench(result: MixedServeResult) -> str:
    """Human-readable summary of one mixed-policy batch."""
    lines = [
        "[serve-bench --mixed] one continuous batch, per-request policies",
        f"policies: {', '.join(_spec_label(spec) for spec in result.policies)}",
        f"requests: {result.num_requests}  tokens: {result.total_tokens}  "
        f"throughput: {result.tokens_per_second:.1f} tok/s  "
        f"occupancy: {result.mean_occupancy:.1f}",
        f"{'request':12s} {'policy':40s} {'tokens':>7s}",
    ]
    for request_id, policy, tokens in result.per_request:
        shown = policy if len(policy) <= 40 else policy[:37] + "..."
        lines.append(f"{request_id:12s} {shown:40s} {tokens:7d}")
    return "\n".join(lines)
