"""The ``repro perf-bench`` hot-path op-counter guard.

Runs the serving stack's hot paths — prefill, decode stepping, k-means
clustering, continuous-batching serving and its prefix-cache, migration,
multi-replica and speculative variants — on small pinned configurations
under :func:`repro.perf.count_ops` and collects the *deterministic*
operation counters: engine steps, GEMM launches, prefill score elements,
k-means iterations.

The counters are machine-independent: they depend only on configuration
and control flow.  ``scripts/check_perf.py`` recomputes the payload and
compares it against the checked-in ``BENCH_hotpaths.json``, so a hot-path
regression that multiplies GEMM launches (e.g. a per-head loop creeping
back into attention) fails tier-1 even though outputs are unchanged.
Nothing here reads a clock: seconds are recorded by ``bench/run.py``
(``BENCHMARK.json``) and nowhere else.

Heavy imports happen inside functions: :mod:`repro.perf` is imported by
the hot-path modules themselves (for the counters), so this module must
not import them at module scope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .counters import count_ops

__all__ = [
    "PerfBenchConfig",
    "deterministic_counters",
    "run_perf_bench",
    "format_perf_bench",
]


@dataclass(frozen=True)
class PerfBenchConfig:
    """Pinned workload shapes of the hot-path counter guard.

    The engine settings match the ``serve-sim`` serving benchmark (budget
    48, 8 sink tokens); the prefill is long enough to take the blocked
    attention path, and the ``parallel_*`` fields shape the 4-replica
    traffic scenario.
    """

    model: str = "serve-sim"
    prefill_prompt_len: int = 512
    budget: int = 48
    num_sink_tokens: int = 8
    num_full_layers: int = 1
    parallel_replicas: int = 4
    parallel_requests: int = 8
    parallel_new_tokens: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prefill_prompt_len <= 0:
            raise ValueError("prefill_prompt_len must be positive")


def _counted_prefill(config: PerfBenchConfig) -> dict[str, int]:
    """Op counters of one exact prefill (plus ClusterKV build) of the long prompt."""
    import numpy as np

    from ..model import GenerationConfig, InferenceEngine, TransformerModel, get_model_config
    from ..policies import build_policy
    from ..serving.bench import serving_policy_spec

    model = TransformerModel(get_model_config(config.model))
    selector = build_policy(serving_policy_spec("clusterkv", config.num_sink_tokens))
    gen = GenerationConfig(
        budget=config.budget,
        max_new_tokens=1,
        num_full_layers=config.num_full_layers,
        num_sink_tokens=config.num_sink_tokens,
    )
    engine = InferenceEngine(model, selector, gen)
    rng = np.random.default_rng(config.seed)
    prompt = rng.integers(
        4, model.config.vocab_size, size=config.prefill_prompt_len
    ).astype(np.int64)
    with count_ops() as ops:
        engine._core.prefill(engine._sequence, prompt)
    return ops.as_dict()


def _parallel_bench_config(config: PerfBenchConfig):
    """The pinned multi-replica traffic workload of the parallel-serve scenario."""
    from ..serving.bench import serving_engine_spec
    from ..traffic.bench import TrafficBenchConfig, WorkloadSpec
    from ..traffic.simulator import TrafficConfig

    return TrafficBenchConfig(
        workload=WorkloadSpec(
            num_requests=config.parallel_requests,
            rate=2.0,
            prompt_len_min=32,
            prompt_len_max=48,
            seed=config.seed,
        ),
        fleet=TrafficConfig(
            engine=serving_engine_spec(
                model=config.model,
                budget=config.budget,
                num_sink_tokens=config.num_sink_tokens,
                num_full_layers=config.num_full_layers,
                max_new_tokens=config.parallel_new_tokens,
            ),
            num_replicas=config.parallel_replicas,
            router="jsq",
        ),
    )


def deterministic_counters(config: PerfBenchConfig | None = None) -> dict[str, object]:
    """Machine-independent hot-path counters on small pinned scenarios.

    The regression-guard section of ``BENCH_hotpaths.json``: engine steps
    and GEMM-launch counts of a short ClusterKV serving run, plus the
    k-means iteration counts of a pinned clustering problem.  Every value
    is a pure function of configuration and code structure — comparing
    against the checked-in baseline catches vectorisation regressions
    without timing anything.
    """
    import numpy as np

    from ..core.clustering import kmeans_cluster_batch
    from ..model import GenerationConfig, TransformerModel, get_model_config
    from ..policies import build_policy
    from ..serving import BatchedEngine, SchedulerConfig
    from ..serving.bench import serving_policy_spec

    config = config or PerfBenchConfig()
    model = TransformerModel(get_model_config(config.model))
    rng = np.random.default_rng(config.seed)
    prompts = [
        rng.integers(4, model.config.vocab_size, size=24).astype(np.int64)
        for _ in range(4)
    ]
    gen = GenerationConfig(
        budget=16,
        max_new_tokens=8,
        num_full_layers=config.num_full_layers,
        num_sink_tokens=4,
    )
    selector = build_policy(serving_policy_spec("clusterkv", 4))
    engine = BatchedEngine(
        model,
        selector,
        gen,
        SchedulerConfig(max_batch_size=4, max_prefills_per_step=4),
    )
    for prompt in prompts:
        engine.submit(prompt)
    with count_ops() as serve_ops:
        report = engine.run()

    keys = np.random.default_rng(config.seed + 1).normal(size=(2, 96, 8))
    with count_ops() as kmeans_ops:
        results = kmeans_cluster_batch(keys, 8, metric="cosine", seed=config.seed)

    # Prefix-cache scenario: four prompts sharing a 16-token preamble served
    # one prefill per step through a cache-enabled engine, so the later three
    # attach the preamble instead of prefilling it.  The attention_prefill
    # GEMM count (vs. the cache-off `serve` section's per-token costs) and
    # the attached-token counter pin the prefill work the cache saves.
    prefix_rng = np.random.default_rng(config.seed + 2)
    preamble = prefix_rng.integers(4, model.config.vocab_size, size=16).astype(np.int64)
    shared_prompts = [
        np.concatenate(
            [preamble, prefix_rng.integers(4, model.config.vocab_size, size=8)]
        ).astype(np.int64)
        for _ in range(4)
    ]
    prefix_engine = BatchedEngine(
        model,
        selector,
        gen,
        SchedulerConfig(
            max_batch_size=4,
            max_prefills_per_step=1,
            prefix_cache_tokens=1024,
            prefix_block_tokens=8,
        ),
    )
    for prompt in shared_prompts:
        prefix_engine.submit(prompt)
    with count_ops() as prefix_ops:
        prefix_report = prefix_engine.run()
    prefix_stats = prefix_engine.prefix_cache_stats()

    # Migration scenario: the serve workload again, but every active
    # request is checkpoint-migrated to a second engine mid-decode
    # (repro.seqstate).  The pinned invariant is the differential:
    # migrated_prefill_gemms == baseline_prefill_gemms — a migration moves
    # KV and never replays a prefill.  A regression that re-prefills on
    # restore (or drops the migrated-in fast path) breaks the equality.
    def _migration_engine():
        return BatchedEngine(
            model,
            selector,
            gen,
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4),
        )

    baseline_engine = _migration_engine()
    for prompt in prompts:
        baseline_engine.submit(prompt)
    with count_ops() as baseline_ops:
        baseline_report = baseline_engine.run()

    source, target = _migration_engine(), _migration_engine()
    for prompt in prompts:
        source.submit(prompt)
    with count_ops() as migration_ops:
        migrated_report = None
        for _ in range(3):  # prefill, then a couple of decode steps
            source.step()
        for request_id in list(source.active_request_ids):
            target.restore_request(source.checkpoint_request(request_id, keep=False))
        migrated_report = target.run()

    # Parallel-serve scenario: the pinned 4-replica traffic workload, run on
    # the serial backend.  The multiprocess
    # backend is byte-identical by construction (tests/test_execbackend.py),
    # so guarding the serial counters pins both: a drift in step scheduling
    # or GEMM launches on either backend shows up here.
    from ..traffic.bench import run_traffic_bench

    parallel_config = _parallel_bench_config(config)
    with count_ops() as parallel_ops:
        parallel_report = run_traffic_bench(parallel_config)

    # Speculative-decoding scenario: a repetitive 4-request workload whose
    # greedy output the ngram drafter predicts near-perfectly, served
    # plainly and then with k=4 speculation.  The pinned invariants: the
    # spec-on run emits the same token total in strictly fewer engine
    # steps, and the drafted/accepted/rejected counters conserve exactly —
    # a drift in draft clipping or acceptance moves them.
    from ..specdec import SpeculationConfig

    spec_prompts = [
        np.tile(np.array([5, 6, 7, 8], dtype=np.int64), 16) for _ in range(4)
    ]
    spec_gen = GenerationConfig(
        budget=48,
        max_new_tokens=32,
        num_full_layers=config.num_full_layers,
        num_sink_tokens=4,
    )

    def _spec_engine(speculation):
        return BatchedEngine(
            model,
            build_policy("full"),
            spec_gen,
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4),
            speculation=speculation,
        )

    spec_baseline_engine = _spec_engine(None)
    for prompt in spec_prompts:
        spec_baseline_engine.submit(prompt)
    spec_baseline_report = spec_baseline_engine.run()

    spec_engine = _spec_engine(SpeculationConfig(drafter="ngram", k=4))
    for prompt in spec_prompts:
        spec_engine.submit(prompt)
    with count_ops() as spec_ops:
        spec_report = spec_engine.run()
    spec_accounting = spec_report.speculation()

    return {
        # Long-prompt prefill: the only pinned scenario on the blocked
        # attention path.  Its attention_prefill.score_elements counts the
        # score entries actually computed, about half of T^2 per head while
        # every row block stops at its causal frontier.
        "prefill": {
            "prompt_tokens": config.prefill_prompt_len,
            "counters": _counted_prefill(config),
        },
        "serve": {
            "engine_steps": report.engine_steps,
            "total_tokens": report.total_generated_tokens,
            "counters": serve_ops.as_dict(),
        },
        "prefix_serve": {
            "engine_steps": prefix_report.engine_steps,
            "total_tokens": prefix_report.total_generated_tokens,
            "cache_hits": prefix_stats["hits"],
            "cache_hit_tokens": prefix_stats["hit_tokens"],
            "counters": prefix_ops.as_dict(),
        },
        "kmeans": {
            "n_iters": [r.n_iters for r in results],
            "counters": kmeans_ops.as_dict(),
        },
        "migration_serve": {
            "baseline_prefill_gemms": baseline_ops.get("gemm.attention_prefill"),
            "migrated_prefill_gemms": migration_ops.get("gemm.attention_prefill"),
            "migrated_in": migration_ops.get("seqstate.migrated_in"),
            "baseline_tokens": baseline_report.total_generated_tokens,
            "migrated_tokens": migrated_report.total_generated_tokens,
            "counters": migration_ops.as_dict(),
        },
        "parallel_serve": {
            "engine_steps": parallel_report.engine_steps,
            "total_tokens": parallel_report.total_output_tokens,
            "num_replicas": config.parallel_replicas,
            "counters": parallel_ops.as_dict(),
        },
        "spec_serve": {
            "baseline_engine_steps": spec_baseline_report.engine_steps,
            "spec_engine_steps": spec_report.engine_steps,
            "baseline_tokens": spec_baseline_report.total_generated_tokens,
            "spec_tokens": spec_report.total_generated_tokens,
            "drafted_tokens": int(spec_accounting["drafted_tokens"]),
            "accepted_tokens": int(spec_accounting["accepted_tokens"]),
            "rejected_tokens": int(spec_accounting["rejected_tokens"]),
            "counters": spec_ops.as_dict(),
        },
    }


def run_perf_bench(config: PerfBenchConfig | None = None) -> dict[str, object]:
    """Run the counter guard and return the ``BENCH_hotpaths.json`` payload.

    Every value is deterministic, so the checked-in file is byte-for-byte
    regenerable on any machine (``scripts/check_perf.py --update``).
    """
    config = config or PerfBenchConfig()
    return {
        "schema": "repro.perf/hotpaths/v1",
        "config": asdict(config),
        "deterministic": deterministic_counters(config),
    }


def format_perf_bench(payload: dict[str, object]) -> str:
    """Human-readable summary of one :func:`run_perf_bench` payload."""
    lines = ["[perf-bench] deterministic hot-path op counters"]
    deterministic = payload["deterministic"]
    serve = deterministic["serve"]
    lines.append(
        f"deterministic: serve steps={serve['engine_steps']} "
        f"tokens={serve['total_tokens']} gemm={serve['counters']} "
        f"kmeans iters={deterministic['kmeans']['n_iters']}"
    )
    migration = deterministic.get("migration_serve")
    if migration:
        lines.append(
            f"migration: prefill gemms baseline/migrated "
            f"{migration['baseline_prefill_gemms']}"
            f"/{migration['migrated_prefill_gemms']} "
            f"(migrated_in={migration['migrated_in']}, "
            f"tokens {migration['baseline_tokens']}"
            f"/{migration['migrated_tokens']})"
        )
    return "\n".join(lines)

