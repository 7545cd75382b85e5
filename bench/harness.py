"""One workload run: set-up, timed passes, correctness gate, quality pass.

A run is one cold set-up + identical timed passes for ``--seconds`` + the
untimed correctness gate and recall pass.  Throughput
is the median over passes, latencies are pooled over passes, times are raw
wall seconds.  With ``--trace 1`` every other pass runs with the tracer
enabled and the run reports the per-layer metrics instead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.model import get_model_config
from repro.perf import count_ops
from repro.traffic.clock import build_clock

import trace as tracing
from workloads import MODEL, WORKLOADS, EngineWorkload, FleetMP, PassResult, TokenClock, Workload

MIN_PASSES = 2
TWIN_PAIRS = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Metrics = dict[str, tuple[float, str]]

_CALIB_MATRIX = np.random.default_rng(0).standard_normal((128, 128))


def calib_ms() -> float:
    """A fixed pure-NumPy loop, run around every pass (median of 3).

    It measures the box, not the program: when a workload's times shift
    and this shifts with them, the box did it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = _CALIB_MATRIX
        for _ in range(40):
            x = np.tanh(x @ _CALIB_MATRIX * 0.01)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def percentile_ms(samples_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def pooled(passes: list[PassResult], attribute: str) -> list[float]:
    """One ``TokenClock`` series concatenated over ``passes``."""
    return [value for result in passes for value in getattr(result.clock, attribute)]


def median_tok_s(passes: list[PassResult]) -> float:
    return statistics.median(p.output_tokens / p.wall_s for p in passes)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reaped_cpu_seconds() -> float:
    """CPU time of every child process reaped so far (0 until one is forked)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


@dataclass
class RunData:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    setup_s: float
    passes: list[PassResult]
    timed_s: float
    calib: list[float]
    # Sampled when the timed passes end: the correctness gate and the
    # recall pass after them build engines of their own.
    peak_rss_mb: float
    worker_cpu_per_pass_s: float
    gemm_calls: int
    mismatches: int
    recall: float


def environment(seed: int, data: RunData) -> dict[str, object]:
    """What the numbers were measured on (carried by every output)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": data.workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "passes": len(data.passes),
        "box.calib_ms": [round(value, 3) for value in data.calib],
        "timed_s": round(data.timed_s, 3),
        "pass_wall_s": [round(p.wall_s, 4) for p in data.passes],
        "ttft_samples": len(pooled(data.passes, "ttft_s")),
        "itl_samples": len(pooled(data.passes, "itl_s")),
    }


def end_to_end_metrics(data: RunData) -> Metrics:
    tpot = [value for result in data.passes for value in result.clock.tpot_s()]
    return {
        "setup_s": (data.setup_s, "s"),
        "tok_s": (median_tok_s(data.passes), "tok/s"),
        "ttft_p50_ms": (percentile_ms(pooled(data.passes, "ttft_s"), 50), "ms"),
        "tpot_p50_ms": (percentile_ms(tpot, 50), "ms"),
        "peak_rss_mb": (data.peak_rss_mb, "MB"),
        "recall_at_budget": (data.recall, "share"),
    }


# ----------------------------------------------------------------------
# per-layer metrics of the traced run
# ----------------------------------------------------------------------
def virtual_clock_metrics(result: PassResult) -> Metrics:
    """Paper-scale prediction of one pass (llama-3.1-8b, context_scale=64).

    Fleets run on the perfmodel clock, so their report carries it.  Engine
    workloads are priced after the fact: every step's trace is charged by
    the same clock, which places each request's tokens on a virtual time
    line (``tpot_mean_s`` is then the mean gap between a request's
    tokens).  Deterministic; never mixed with wall time.
    """
    if result.report is not None:
        report = result.report
        ttft_p50_s = report.latency_summary()["ttft_s"]["p50"]
        tpot_mean_s = float(np.mean([m.tpot_s for m in report.requests]))
        goodput = report.goodput_tokens_per_s
    else:
        clock = build_clock("perfmodel", arch="llama-3.1-8b", context_scale=64)
        virtual = TokenClock()
        now = 0.0
        for trace in result.step_traces:
            for entry in (*trace.attaches, *trace.prefills):
                # Closed loop: a request is sent when the step that admits it starts.
                if entry.request_id not in virtual.submit_t:
                    virtual.submitted(entry.request_id, now)
            seconds = clock.step_seconds(trace)
            now += seconds
            virtual.step_done(trace, now, seconds)
        ttft_p50_s = float(np.percentile(virtual.ttft_s, 50))
        tpot_mean_s = float(np.mean(virtual.itl_s))
        goodput = result.output_tokens / now
    return {
        "vclock_ttft_p50_s": (ttft_p50_s, "s"),
        "vclock_tpot_mean_s": (tpot_mean_s, "s"),
        "vclock_goodput_tok_s": (goodput, "tok/s"),
    }


def timed_subprocess(args: list[str], repeats: int) -> float:
    """Median wall seconds of a fresh ``python`` running ``args``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def span_metrics(traced_passes: int) -> Metrics:
    """Seconds and calls per traced pass of every layer span."""
    tracer = tracing.TRACER
    totals = tracer.totals(tracer.roots_under("pass"))

    def per_pass(name: str, column: str, unit: str) -> tuple[float, str]:
        return (totals[name][column] / traced_passes if name in totals else 0.0, unit)

    builds = [
        end - start
        for name, start, end in zip(tracer.names, tracer.starts, tracer.ends)
        if name == "model.build"
    ]
    # Every workload builds a model: in set-up, or once per simulator call.
    metrics: Metrics = {"model.build_s": (statistics.median(builds), "s")}
    for name in (
        "model.prefill", "model.prefill_attention", "model.decode", "model.decode_attention",
        "model.kv_gather", "core.cluster_build", "core.select", "baselines.select",
        "prefixcache.match", "prefixcache.insert", "prefixcache.attach",
        "seqstate.checkpoint", "seqstate.restore", "cluster.autoscaler", "cluster.admission",
        "traffic.route", "traffic.report", "perfmodel.price",
        "execbackend.pool_start", "execbackend.parent_wait",
    ):
        metrics[f"{name}_s"] = per_pass(name, "total_s", "s")
    for name, metric in (
        ("core.cluster_build", "core.cluster_build_calls"),
        ("core.select", "core.select_calls"),
        ("seqstate.checkpoint", "seqstate.checkpoints"),
        ("seqstate.restore", "seqstate.restores"),
        ("perfmodel.price", "perfmodel.price_calls"),
    ):
        metrics[metric] = per_pass(name, "calls", "count")
    # Self time: the span minus what its child spans cover.
    metrics["model.dense_self_s"] = per_pass("model.decode", "self_s", "s")
    metrics["serving.step_self_s"] = per_pass("serving.step", "self_s", "s")
    metrics["traffic.sim_self_s"] = per_pass("traffic.run", "self_s", "s")
    return metrics


def counter_metrics(data: RunData, traced: list[PassResult], untraced: list[PassResult]) -> Metrics:
    """Counts and ratios taken where the work happens (no spans needed)."""
    both = traced + untraced
    step_wall, itl = pooled(both, "step_wall_s"), pooled(both, "itl_s")
    clusterkv = [
        item.result.selector_stats
        for result in traced
        for item in result.completed
        if item.result.method == "clusterkv"
    ]
    selections = sum(s.num_selections for s in clusterkv) * get_model_config(MODEL).n_kv_heads
    cache_tokens = sum(s.cache_hit_tokens + s.cache_miss_tokens for s in clusterkv)

    def prefix(key: str) -> float:
        return float(np.mean([r.prefix_cache.get(key, 0.0) for r in traced]))

    lookups = prefix("hits") + prefix("misses")
    metrics: Metrics = {
        "model.gemm_calls_per_tok": (
            data.gemm_calls / sum(p.output_tokens for p in traced), "1/tok",
        ),
        "core.selected_tokens_mean": (
            sum(s.selected_tokens for s in clusterkv) / selections if selections else 0.0, "tok",
        ),
        "core.cluster_cache_hit_rate": (
            sum(s.cache_hit_tokens for s in clusterkv) / cache_tokens if cache_tokens else 0.0,
            "share",
        ),
        "serving.steps": (len(step_wall) / len(both), "count"),
        "serving.step_p50_ms": (percentile_ms(step_wall, 50), "ms"),
        "serving.step_p99_ms": (percentile_ms(step_wall, 99), "ms"),
        "serving.batch_occupancy_mean": (float(np.mean(pooled(both, "occupancy"))), "req"),
        "serving.queue_wait_p50_ms": (percentile_ms(pooled(both, "queue_wait_s"), 50), "ms"),
        "serving.itl_p50_ms": (percentile_ms(itl, 50), "ms"),
        "serving.itl_p99_ms": (percentile_ms(itl, 99), "ms"),
        "serving.itl_samples": (float(len(itl)), "count"),
        "prefixcache.hit_rate": (prefix("hits") / lookups if lookups else 0.0, "share"),
        "prefixcache.hit_tokens": (prefix("hit_tokens"), "tok"),
        "prefixcache.evicted_tokens": (prefix("evicted_tokens"), "tok"),
    }
    return metrics


def fleet_metrics(data: RunData, traced: list[PassResult]) -> Metrics:
    """Control-plane outcomes and the simulators' own wall split.

    An engine workload has no report: no event, no replica and no second
    of simulator time, which is what it prints.
    """
    reports = [r.report for r in traced if r.report is not None]
    workers = reports[0].wall["backend"]["workers"] if reports else 0

    def mean(values) -> float:
        values = list(values)
        return float(np.mean(values)) if values else 0.0

    run_wall = mean(r.wall["run_wall_s"] for r in reports)
    step_wall = mean(r.wall["step_wall_s"] for r in reports)
    # Events the loop processed: submissions (retries included), engine
    # steps and fleet transitions.
    events = mean(
        p.clock.submits + len(p.clock.step_wall_s) + len(p.report.scaling)
        for p in traced
        if p.report is not None
    )
    metrics: Metrics = {
        "cluster.scale_events": (mean(len(r.scaling) for r in reports), "count"),
        "cluster.rejected": (mean(r.num_rejected for r in reports), "count"),
        "cluster.retries": (mean(r.num_retries for r in reports), "count"),
        "cluster.recoveries": (mean(r.num_recoveries for r in reports), "count"),
        "cluster.preemptions": (mean(r.num_preemptions for r in reports), "count"),
        "cluster.peak_replicas": (mean(r.num_replicas for r in reports), "count"),
        "traffic.run_wall_s": (run_wall, "s"),
        "traffic.engine_step_wall_s": (step_wall, "s"),
        "traffic.events": (events, "count"),
        "traffic.events_per_s": (events / run_wall if run_wall else 0.0, "1/s"),
        # Steps computed across the process boundary, and what the pass
        # loses to it; the serial backend has no workers and loses nothing.
        "execbackend.worker_step_wall_s": (step_wall if workers else 0.0, "s"),
        "execbackend.overhead_s": (run_wall - step_wall / workers if workers else 0.0, "s"),
        # Workers are reaped when a pass closes its pool, so their CPU time
        # is complete in the children's account when the pass returns.
        "execbackend.worker_cpu_s": (data.worker_cpu_per_pass_s, "s"),
    }
    if reports:
        metrics["cluster.slo_attainment"] = (mean(r.slo_attainment for r in reports), "share")
    return metrics


def twin_metrics(data: RunData, untraced: list[PassResult]) -> tuple[Metrics, int]:
    """The traced run's reference passes; also returns correctness mismatches.

    Engine workloads: the pass under full attention gives the paper's
    headline ratio.  ``fleet_mp``: the full-size serial twin gives the
    multiprocess speed-up and must produce the identical report.  Ours and
    the twin alternate, ``TWIN_PAIRS`` times, so both see the same box.
    A workload without a twin reports neither ratio.
    """
    metrics: Metrics = {}
    workload = data.workload
    mismatches = 0
    if isinstance(workload, EngineWorkload):
        full_session = workload.full_attention_session()
        ours: list[float] = []
        full: list[float] = []
        for pair in range(TWIN_PAIRS):
            ours += workload.run_pass(1000 + pair).clock.itl_s
            full += workload.run_pass(pair, session=full_session, policy="full").clock.itl_s
        metrics["core.decode_speedup_vs_full"] = (
            percentile_ms(full, 50) / percentile_ms(ours, 50), "x",
        )
    elif isinstance(workload, FleetMP):
        ours, serial = [], []
        for pair in range(TWIN_PAIRS):
            ours.append(workload.run_pass(pair).wall_s)
            twin = workload.run_pass(pair, simulate=workload.simulate_serial)
            serial.append(twin.wall_s)
            mismatches += int(twin.fingerprint != untraced[0].fingerprint)
        metrics["execbackend.mp_speedup"] = (
            statistics.median(serial) / statistics.median(ours), "x",
        )
    return metrics, mismatches


def per_layer_metrics(data: RunData, smoke: bool) -> tuple[Metrics, int]:
    """Every per-layer metric of BENCHMARK.json, plus the ratios only this
    workload measures (twin speed-ups, SLO attainment); also twin mismatches."""
    tracer = tracing.TRACER
    traced, untraced = data.passes[0::2], data.passes[1::2]
    within = tracer.roots_under("pass")
    twins, twin_mismatches = twin_metrics(data, untraced)
    metrics: Metrics = {
        **span_metrics(len(traced)),
        **counter_metrics(data, traced, untraced),
        **fleet_metrics(data, traced),
        **twins,
        **virtual_clock_metrics(traced[0]),
        "cli.import_s": (timed_subprocess(["-c", "import repro"], 1 if smoke else 3), "s"),
        "cli.list_s": (timed_subprocess(["-m", "repro", "list"], 1 if smoke else 3), "s"),
        "quality.recall_at_budget": (data.recall, "share"),
        "quality.mismatches": (float(data.mismatches + twin_mismatches), "count"),
        "box.calib_ms": (statistics.median(data.calib), "ms"),
        "box.calib_spread": (
            (max(data.calib) - min(data.calib)) / statistics.median(data.calib), "share",
        ),
        "trace.tok_s": (median_tok_s(traced), "tok/s"),
        "trace.untraced_tok_s": (median_tok_s(untraced), "tok/s"),
        "trace.pass_wall_s": (float(np.mean([p.wall_s for p in traced])), "s"),
        # Spans times the cost of one empty span: comparing two passes'
        # wall times on a shared box would measure the box, not the tracer.
        "trace.overhead_share": (
            len(within) * tracing.span_cost_s() / sum(p.wall_s for p in traced), "share",
        ),
        "trace.unaccounted_share": (tracer.conservation("pass")["unaccounted_share"], "share"),
        "trace.spans": (float(len(within)), "count"),
    }
    return metrics, twin_mismatches


def finish_trace(name: str, seed: int, env: dict[str, object]) -> None:
    """Print the tree, write the spans, enforce the conservation check."""
    tracer = tracing.TRACER
    conservation = tracer.conservation("pass")
    print(tracer.tree("pass"))
    print(
        f"conservation: root {conservation['root_s']:.3f} s, unaccounted "
        f"{100 * conservation['unaccounted_share']:.2f} %, "
        f"{int(conservation['violations'])} spans whose children exceed them"
    )
    tracer.write(os.path.join(OUT_DIR, f"trace_{name}_seed{seed}.json"), env)
    tracer.uninstall()
    if conservation["violations"] or conservation["unaccounted_share"] >= 0.05:
        raise SystemExit("--trace: span conservation check failed")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def measure(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, process_start: float
) -> RunData:
    """Set-up, timed passes, correctness gate and recall pass of one workload."""
    tracer = tracing.TRACER
    workload = WORKLOADS[name](seed, smoke)
    tracer.enabled = traced
    workload.setup()
    tracer.enabled = False
    # Process start -> ready for the first timed pass: imports, inputs,
    # builds, warm-up.  Once per process, so every part of it is cold.
    setup_s = time.perf_counter() - process_start

    passes: list[PassResult] = []
    gemm_calls = 0
    calib = [calib_ms()]
    timed_start = time.perf_counter()
    worker_cpu_start = reaped_cpu_seconds()
    while len(passes) < MIN_PASSES or time.perf_counter() - timed_start < seconds:
        gc.collect()
        # In a traced run every other pass is traced, so one run shows both
        # the per-layer split and untraced passes to compare it with.
        tracer.enabled = traced and len(passes) % 2 == 0
        if tracer.enabled:
            with count_ops() as counter:
                passes.append(workload.run_pass(len(passes)))
            gemm_calls += sum(n for key, n in counter.counts.items() if key.startswith("gemm."))
        else:
            passes.append(workload.run_pass(len(passes)))
        tracer.enabled = False
        calib.append(calib_ms())
    timed_s = time.perf_counter() - timed_start

    return RunData(
        workload=workload,
        setup_s=setup_s,
        passes=passes,
        timed_s=timed_s,
        calib=calib,
        peak_rss_mb=peak_rss_mb(),
        worker_cpu_per_pass_s=(reaped_cpu_seconds() - worker_cpu_start) / len(passes),
        gemm_calls=gemm_calls,
        mismatches=workload.verify(passes),
        recall=workload.recall_at_budget(),
    )


def run(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    process_start: float, listed: list[str],
) -> tuple[dict[str, object], Metrics, dict[str, object]]:
    """Run one workload; returns (result line, metrics, environment record).

    The result line carries the ``listed`` metrics (those of
    ``BENCHMARK.json``); ``metrics`` may hold more, measured by this
    workload only.
    """
    if traced:
        missing = tracing.TRACER.install()
        if missing:
            raise SystemExit(f"--trace: cannot wrap {', '.join(missing)}")
    data = measure(name, seed, seconds, traced, smoke, process_start)
    env = environment(seed, data)
    mismatches = data.mismatches
    if traced:
        metrics, twin_mismatches = per_layer_metrics(data, smoke)
        mismatches += twin_mismatches
        finish_trace(name, seed, env)
    else:
        metrics = end_to_end_metrics(data)
    result = {
        "correct": mismatches == 0,
        "attempted": sum(p.attempted for p in data.passes),
        "failed": sum(p.failed for p in data.passes) + mismatches,
        "metrics": {
            key: {"value": metrics[key][0], "unit": metrics[key][1]} for key in listed
        },
    }
    return result, metrics, env
