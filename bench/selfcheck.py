"""Is the benchmark steady enough for its own bounds?

Runs two sets of ``RUNS`` runs of this checkout, each run with another
seed (``FIRST_SEED`` onwards), alternating workloads so
that box drift hits all of them alike.  Per end-to-end metric and workload
it prints the two medians, their gap, the quartile spread of each set as a
share of its median (``statistics.quantiles(values, n=4)``) and the bound
from ``BENCHMARK.json``.  Both sets run the same code, so the direction of
a gap means nothing: its size is what is held against the bound.  The
driver accepts a benchmark whose spreads and same-code gap stay within the
bound; this script flags the stricter targets — a spread above a third of
the bound, a gap above half of it — and exits 1 when anything is flagged
(``bench/README.md`` says what was done about the flags on this box).
Deterministic metrics must repeat exactly for equal seeds: every
workload's traced run is made twice with one seed and compared.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
FIRST_SEED = 1
# Metrics of the traced run that must not differ between two runs of one seed.
EXACT = (
    "vclock_ttft_p50_s", "vclock_tpot_mean_s", "vclock_goodput_tok_s",
    "quality.recall_at_budget", "quality.mismatches",
)
REPO_ROOT = os.path.dirname(BENCH_DIR)


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run as the driver makes it; returns the parsed result line."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, check=True, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed run: {result}")
    result["env"] = next(json.loads(l[6:]) for l in lines if l.startswith("# env "))
    return result


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    # values[set][workload][metric] -> one value per run
    values = [
        {w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(2)
    ]
    environments = []
    for which in range(2):
        for index in range(RUNS):
            seed = FIRST_SEED + which * RUNS + index
            for workload in workloads:
                result = run_once(spec["command"], workload, seed, seconds)
                for metric in metrics:
                    values[which][workload][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"]
                    )
                environments.append(result["env"])
                print(f"set {which + 1} run {index + 1}/{RUNS} {workload} done", flush=True)

    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "selfcheck.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"runs": RUNS, "first_seed": FIRST_SEED, "values": values, "env": environments},
            handle,
        )

    flagged = 0
    print(
        f"\n{'workload':<15} {'metric':<17} {'median 1':>11} {'median 2':>11} "
        f"{'gap':>7} {'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict"
    )
    for workload in workloads:
        for metric in metrics:
            first = values[0][workload][metric["name"]]
            second = values[1][workload][metric["name"]]
            m1, m2 = statistics.median(first), statistics.median(second)
            gap = (m2 - m1) / m1
            s1, s2 = spread(first), spread(second)
            bound = metric["bound"]
            problems = []
            # The driver does not hold setup_s to a spread, only to the gap.
            if metric["name"] != "setup_s" and max(s1, s2) > bound / 3:
                problems.append("spread > bound/3")
            if abs(gap) > bound / 2:
                problems.append("gap > bound/2")
            flagged += bool(problems)
            print(
                f"{workload:<15} {metric['name']:<17} {m1:>11.4g} {m2:>11.4g} "
                f"{100 * gap:>+6.1f}% {100 * s1:>8.1f}% {100 * s2:>8.1f}% "
                f"{100 * bound:>5.0f}%  {', '.join(problems) or 'ok'}"
            )

    for workload in workloads:
        a, b = (run_once(spec["command"], workload, FIRST_SEED, seconds, trace=1) for _ in range(2))
        differing = [
            name for name in EXACT if a["metrics"][name]["value"] != b["metrics"][name]["value"]
        ]
        flagged += bool(differing)
        print(f"{workload:<15} deterministic metrics repeat exactly: "
              f"{'yes' if not differing else 'NO: ' + ', '.join(differing)}")

    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
