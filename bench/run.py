"""The benchmark's one command.

``python bench/run.py --workload NAME --seed S`` runs one workload in this
(fresh) process and prints every metric by name with its unit; the last
line of standard output is the JSON result the driver reads.  ``--all``
runs the five workloads in sequence, each in its own process.  ``--trace
1`` is the separate traced run and prints the per-layer metrics instead
of the end-to-end ones.  ``--smoke`` runs toy sizes (all five in < 10 s).
"""

import os
import time

PROCESS_START = time.perf_counter()

# One BLAS thread: at d_model=128 OpenBLAS threading buys no wall time,
# doubles the CPU time and adds a sporadic stall to the first LAPACK call.
# Must be set before NumPy is imported; worker processes inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_args() -> argparse.Namespace:
    # BENCHMARK.json is the one place workload names and run length are declared.
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0, help="chooses the token ids")
    parser.add_argument(
        "--seconds", type=float, default=None, help="how long the timed passes run"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics)",
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes, two passes")
    args = parser.parse_args()
    if args.smoke and not args.workload:
        args.all = True
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else spec["run_seconds"]
    args.names = names
    args.listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so set-up time and peak RSS are its own."""
    worst = 0
    for name in args.names:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    A simulator call reaps its own worker pool, so on the way out of a good
    run only multiprocessing's resource tracker is left: the shared-memory
    weight arena starts it, and it would outlive this process by the moment
    it takes to notice the closed pipe.  Workers are alive here only when a
    pass died half-way.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # The tracker has no public stop: closing its pipe ends it, then it is reaped.
    resource_tracker._resource_tracker._stop()


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    import harness

    # A terminated run leaves through the same ``finally`` as a finished one;
    # a forked worker inherits the handler and just ends.
    main_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        result, metrics, env = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            PROCESS_START, args.listed,
        )
    finally:
        stop_children()
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.all else run_one(arguments))
