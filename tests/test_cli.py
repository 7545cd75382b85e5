"""Unit tests for the command-line interface."""

import hashlib
import shlex

import pytest

from repro.cli import build_parser, dataclass_from_args, main
from repro.serving import ServeBenchConfig
from repro.traffic import TrafficBenchConfig

# Golden CLI behaviour: sha256(stdout)[:16] of ``main(argv)``, taken at the
# commit before the bench configs became composed and the flags generated
# (identical with 1 and 2 BLAS threads).  Every legacy flag spelling, default
# and sentinel below must keep its meaning.
TINY = (
    "--model tiny --prompt-len-min 16 --prompt-len-max 24 --new-tokens 4 "
    "--budget 16 --json"
)
TRAFFIC_GOLDEN = f"traffic-bench --requests 4 --rate 0.8 --replicas 2 --router jsq --seed 3 {TINY}"
CLUSTER_GOLDEN = (
    "cluster-bench --requests 4 --rate 0.8 --min-replicas 1 --max-replicas 2 "
    "--autoscaler queue_depth:high=1,low=0.25,cooldown_s=1 --admission token_budget "
    f"--kill 4.0@0 --seed 3 {TINY}"
)
PERF_GOLDEN = "perf-bench"
GOLDEN = {
    TRAFFIC_GOLDEN: "352b1cb3b2b99205",
    "traffic-bench --requests 6 --arrivals onoff --burstiness 6 --policy clusterkv "
    f"--policy full --seed 1 {TINY}": "433ef2636ecf92d6",
    "traffic-bench --requests 6 --prefix-cache 256 --prefix-block 8 "
    f"--router prefix_affine --prefill-chunk 8 --seed 0 {TINY}": "3c6633d2610a3449",
    "traffic-bench --requests 6 --slo-class-mix 0.5 --preempt --router slo_aware "
    "--slo-ttft 1.0 --slo-tpot 0 --clock perfmodel --arch llama-3.1-8b "
    f"--context-scale 32 --seed 2 {TINY}": "b90e012777508404",
    f"traffic-bench --requests 4 --speculate 3 --drafter ngram --seed 0 {TINY}": "7c2a273998d1a8bd",
    # A batch wider than the default 8 still prefills in one step.  The flag is
    # new on traffic-bench; the digest is that commit's
    # ``TrafficBenchConfig(max_batch_size=16, ...)`` report.
    "traffic-bench --requests 16 --batch 16 --rate 200 --replicas 1 --seed 0 "
    f"{TINY}": "1d77a9ae15841adb",
    CLUSTER_GOLDEN: "90f1b0234c8bd468",
    "cluster-bench --requests 8 --rate 2 --migrate-on-drain --checkpoint-interval 2 "
    f"--kill 3.0 --max-retries 1 --seed 0 {TINY}": "5eabe0359d3be1c4",
    "cluster-bench --requests 8 --rate 2 --failure-zones 2 --kill 2.0@zone0 "
    "--min-replicas 3 --failure-count 1 --failure-seed 7 --failure-horizon 6 "
    f"--seed 0 {TINY}": "7537f3f52ce5673a",
    "capacity-bench --scenario oom_finder --sweep 32:64:32 --concurrency 1 "
    "--concurrency 2 --new-tokens 4 --budget 16 --model tiny "
    "--tiers gpu=64KiB,host=96KiB,ssd=1MiB --json": "73f366f09ddc26f1",
    "capacity-bench --scenario latency_curve --sweep 32:64:32 --concurrency 2 "
    "--rates 0.5 2.0 --requests 4 --new-tokens 4 --budget 16 --model tiny "
    "--slo-ttft 4 --slo-tpot 0.5 --slo-floor 0.5 --seed 1 --json": "748d6b1dfca68fb7",
    # perf-bench joined the table when it stopped timing anything: its stdout
    # is the deterministic counters, pinned from that commit on.
    PERF_GOLDEN: "79b6c4afe7423b1d",
}


def stdout_digest(capsys, argv: str) -> tuple[str, str]:
    """Run ``main(argv)``; return its stdout and the golden-style digest."""
    assert main(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    return out, hashlib.sha256(out.encode()).hexdigest()[:16]


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig12"])
        assert args.command == "fig12"
        args = parser.parse_args(["fig9", "--scale", "32", "--samples", "3"])
        assert args.scale == 32
        assert args.samples == 3

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_serve_bench_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve-bench", "--batch", "4", "--requests", "6", "--methods", "full"]
        )
        assert args.command == "serve-bench"
        config = dataclass_from_args(ServeBenchConfig, args)
        assert config.engine.max_batch_size == 4
        assert config.num_requests == 6
        assert config.methods == ("full",)

    def test_serve_bench_policy_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve-bench",
                "--policy", "clusterkv:tokens_per_cluster=32",
                "--policy", "quest:page_size=8",
                "--mixed",
            ]
        )
        assert args.policy == ["clusterkv:tokens_per_cluster=32", "quest:page_size=8"]
        assert args.mixed is True

    def test_serve_bench_policy_json_flag(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve-bench", "--policy-json", '{"name": "quest", "page_size": 32}']
        )
        assert args.policy_json == '{"name": "quest", "page_size": 32}'

    def test_traffic_bench_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "traffic-bench",
                "--rate", "0.7",
                "--replicas", "2",
                "--router", "jsq",
                "--arrivals", "onoff",
                "--slo-ttft", "3.0",
                "--seed", "5",
            ]
        )
        assert args.command == "traffic-bench"
        config = dataclass_from_args(TrafficBenchConfig, args)
        assert config.workload.rate == 0.7
        assert config.fleet.num_replicas == 2
        assert config.fleet.router == "jsq"
        assert config.workload.arrivals == "onoff"
        assert config.fleet.slo.ttft_s == 3.0
        assert config.workload.seed == 5
        # --seed is the workload seed; the engine's sampling seed is its own flag.
        assert config.fleet.engine.seed == 0


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "regenerate" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "cache-study" in out
        # Every subcommand is enumerated, including serving and list itself.
        assert "serve-bench" in out
        assert "list" in out
        # Registered policies are enumerated from the registry.
        for policy in ("clusterkv", "quest", "infinigen", "streaming_llm", "full"):
            assert policy in out

    def test_mixed_serve_bench_runs(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--mixed",
                    "--requests", "3",
                    "--batch", "3",
                    "--prompt-len", "12",
                    "--new-tokens", "4",
                    "--repeats", "1",
                    "--policy", "streaming_llm",
                    "--policy", "quest:page_size=8",
                    "--policy", "full",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per-request policies" in out
        assert "quest:page_size=8" in out

    def test_policy_json_serve_bench_runs(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--requests", "2",
                    "--batch", "2",
                    "--prompt-len", "12",
                    "--new-tokens", "4",
                    "--repeats", "1",
                    # Object form and bare-string form mix in one list.
                    "--policy-json", '[{"name": "streaming_llm"}, "full"]',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streaming_llm" in out and "full" in out

    def test_policy_json_rejects_non_mapping_entries(self):
        with pytest.raises(ValueError, match="policy objects"):
            main(
                [
                    "serve-bench",
                    "--repeats", "1",
                    "--policy-json", "[42]",
                ]
            )

    @pytest.mark.parametrize(
        "argv",
        [a for a in GOLDEN if a not in (TRAFFIC_GOLDEN, CLUSTER_GOLDEN, PERF_GOLDEN)],
    )
    def test_golden_stdout(self, capsys, argv):
        assert stdout_digest(capsys, argv)[1] == GOLDEN[argv]

    def test_traffic_bench_runs_and_is_bit_reproducible(self, capsys):
        first, digest = stdout_digest(capsys, TRAFFIC_GOLDEN)
        second, _ = stdout_digest(capsys, TRAFFIC_GOLDEN)
        # The acceptance contract: identical TrafficReport JSON run-to-run.
        assert first == second
        assert '"num_replicas": 2' in first
        assert digest == GOLDEN[TRAFFIC_GOLDEN]

    def test_perf_bench_is_bit_reproducible(self, capsys):
        first, digest = stdout_digest(capsys, PERF_GOLDEN)
        second, _ = stdout_digest(capsys, PERF_GOLDEN)
        assert first == second
        assert "[perf-bench]" in first
        assert digest == GOLDEN[PERF_GOLDEN]

    @pytest.mark.parametrize("flag", ["--counters-only", "--write=BENCH_hotpaths.json"])
    def test_perf_bench_has_no_stopwatch_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["perf-bench", flag])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_traffic_bench_table_output(self, capsys):
        assert (
            main(
                [
                    "traffic-bench",
                    "--model", "tiny",
                    "--requests", "3",
                    "--rate", "1.0",
                    "--replicas", "1",
                    "--router", "round_robin",
                    "--prompt-len-min", "16",
                    "--prompt-len-max", "24",
                    "--new-tokens", "4",
                    "--budget", "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[traffic-bench]" in out
        assert "goodput" in out
        assert "ttft_s" in out

    def test_list_includes_traffic_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "traffic-bench" in out
        for router in ("round_robin", "jsq", "least_kv"):
            assert router in out
        for process in ("poisson", "onoff", "constant"):
            assert process in out

    def test_list_includes_cluster_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cluster-bench" in out
        for autoscaler in ("static", "queue_depth", "slo_attainment"):
            assert autoscaler in out
        for admission in ("always", "token_budget", "queue_deadline"):
            assert admission in out

    def test_cluster_bench_runs_and_is_bit_reproducible(self, capsys):
        first, digest = stdout_digest(capsys, CLUSTER_GOLDEN)
        second, _ = stdout_digest(capsys, CLUSTER_GOLDEN)
        assert first == second
        assert '"autoscaler"' in first
        assert '"failures"' in first
        assert digest == GOLDEN[CLUSTER_GOLDEN]

    def test_cluster_bench_table_output(self, capsys):
        assert (
            main(
                [
                    "cluster-bench",
                    "--model", "tiny",
                    "--requests", "3",
                    "--rate", "1.0",
                    "--min-replicas", "1",
                    "--max-replicas", "2",
                    "--prompt-len-min", "16",
                    "--prompt-len-max", "24",
                    "--new-tokens", "4",
                    "--budget", "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cluster: autoscaler=slo_attainment" in out
        assert "scaling timeline:" in out

    def test_cluster_bench_rejects_malformed_kill(self):
        with pytest.raises(ValueError, match="malformed --kill"):
            main(["cluster-bench", "--kill", "nonsense"])

    def test_fig12_runs_and_prints_table(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "[Fig. 12]" in out
        assert "best speedup" in out

    def test_fig13_runs(self, capsys):
        assert main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "[Fig. 13a]" in out and "[Fig. 13b]" in out

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "fig12.txt"
        assert main(["fig12", "--out", str(target)]) == 0
        assert "[Fig. 12]" in target.read_text()
