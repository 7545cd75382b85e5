"""Long-document QA: compare KV compression methods on LongBench analogues.

A miniature version of the paper's Fig. 9 / Table I experiment: every method
(Full KV, ClusterKV, Quest, InfiniGen) answers questions over long synthetic
documents under several KV budgets, and the per-task and average scores are
printed.

Run with:  python examples/long_document_qa.py
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, ContextScale, Fig9Config

# Two representative tasks (one single-doc, one multi-hop) keep the example
# under a couple of minutes; add more task names from LONGBENCH_TASKS to
# reproduce the full figure.
TASKS = ("multifieldqa", "hotpotqa")


def main() -> None:
    config = Fig9Config(
        tasks=TASKS,
        paper_budgets=(256, 1024, 2048),
        num_samples=3,
        scale=ContextScale(32),
    )
    # ``repro fig9`` runs Fig. 9 and averages it into Table I.
    fig9 = EXPERIMENTS.build("fig9")
    result = fig9.run(config)

    print(fig9.format(result))
    print()
    tight = min(result.averages["clusterkv"])
    print(
        "At the tightest budget ClusterKV scores "
        f"{result.averages['clusterkv'][tight]:.1f} vs. Quest "
        f"{result.averages['quest'][tight]:.1f} and InfiniGen "
        f"{result.averages['infinigen'][tight]:.1f} "
        f"(full KV: {result.averages['full'][tight]:.1f})."
    )


if __name__ == "__main__":
    main()
