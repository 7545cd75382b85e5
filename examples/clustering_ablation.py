"""Ablation of ClusterKV's clustering choices (paper Fig. 11b, miniature).

Measures the recall rate of important tokens for different clustering
distance metrics (cosine vs. L2 vs. inner product) and for different numbers
of prefill clusters C0, on a long NarrativeQA-analogue sample.

Run with:  python examples/clustering_ablation.py
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, ContextScale, Fig11Config


def main() -> None:
    config = Fig11Config(
        scale=ContextScale(32),
        paper_budgets=(256, 1024, 2048),
        decode_steps=8,
        ablation_cluster_counts=(200, 400, 800),
    )
    # ``repro fig11`` runs Fig. 11a (methods) and Fig. 11b (ablation).
    fig11 = EXPERIMENTS.build("fig11")
    methods, ablation = fig11.run(config)
    print(fig11.format((methods, ablation)))
    print()
    largest = max(config.paper_budgets)
    best_metric = max(
        ("cosine", "l2", "ip"),
        key=lambda metric: ablation.curves[f"metric={metric}"][largest],
    )
    print(f"best clustering metric at budget {largest}: {best_metric}")


if __name__ == "__main__":
    main()
