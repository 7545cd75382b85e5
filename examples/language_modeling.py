"""Language modelling with a compressed KV cache (paper Fig. 10, miniature).

Scores a book-like synthetic corpus (the PG19 analogue) under every method
with a fixed KV budget and prints perplexity as a function of the input
length.  ClusterKV should track the full-KV curve closely; Quest should
deviate the most.

Run with:  python examples/language_modeling.py
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, ContextScale, Fig10Config


def main() -> None:
    config = Fig10Config(
        paper_lengths=(8000, 16000, 32000),
        num_samples=2,
        scored_tokens=32,
        scale=ContextScale(32),
    )
    fig10 = EXPERIMENTS.build("fig10")
    result = fig10.run(config)
    print(fig10.format(result))
    print()
    for method in ("clusterkv", "infinigen", "quest"):
        deviation = result.deviation_from_full(method)
        print(f"perplexity deviation of {method:10s} vs full KV: {deviation:+.3f}")


if __name__ == "__main__":
    main()
