"""Latency and throughput projection at the paper's true scale (Fig. 12/13).

Uses the analytical performance model to project end-to-end latency of
ClusterKV against the full KV cache, Quest and InfiniGen on Llama-3.1-8B and
OPT-6.7B class models running on an NVIDIA Ada 6000, over the same
prompt/decode/budget grid the paper evaluates.

Run with:  python examples/latency_projection.py
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS
from repro.model import get_reference_architecture
from repro.perfmodel import ADA_6000, LatencyModel


def main() -> None:
    # What ``repro fig12`` and ``repro fig13`` print: each registered
    # experiment runs its default config and formats the result.
    for name in ("fig12", "fig13"):
        experiment = EXPERIMENTS.build(name)
        print(experiment.format(experiment.run(experiment.config_cls())))
        print()

    # Caching study at the paper's hit rates (Sec. V-C).
    arch = get_reference_architecture("llama-3.1-8b")
    model = LatencyModel(arch, ADA_6000)
    no_cache = model.decode_step(
        "clusterkv", 32768, 1024, cache_hit_rate=0.0, cluster_cache_enabled=False
    )
    for history, hit_rate in ((1, 0.63), (2, 0.74)):
        cached = model.decode_step("clusterkv", 32768, 1024, cache_hit_rate=hit_rate)
        gain = no_cache["total"] / cached["total"]
        print(
            f"cluster cache R={history}: hit rate {hit_rate:.0%} -> "
            f"decode throughput x{gain:.2f} vs. direct CPU loading"
        )


if __name__ == "__main__":
    main()
