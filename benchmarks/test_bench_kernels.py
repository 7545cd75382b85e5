"""ClusterKV's algorithmic kernels at the paper's per-head shapes.

These do not correspond to a specific paper figure; each calls one of the
building blocks the paper optimises with custom CUDA kernels (clustering,
selection/indexing, cache lookup) once on a 2048-key head and checks the
shape of what comes back.  Their cost is on the record in ``bench/run.py``
(``core.cluster_build_s``, ``core.select_s``), not here.
"""

import numpy as np
import pytest

from repro.core import ClusterKVConfig, ClusterMetadata, kmeans_cluster, select_clusters
from repro.core.clusterkv import ClusterKVLayerState


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(0)
    return rng.normal(size=(2048, 64))


def test_bench_kmeans_clustering(keys):
    """K-means over 2048 keys into 2048/80 clusters (one head, one layer)."""
    result = kmeans_cluster(keys, 2048 // 80, "cosine", 10, 0)
    assert result.n_clusters == 2048 // 80


def test_bench_cluster_selection(keys):
    """Centroid scoring + prefix-sum indexing for one query."""
    clustering = kmeans_cluster(keys, 2048 // 80, seed=0)
    metadata = ClusterMetadata(head_dim=64)
    metadata.append_clustering(clustering, token_offset=0)
    query = np.random.default_rng(1).normal(size=64)

    outcome = select_clusters(query, metadata, 256)
    assert outcome.token_indices.shape[0] == 256


def test_bench_layer_state_decode_step(keys):
    """A full per-layer ClusterKV decode step: observe + select for 4 kv heads."""
    config = ClusterKVConfig(tokens_per_cluster=80, decode_window=64, num_sink_tokens=16)
    state = ClusterKVLayerState(0, 4, 64, config)
    rng = np.random.default_rng(2)
    state.observe_prefill(rng.normal(size=(4, 2048, 64)))
    queries = rng.normal(size=(4, 2, 64))

    def step():
        state.observe_decode(rng.normal(size=(4, 1, 64)))
        return state.select(queries, budget=256, step=0)

    selections = step()
    assert len(selections) == 4
