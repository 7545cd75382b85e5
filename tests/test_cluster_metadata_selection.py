"""Unit tests for cluster metadata, indexing and cluster-granularity selection."""

import numpy as np
import pytest

from repro.core.clustering import ClusteringResult, kmeans_cluster
from repro.core.metadata import ClusterMetadata
from repro.core.selection import score_centroids, select_clusters


def _make_result(labels, centroids):
    return ClusteringResult(
        labels=np.asarray(labels, dtype=np.int64),
        centroids=np.asarray(centroids, dtype=np.float64),
        n_iters=1,
        converged=True,
    )


class TestClusterMetadata:
    def test_paper_figure8_example(self):
        """Reproduce the metadata of the paper's Fig. 8 walk-through.

        Keys k0..k5 with k0,k5 -> cluster 2, k1 -> cluster 0, k2,k3,k4 ->
        cluster 1; sizes are (1, 3, 2) and the sorted indices group tokens by
        cluster label.
        """
        labels = [2, 0, 1, 1, 1, 2]
        centroids = np.eye(3, 4)
        meta = ClusterMetadata(head_dim=4)
        meta.append_clustering(_make_result(labels, centroids), token_offset=0)
        np.testing.assert_array_equal(meta.cluster_sizes, [1, 3, 2])
        np.testing.assert_array_equal(meta.prefix_sum, [0, 1, 4])
        np.testing.assert_array_equal(meta.sorted_indices, [1, 2, 3, 4, 0, 5])
        np.testing.assert_array_equal(meta.cluster_tokens(1), [2, 3, 4])
        np.testing.assert_array_equal(meta.cluster_tokens(2), [0, 5])

    def test_token_offset_applied(self):
        meta = ClusterMetadata(head_dim=2)
        meta.append_clustering(_make_result([0, 1, 0], np.zeros((2, 2))), token_offset=10)
        np.testing.assert_array_equal(meta.cluster_tokens(0), [10, 12])
        np.testing.assert_array_equal(meta.cluster_tokens(1), [11])

    def test_append_assigns_fresh_labels(self):
        meta = ClusterMetadata(head_dim=2)
        first = meta.append_clustering(_make_result([0, 1], np.zeros((2, 2))), 0)
        second = meta.append_clustering(_make_result([0, 0, 1], np.ones((2, 2))), 2)
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(second, [2, 3])
        assert meta.num_clusters == 4
        assert meta.num_tokens == 5
        np.testing.assert_array_equal(meta.cluster_tokens(2), [2, 3])

    def test_tokens_of_clusters_concatenates(self):
        meta = ClusterMetadata(head_dim=2)
        meta.append_clustering(_make_result([0, 1, 1, 0], np.zeros((2, 2))), 0)
        tokens = meta.tokens_of_clusters(np.array([1, 0]))
        np.testing.assert_array_equal(tokens, [1, 2, 0, 3])

    def test_invalid_label_raises(self):
        meta = ClusterMetadata(head_dim=2)
        meta.append_clustering(_make_result([0], np.zeros((1, 2))), 0)
        with pytest.raises(IndexError):
            meta.cluster_tokens(3)

    def test_metadata_bytes_positive(self):
        meta = ClusterMetadata(head_dim=4)
        meta.append_clustering(_make_result([0, 0, 1], np.zeros((2, 4))), 0)
        assert meta.metadata_nbytes() > 0

    def test_dimension_mismatch_raises(self):
        meta = ClusterMetadata(head_dim=4)
        with pytest.raises(ValueError):
            meta.append_clustering(_make_result([0], np.zeros((1, 3))), 0)


class TestScoreCentroids:
    def test_inner_product_scores(self, rng):
        query = rng.normal(size=6)
        centroids = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            score_centroids(query, centroids, "ip"), centroids @ query
        )

    def test_cosine_bounded(self, rng):
        query = rng.normal(size=6)
        centroids = rng.normal(size=(4, 6))
        scores = score_centroids(query, centroids, "cosine")
        assert np.all(np.abs(scores) <= 1.0 + 1e-9)

    def test_empty_centroids(self):
        assert score_centroids(np.ones(3), np.zeros((0, 3))).shape == (0,)


class TestSelectClusters:
    def _metadata(self):
        """Three clusters whose centroids are axis-aligned unit vectors."""
        labels = [0, 0, 1, 1, 1, 2, 2, 2, 2]
        centroids = np.eye(3, 4)
        meta = ClusterMetadata(head_dim=4)
        meta.append_clustering(_make_result(labels, centroids), token_offset=0)
        return meta

    def test_selects_closest_cluster_first(self):
        meta = self._metadata()
        query = np.array([10.0, 1.0, 0.0, 0.0])
        outcome = select_clusters(query, meta, budget=2)
        assert outcome.selected_labels[0] == 0
        np.testing.assert_array_equal(outcome.token_indices, [0, 1])
        assert outcome.num_trimmed == 0

    def test_budget_spans_multiple_clusters(self):
        meta = self._metadata()
        query = np.array([10.0, 5.0, 1.0, 0.0])
        outcome = select_clusters(query, meta, budget=5)
        np.testing.assert_array_equal(outcome.selected_labels, [0, 1])
        np.testing.assert_array_equal(outcome.token_indices, [0, 1, 2, 3, 4])

    def test_trimming_respects_budget(self):
        meta = self._metadata()
        query = np.array([10.0, 5.0, 1.0, 0.0])
        outcome = select_clusters(query, meta, budget=4)
        assert outcome.token_indices.shape[0] == 4
        assert outcome.trimmed_label == 1
        assert outcome.num_trimmed == 1

    def test_budget_larger_than_everything(self):
        meta = self._metadata()
        query = np.array([0.0, 0.0, 1.0, 0.0])
        outcome = select_clusters(query, meta, budget=100)
        assert outcome.token_indices.shape[0] == meta.num_tokens
        assert outcome.num_trimmed == 0

    def test_zero_budget(self):
        meta = self._metadata()
        outcome = select_clusters(np.ones(4), meta, budget=0)
        assert outcome.token_indices.shape[0] == 0
        assert outcome.selected_labels.shape[0] == 0

    def test_negative_budget_raises(self):
        meta = self._metadata()
        with pytest.raises(ValueError):
            select_clusters(np.ones(4), meta, budget=-1)

    def test_centroid_trim_keeps_closest_members(self, rng):
        """With the 'centroid' policy the kept tokens are closest to the centroid."""
        keys = np.concatenate(
            [
                np.tile(np.array([1.0, 0.0]), (4, 1)) + 0.01 * rng.normal(size=(4, 2)),
                np.tile(np.array([0.0, 1.0]), (4, 1)) + 0.01 * rng.normal(size=(4, 2)),
            ]
        )
        clustering = kmeans_cluster(keys, 2, seed=0)
        meta = ClusterMetadata(head_dim=2)
        meta.append_clustering(clustering, 0, keys=keys)
        query = np.array([1.0, 0.9])
        outcome = select_clusters(query, meta, budget=6, trim_policy="centroid")
        assert outcome.token_indices.shape[0] == 6
        assert outcome.num_trimmed == 2

    def test_selection_flops_accounted(self):
        meta = self._metadata()
        outcome = select_clusters(np.ones(4), meta, budget=2)
        assert outcome.score_flops == 2 * meta.num_clusters * meta.head_dim
