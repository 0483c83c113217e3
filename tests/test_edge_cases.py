"""Degenerate-input contracts: empty clouds, single points, one-leaf trees.

The build / batch-query / clustering / compression stack must either handle
degenerate inputs correctly or reject them with a clear ``ValueError`` —
never crash with an internal error.  These tests pin down the contract for
every such boundary the pipeline can reach, including the systematic
frame-sub-sampling helper's degenerate ranges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionConfig, get_backend
from repro.hwmodel.cache import HierarchyRecorder
from repro.kdtree import (
    KDTreeConfig,
    SearchStats,
    build_kdtree,
    nearest_neighbors,
    radius_search,
)
from repro.perception import ClusterConfig, EuclideanClusterExtractor, label_clusters
from repro.pointcloud import PointCloud, preprocess_for_clustering, systematic_subsample
from repro.workloads import EuclideanClusterPipeline


class TestEmptyClouds:
    def test_preprocess_chain_keeps_empty_empty(self):
        filtered = preprocess_for_clustering(PointCloud())
        assert filtered.is_empty

    def test_build_kdtree_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            build_kdtree(PointCloud())

    def test_extract_on_empty_cloud(self):
        result = EuclideanClusterExtractor().extract(PointCloud())
        assert result.n_clusters == 0
        assert result.n_points == 0
        assert result.search_stats.queries == 0
        assert result.labels.shape == (0,)

    def test_extract_on_empty_cloud_with_recorder(self):
        result = EuclideanClusterExtractor(
            recorder=HierarchyRecorder()).extract(PointCloud())
        assert result.n_clusters == 0

    def test_pipeline_rejects_frame_that_filters_to_nothing(self):
        # A frame of pure ground returns is entirely removed by
        # pre-processing; the cost model cannot price an empty kernel.
        ground = PointCloud(np.column_stack([
            np.linspace(-20, 20, 400), np.linspace(-5, 5, 400),
            np.full(400, -1.8),
        ]).astype(np.float32))
        with pytest.raises(ValueError, match="removed every point"):
            EuclideanClusterPipeline().run_frame(ground)

    def test_label_clusters_on_no_clusters(self):
        assert label_clusters(PointCloud(), []) == []


class TestSinglePointClouds:
    @pytest.fixture(scope="class")
    def one(self):
        return build_kdtree(np.array([[1.0, -2.0, 0.5]], dtype=np.float32))

    def test_radius_search_finds_the_point(self, one):
        assert radius_search(one, [1.0, -2.0, 0.5], 0.1) == [0]
        batch = get_backend("baseline-batched", one).radius_search(
            [[1.0, -2.0, 0.5], [50.0, 0.0, 0.0]], 0.1)
        assert batch.as_lists() == [[0], []]

    def test_knn_pads_beyond_tree_size(self, one):
        result = get_backend("baseline-batched", one).knn([[0.0, 0.0, 0.0]], k=4)
        assert result.indices.shape == (1, 1)
        assert result.as_lists()[0] == nearest_neighbors(one, [0.0, 0.0, 0.0], 4)

    def test_bonsai_parity_on_single_point(self, one):
        queries = np.array([[1.0, -2.0, 0.5], [2.0, -2.0, 0.5]])
        bonsai = get_backend("bonsai-batched", one).radius_search(queries, 1.5)
        baseline = get_backend("baseline-batched", one).radius_search(queries, 1.5)
        assert bonsai.as_lists() == baseline.as_lists()
        per_query = ExecutionConfig(backend="bonsai-batched",
                                    hardware=True).make_backend(one)
        assert bonsai.as_lists() == [sorted(per_query.search(q, 1.5)) for q in queries]

    def test_clustering_single_point(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        kept = EuclideanClusterExtractor(
            ClusterConfig(min_cluster_size=1)).extract(cloud)
        assert kept.n_clusters == 1
        assert kept.clusters[0].indices == [0]
        dropped = EuclideanClusterExtractor(
            ClusterConfig(min_cluster_size=2)).extract(cloud)
        assert dropped.n_clusters == 0

    def test_degenerate_detection_is_unknown(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        result = EuclideanClusterExtractor(
            ClusterConfig(min_cluster_size=1)).extract(cloud)
        detections = label_clusters(cloud, result.clusters)
        assert detections[0].label == "unknown"
        assert detections[0].footprint_area == 0.0


class TestOneLeafTrees:
    """Trees whose root is the only leaf (max_leaf_size >= n_points)."""

    @pytest.fixture(scope="class")
    def flat(self):
        points = np.random.default_rng(42).uniform(-2, 2, (12, 3)).astype(np.float32)
        tree = build_kdtree(points, KDTreeConfig(max_leaf_size=64))
        assert tree.arrays.leaf_id.tolist() == [0]  # the root is the only leaf
        return tree, points

    def test_radius_parity(self, flat):
        tree, points = flat
        single_stats, batch_stats = SearchStats(), SearchStats()
        single = [sorted(radius_search(tree, q, 1.0, stats=single_stats))
                  for q in points]
        batch = get_backend("baseline-batched", tree,
                            stats=batch_stats).radius_search(points, 1.0)
        assert batch.as_lists() == single
        assert batch_stats.leaves_visited == single_stats.leaves_visited == len(points)
        assert batch_stats.interior_visited == 0

    def test_knn_parity(self, flat):
        tree, points = flat
        batch = get_backend("baseline-batched", tree).knn(points, k=5).as_lists()
        for query, got in zip(points, batch):
            expected = nearest_neighbors(tree, query, 5)
            assert [i for i, _ in expected] == [i for i, _ in got]

    def test_bonsai_parity(self, flat):
        tree, points = flat
        bonsai = get_backend("bonsai-batched", tree).radius_search(points, 1.0)
        baseline = get_backend("baseline-batched", tree).radius_search(points, 1.0)
        assert bonsai.as_lists() == baseline.as_lists()

    def test_clustering_with_one_leaf(self, flat):
        _, points = flat
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=10.0, min_cluster_size=1, max_leaf_size=64)
        ).extract(PointCloud(points))
        # Everything is within tolerance of everything: one cluster.
        assert result.n_clusters == 1
        assert sorted(result.clusters[0].indices) == list(range(len(points)))
        assert result.tree.n_leaves == 1


class TestIdenticalPoints:
    """All points at the same coordinate: zero spread in every leaf."""

    def test_build_and_search(self):
        same = np.full((20, 3), 3.25, dtype=np.float32)
        tree = build_kdtree(same, KDTreeConfig(max_leaf_size=5))
        tree.validate()
        batch = get_backend("baseline-batched", tree).radius_search(same[:3], 0.1)
        assert batch.as_lists() == [list(range(20))] * 3

    def test_bonsai_on_zero_spread_leaves(self):
        same = PointCloud(np.full((20, 3), 3.25, dtype=np.float32))
        result = EuclideanClusterExtractor(
            ClusterConfig(min_cluster_size=1),
            execution=ExecutionConfig(backend="bonsai-batched")).extract(same)
        assert result.n_clusters == 1


class TestSystematicSubsampleDegenerateRanges:
    def test_exact_full_coverage(self):
        assert systematic_subsample(6, 3, 2) == [0, 1, 2, 3, 4, 5]

    def test_single_frame_sequence(self):
        assert systematic_subsample(1, 1, 1) == [0]

    def test_indices_sorted_unique_and_in_range(self):
        indices = systematic_subsample(10, 3, 3)
        assert indices == sorted(set(indices))
        assert all(0 <= i < 10 for i in indices)
        assert len(indices) <= 9

    def test_non_positive_parameters_rejected(self):
        for n_samples, sample_length in ((0, 1), (1, 0), (-1, 2), (2, -2)):
            with pytest.raises(ValueError, match="positive"):
                systematic_subsample(10, n_samples, sample_length)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="cannot draw"):
            systematic_subsample(5, 2, 3)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="cannot draw"):
            systematic_subsample(0, 1, 1)
