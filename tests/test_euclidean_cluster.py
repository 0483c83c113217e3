"""Tests of euclidean cluster extraction (baseline and Bonsai paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutionConfig
from repro.engine.backends import BaselineBatchedBackend, BonsaiBatchedBackend
from repro.hwmodel.cache import HierarchyRecorder
from repro.perception import ClusterConfig, EuclideanClusterExtractor
from repro.perception.euclidean_cluster import _component_roots
from repro.pointcloud import PointCloud
from repro.runtime import BatchRadiusResult

BONSAI = ExecutionConfig(backend="bonsai-batched")


def _two_blobs(rng, separation=10.0, n=40):
    a = rng.normal(0.0, 0.3, size=(n, 3))
    b = rng.normal(0.0, 0.3, size=(n, 3)) + np.array([separation, 0.0, 0.0])
    return PointCloud(np.vstack([a, b]).astype(np.float32))


class TestClustering:
    def test_two_separated_blobs_give_two_clusters(self, rng):
        cloud = _two_blobs(rng)
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=1.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 2
        sizes = sorted(c.size for c in result.clusters)
        assert sizes == [40, 40]

    def test_blobs_merge_when_tolerance_spans_gap(self, rng):
        cloud = _two_blobs(rng, separation=2.0)
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=3.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 1
        assert result.clusters[0].size == 80

    def test_min_cluster_size_filters_noise(self, rng):
        blob = rng.normal(0.0, 0.2, size=(30, 3))
        noise = np.array([[50.0, 50.0, 0.0], [-60.0, 40.0, 1.0]])
        cloud = PointCloud(np.vstack([blob, noise]).astype(np.float32))
        extractor = EuclideanClusterExtractor(ClusterConfig(tolerance=1.0, min_cluster_size=5))
        result = extractor.extract(cloud)
        assert result.n_clusters == 1
        labels = result.labels
        assert (labels == -1).sum() == 2

    def test_max_cluster_size_filters_giant_clusters(self, rng):
        cloud = _two_blobs(rng)
        extractor = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5, max_cluster_size=30)
        )
        assert extractor.extract(cloud).n_clusters == 0

    def test_every_point_in_at_most_one_cluster(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=1)).extract(cloud)
        all_indices = [i for cluster in result.clusters for i in cluster.indices]
        assert len(all_indices) == len(set(all_indices))

    def test_cluster_geometry(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        centroids_x = sorted(c.centroid[0] for c in result.clusters)
        assert centroids_x[0] == pytest.approx(0.0, abs=0.3)
        assert centroids_x[1] == pytest.approx(10.0, abs=0.3)
        for cluster in result.clusters:
            assert cluster.bbox.volume < 50.0

    def test_empty_cloud(self):
        result = EuclideanClusterExtractor().extract(PointCloud())
        assert result.n_clusters == 0
        assert result.n_points == 0

    def test_search_stats_populated(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        assert result.search_stats.queries == len(cloud)
        assert result.search_stats.points_examined > 0


class TestBonsaiEquivalence:
    def test_same_clusters_with_bonsai(self, rng):
        cloud = _two_blobs(rng)
        config = ClusterConfig(tolerance=1.0, min_cluster_size=5)
        baseline = EuclideanClusterExtractor(config).extract(cloud)
        bonsai = EuclideanClusterExtractor(config, execution=BONSAI).extract(cloud)
        assert baseline.n_clusters == bonsai.n_clusters
        for a, b in zip(baseline.clusters, bonsai.clusters):
            assert a.indices == b.indices

    def test_same_clusters_on_lidar_frame(self, filtered_frame):
        config = ClusterConfig(tolerance=0.6, min_cluster_size=5)
        baseline = EuclideanClusterExtractor(config).extract(filtered_frame)
        bonsai = EuclideanClusterExtractor(config, execution=BONSAI).extract(filtered_frame)
        assert baseline.n_clusters == bonsai.n_clusters
        np.testing.assert_array_equal(baseline.labels, bonsai.labels)

    def test_bonsai_stats_available(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5), execution=BONSAI).extract(cloud)
        assert result.bonsai is not None
        assert result.bonsai.bonsai_stats.points_classified > 0

    def test_recorder_wired_through(self, rng):
        cloud = _two_blobs(rng)
        recorder = HierarchyRecorder()
        EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5), recorder=recorder,
        ).extract(cloud)
        assert recorder.stats.l1_accesses > 0


class TestClusterResultLabels:
    def test_labels_shape_and_values(self, rng):
        cloud = _two_blobs(rng)
        result = EuclideanClusterExtractor(
            ClusterConfig(tolerance=1.0, min_cluster_size=5)).extract(cloud)
        labels = result.labels
        assert labels.shape == (len(cloud),)
        assert set(np.unique(labels)) <= {-1, 0, 1}


# ----------------------------------------------------------------------
# The batched path labels one radius graph; it must give the per-query
# growth's clusters, bit for bit, on degenerate clouds too.
# ----------------------------------------------------------------------
GRAPH_CONFIG = ClusterConfig(tolerance=0.5, min_cluster_size=5, max_cluster_size=12)


def _chain(n, start):
    """``n`` points along x, exactly ``GRAPH_CONFIG.tolerance`` apart."""
    xs = start + GRAPH_CONFIG.tolerance * np.arange(n)
    return np.column_stack([xs, np.full(n, 3.0), np.full(n, -1.25)])


def _shuffled(points, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(points[rng.permutation(len(points))].astype(np.float32))


def _duplicates_cloud():
    rng = np.random.default_rng(5)
    blob = rng.normal(0.0, 0.1, (6, 3))
    return _shuffled(np.vstack([np.repeat(blob, 3, axis=0),          # 18 points
                                np.repeat([[10.0, 0.0, 0.0]], 5, axis=0),
                                np.repeat([[20.0, 0.0, 0.0]], 4, axis=0),
                                np.repeat(_chain(4, 30.0), 3, axis=0)]), 5)


def _chain_cloud():
    return _shuffled(_chain(1200, -300.0), 6)


def _size_bounds_cloud():
    sizes = (GRAPH_CONFIG.min_cluster_size - 1, GRAPH_CONFIG.min_cluster_size,
             GRAPH_CONFIG.max_cluster_size, GRAPH_CONFIG.max_cluster_size + 1)
    return _shuffled(np.vstack([_chain(size, 10.0 * i) for i, size in enumerate(sizes)]), 7)


def _isolated_cloud():
    grid = np.arange(8, dtype=np.float64) * 2.0
    isolated = np.stack(np.meshgrid(grid, grid, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
    return _shuffled(np.vstack([isolated, _chain(7, 40.0)]), 8)


DEGENERATE_CLOUDS = {
    "duplicates": _duplicates_cloud,
    "chain": _chain_cloud,
    "size-bounds": _size_bounds_cloud,
    "isolated": _isolated_cloud,
}


def _extract(cloud, backend, hardware=False):
    execution = ExecutionConfig(backend=backend, hardware=hardware)
    return EuclideanClusterExtractor(GRAPH_CONFIG, execution=execution).extract(cloud)


def _assert_same_extraction(result, reference):
    assert [c.indices for c in result.clusters] == [c.indices for c in reference.clusters]
    for got, want in zip(result.clusters, reference.clusters):
        assert got.centroid.tobytes() == want.centroid.tobytes()
        assert got.bbox.minimum.tobytes() == want.bbox.minimum.tobytes()
        assert got.bbox.maximum.tobytes() == want.bbox.maximum.tobytes()
    assert result.search_stats == reference.search_stats
    if reference.bonsai is not None:
        assert result.bonsai.bonsai_stats == reference.bonsai.bonsai_stats


class TestRadiusGraphClustering:
    @pytest.fixture(scope="class", params=sorted(DEGENERATE_CLOUDS))
    def cloud(self, request):
        return DEGENERATE_CLOUDS[request.param]()

    @pytest.mark.parametrize("flavour", ["baseline", "bonsai"])
    def test_batched_matches_perquery(self, cloud, flavour):
        """Batched extraction equals the recorded per-query growth."""
        backend = f"{flavour}-batched"
        _assert_same_extraction(_extract(cloud, backend, hardware=True),
                                _extract(cloud, backend))

    def test_degenerate_clouds_cluster_as_expected(self):
        sizes = {name: sorted(c.size for c in _extract(make(), "baseline-batched").clusters)
                 for name, make in DEGENERATE_CLOUDS.items()}
        # Points exactly `tolerance` apart are neighbours, so a chain is
        # one component; only the size bounds keep it out.
        assert sizes == {"duplicates": [5, 12], "chain": [], "size-bounds": [5, 12],
                         "isolated": [7]}
        chain = _extract(_chain_cloud(), "baseline-batched")
        assert chain.search_stats.points_in_radius == 1200 + 2 * 1199
        bounds = EuclideanClusterExtractor(
            ClusterConfig(tolerance=0.5, min_cluster_size=1, max_cluster_size=2000))
        assert [c.size for c in bounds.extract(_chain_cloud()).clusters] == [1200]

    def test_labelling_reads_edges_as_undirected(self):
        # Row 3 finds 1 but 1 finds nothing, not even itself; row 4 finds
        # only 2; row 5, the last, finds nothing and nothing finds it.
        graph = BatchRadiusResult(offsets=np.array([0, 1, 1, 2, 4, 5, 5]),
                                  point_indices=np.array([0, 2, 1, 3, 2]))
        assert _component_roots(graph).tolist() == [0, 1, 2, 1, 2, 5]

    @pytest.mark.parametrize("cls", [BaselineBatchedBackend, BonsaiBatchedBackend])
    def test_one_radius_search_per_extraction(self, cls, monkeypatch):
        calls = []
        search = cls.radius_search

        def counting(backend, queries, radius):
            calls.append(len(queries))
            return search(backend, queries, radius)

        monkeypatch.setattr(cls, "radius_search", counting)
        cloud = _size_bounds_cloud()
        _extract(cloud, cls.name)
        assert calls == [len(cloud)]
