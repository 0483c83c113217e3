"""Randomized cross-backend parity: every named backend, one truth.

The engine layer's core contract is that execution mode never changes
results: the four registered backends must return *identical* radius hits
and kNN neighbours for the same tree and queries, and wrapping any backend
in the hardware recorder must leave the functional results bitwise
unchanged while the cache trace fills.

These tests fuzz that contract: seeded random clustered clouds plus
scenario-derived frames, perturbed query sets, random radius/k — compared
across every name in the registry (the suite never imports a concrete
backend class, so a newly registered backend is automatically swept).
The CI ``backend-parity`` step runs exactly this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (ExecutionConfig, PointCloudIndex, ShardedPointCloudIndex,
                          backend_names, get_backend)
from repro.kdtree import SearchStats, build_kdtree
from repro.pointcloud import PointCloud, preprocess_for_clustering
from repro.scenarios import build_sequence

REFERENCE = "baseline-batched"


def _fuzzed_cloud(seed: int) -> PointCloud:
    """A random but spatially clustered cloud (no LiDAR structure)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-30.0, 30.0, size=(rng.integers(8, 24), 3))
    centers[:, 2] = rng.uniform(-1.0, 2.0, size=centers.shape[0])
    blobs = [center + rng.normal(0.0, rng.uniform(0.2, 0.8), size=(rng.integers(10, 60), 3))
             for center in centers]
    return PointCloud(np.vstack(blobs).astype(np.float32))


def _fuzzed_case(seed: int):
    """Deterministic (points, queries, radius, k) drawn from ``seed``."""
    cloud = _fuzzed_cloud(seed)
    rng = np.random.default_rng(seed * 6151 + 5)
    base = cloud.points[rng.integers(0, len(cloud), 60)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.5, base.shape)
    radius = float(rng.uniform(0.3, 1.5))
    k = int(rng.integers(1, 9))
    return cloud, queries, radius, k


def _scenario_case(scenario: str, seed: int):
    """A case over a real preprocessed LiDAR frame of a registered world."""
    sequence = build_sequence(scenario, n_frames=2, seed=seed,
                              n_beams=14, n_azimuth_steps=120)
    cloud = preprocess_for_clustering(sequence.frame(1))
    rng = np.random.default_rng(seed * 7919 + 13)
    base = cloud.points[rng.integers(0, len(cloud), 60)]
    queries = base.astype(np.float64) + rng.normal(0.0, 0.4, base.shape)
    return cloud, queries, float(rng.uniform(0.3, 1.2)), int(rng.integers(1, 8))


CASES = {
    "fuzz-seed2": lambda: _fuzzed_case(2),
    "fuzz-seed17": lambda: _fuzzed_case(17),
    "urban-frame": lambda: _scenario_case("urban", 3),
    "warehouse-frame": lambda: _scenario_case("warehouse_indoor", 11),
}


@pytest.fixture(scope="module", params=sorted(CASES), ids=sorted(CASES))
def case(request):
    cloud, queries, radius, k = CASES[request.param]()
    return build_kdtree(cloud), queries, radius, k


def _radius_arrays(backend, queries, radius):
    result = backend.radius_search(queries, radius)
    return result.offsets, result.point_indices


class TestCrossBackendParity:
    """All registered backends agree bit-for-bit on every fuzzed case."""

    def test_radius_hits_identical_across_backends(self, case):
        tree, queries, radius, _ = case
        ref_offsets, ref_indices = _radius_arrays(
            get_backend(REFERENCE, tree), queries, radius)
        for name in backend_names():
            offsets, indices = _radius_arrays(
                get_backend(name, tree), queries, radius)
            assert np.array_equal(offsets, ref_offsets), name
            assert np.array_equal(indices, ref_indices), name

    def test_knn_neighbors_identical_across_backends(self, case):
        tree, queries, _, k = case
        reference = get_backend(REFERENCE, tree).knn(queries, k)
        for name in backend_names():
            result = get_backend(name, tree).knn(queries, k)
            assert np.array_equal(result.indices, reference.indices), name
            assert np.allclose(result.distances, reference.distances,
                               rtol=0, atol=0, equal_nan=True), name

    def test_radius_stats_aggregate_identically(self, case):
        """Every backend charges the same functional search counters."""
        tree, queries, radius, _ = case
        reference = SearchStats()
        get_backend(REFERENCE, tree,
                    stats=reference).radius_search(queries, radius)
        for name in backend_names():
            stats = SearchStats()
            get_backend(name, tree, stats=stats).radius_search(queries, radius)
            assert (stats.queries, stats.leaves_visited, stats.interior_visited,
                    stats.points_examined, stats.points_in_radius) == \
                   (reference.queries, reference.leaves_visited,
                    reference.interior_visited, reference.points_examined,
                    reference.points_in_radius), name
            assert stats.leaf_visit_counts == reference.leaf_visit_counts, name

    def test_single_query_hits_match_batched(self, case):
        """``search()`` returns the same set the batched result holds."""
        tree, queries, radius, _ = case
        for name in backend_names():
            backend = get_backend(name, tree)
            batched = backend.radius_search(queries[:10], radius)
            for q in range(10):
                assert sorted(backend.search(queries[q], radius)) == \
                    batched.indices_for(q).tolist(), (name, q)


class TestRecordedParity:
    """Recording (`ExecutionConfig(hardware=True)`) never changes results."""

    def test_recorded_radius_bitwise_unchanged(self, case):
        tree, queries, radius, _ = case
        for name in backend_names():
            plain = get_backend(name, tree)
            ref_offsets, ref_indices = _radius_arrays(plain, queries, radius)
            recorded = ExecutionConfig(backend=name, hardware=True).make_backend(tree)
            offsets, indices = _radius_arrays(recorded, queries, radius)
            assert np.array_equal(offsets, ref_offsets), name
            assert np.array_equal(indices, ref_indices), name
            # And the trace is live: the searches really hit the cache model.
            assert recorded.hierarchy is not None, name
            assert recorded.hierarchy.l1_accesses > 0, name

    def test_execution_config_hardware_bitwise_unchanged(self, case):
        """On any recorded cache geometry, and for kNN too."""
        from dataclasses import replace

        from repro.hwmodel.cpu_config import TABLE_IV_CPU

        tree, queries, radius, k = case
        tiny = replace(TABLE_IV_CPU, l1d=replace(TABLE_IV_CPU.l1d, size_bytes=4096))
        for name in backend_names():
            functional = ExecutionConfig(backend=name).make_backend(tree)
            ref = functional.radius_search(queries, radius)
            ref_knn = functional.knn(queries, k)
            for cache_config in (None, tiny):
                recorded = ExecutionConfig(backend=name, hardware=True,
                                           cache_config=cache_config).make_backend(tree)
                got = recorded.radius_search(queries, radius)
                assert np.array_equal(got.offsets, ref.offsets), name
                assert np.array_equal(got.point_indices, ref.point_indices), name
                assert recorded.hierarchy.l1_accesses > 0, name
                knn = recorded.knn(queries, k)
                assert np.array_equal(knn.indices, ref_knn.indices), name
                assert np.array_equal(knn.distances, ref_knn.distances), name


class TestIndexParity:
    """The facade serves every backend from one tree with merged stats."""

    def test_index_serves_all_backends_identically(self, case):
        tree, queries, radius, k = case
        index = PointCloudIndex(tree)
        reference = index.radius_search(queries, radius, backend=REFERENCE)
        knn_reference = index.knn(queries, k, backend=REFERENCE)
        for name in backend_names():
            result = index.radius_search(queries, radius, backend=name)
            assert np.array_equal(result.point_indices,
                                  reference.point_indices), name
            knn = index.knn(queries, k, backend=name)
            assert np.array_equal(knn.indices, knn_reference.indices), name
        # Stats merged across every served backend: radius + knn queries each.
        n_backends = len(backend_names())
        assert index.search_stats.queries >= 2 * n_backends * len(queries)

    def test_index_compresses_lazily_exactly_once(self, case):
        tree, queries, radius, _ = case
        index = PointCloudIndex(build_kdtree(tree.points))
        assert not index.is_compressed
        index.radius_search(queries, radius)  # baseline: no compression
        assert not index.is_compressed and index.compression_report is None
        index.radius_search(queries, radius, backend="bonsai-batched")
        assert index.is_compressed
        report = index.compression_report
        assert report is not None and report.compressed_bytes > 0
        index.radius_search(queries, radius, backend="bonsai-perquery")
        assert index.compression_report is report  # not recompressed


#: One-point float32 trees and one query each, ``(point, query, radius)``,
#: where two summation orders of the same squares round apart: the first
#: sits on the Eq. 11 shell's inner edge (``(s0 + s1) + s2`` puts it in the
#: shell, the einsum's ``(s0 + s2) + s1`` conclusively inside), the other two
#: at exactly ``r`` (a 3-element ``@`` product and the einsum put the point
#: on either side of it).
ROUNDING_CASES = {
    "shell-edge": ([-1.8600844144821167, -14.63833236694336, -3.8754806518554688],
                   [-10.883713796724468, 8.229521259404017, 9.225318121912007],
                   27.86209035116359),
    "at-r-outside": ([0.7092974781990051, 27.027822494506836, -21.35042381286621],
                     [26.91896682823463, -11.290112879370874, -4.600413061645462],
                     49.353559131240736),
    "at-r-inside": ([-21.124677658081055, 19.177602767944336, 10.997214317321777],
                    [17.225816493288065, -18.503024458791884, 18.1418496680718],
                    54.23684987303041),
}


class TestRoundingParity:
    """Per-query and batched Bonsai searches round every distance alike."""

    @pytest.mark.parametrize("name", sorted(ROUNDING_CASES))
    def test_one_point_tree(self, name):
        point, query, radius = ROUNDING_CASES[name]
        tree = build_kdtree(np.array([point], dtype=np.float32))
        queries = np.array([query])
        reference = get_backend(REFERENCE, tree).radius_search(queries, radius)
        bonsai_counts = []
        for backend_name in backend_names():
            backend = get_backend(backend_name, tree)
            result = backend.radius_search(queries, radius)
            assert np.array_equal(result.point_indices, reference.point_indices), \
                backend_name
            if backend.bonsai_stats is not None:
                bs = backend.bonsai_stats
                bonsai_counts.append((bs.conclusive_in, bs.conclusive_out,
                                      bs.inconclusive, bs.recompute_bytes_loaded))
        # (conclusive_in, conclusive_out, inconclusive, recompute bytes)
        expected = (1, 0, 0, 0) if name == "shell-edge" else (0, 0, 1, 16)
        assert bonsai_counts and set(bonsai_counts) == {expected}


@pytest.fixture(scope="module")
def lattice():
    """A 12^3 integer lattice and every 37th lattice point as a query.

    Nearly every k-th place is a distance tie, and the tied points lie in
    different leaves, so each search meets them in a different order.
    """
    axis = np.arange(12, dtype=np.float32)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    queries = points[::37].astype(np.float64)
    return points, build_kdtree(points), queries


def _lowest_pairs(points, queries, k):
    """Brute force: each query's k lowest (squared distance, index) pairs."""
    d2 = ((queries[:, None, :] - points[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    # A stable sort keeps tied distances in index order.
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestLatticeKNNTies:
    """kNN keeps the lowest (distance, index) pairs on every path."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_backend_keeps_the_lowest_pairs(self, lattice, k):
        points, tree, queries = lattice
        expected = _lowest_pairs(points, queries, k)
        reference = get_backend(REFERENCE, tree).knn(queries, k)
        assert np.array_equal(reference.indices, expected)
        for name in backend_names():
            result = get_backend(name, tree).knn(queries, k)
            assert np.array_equal(result.indices, reference.indices), name
            assert np.array_equal(result.distances, reference.distances), name

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sharded_perquery_and_compressed_knn_agree(self, lattice, k):
        points, tree, queries = lattice
        reference = get_backend(REFERENCE, tree).knn(queries, k)
        for name in ("baseline-perquery", "bonsai-perquery"):
            with ShardedPointCloudIndex(points, tile_size=4.0) as sharded:
                result = sharded.knn(queries, k, backend=name)
            assert np.array_equal(result.indices, reference.indices), name
            assert np.array_equal(result.distances, reference.distances), name
