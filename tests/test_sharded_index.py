"""Determinism contract of the city-scale sharded index.

``ShardedPointCloudIndex`` promises results **bitwise identical** to the
unsharded ``PointCloudIndex`` over the same cloud — whatever the tiling,
chunking or per-tile backend (kNN distance ties are covered on a lattice in
``tests/test_backend_parity.py``).  This file
locks that promise down across every registered backend, plus the edge
cases the grid introduces: queries landing in zero tiles, empty batches,
empty clouds, ``k`` larger than the cloud, lazy tile building and the
merged per-tile statistics.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import PointCloudIndex, ShardedPointCloudIndex, backend_names
from repro.engine.sharded import DEFAULT_TILE_SIZE

RADIUS = 2.5
K = 8


@pytest.fixture(scope="module")
def cloud():
    """A multi-tile cloud: clustered structure plus uniform fill."""
    rng = np.random.default_rng(42)
    centers = rng.uniform(-90.0, 90.0, (40, 3))
    centers[:, 2] = rng.uniform(-1.0, 3.0, 40)
    clustered = (centers[:, None, :]
                 + rng.normal(0.0, 1.2, (40, 120, 3))).reshape(-1, 3)
    uniform = rng.uniform(-100.0, 100.0, (3000, 3))
    uniform[:, 2] = rng.uniform(-1.0, 6.0, 3000)
    return np.vstack([clustered, uniform]).astype(np.float32)


@pytest.fixture(scope="module")
def queries(cloud):
    """Fuzzed queries: near points, between clusters, and far outside."""
    rng = np.random.default_rng(7)
    near = (cloud[rng.integers(0, len(cloud), 150)].astype(np.float64)
            + rng.normal(0.0, 0.8, (150, 3)))
    roaming = rng.uniform(-110.0, 110.0, (80, 3))
    far = rng.uniform(400.0, 500.0, (10, 3))  # land in zero tiles
    return np.vstack([near, roaming, far])


@pytest.fixture(scope="module")
def sharded(cloud):
    return ShardedPointCloudIndex(cloud, tile_size=40.0, chunk_queries=64)


@pytest.fixture(scope="module")
def flat(cloud):
    return PointCloudIndex(cloud)


# ----------------------------------------------------------------------
# Bitwise parity with the unsharded index, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", backend_names())
class TestParity:
    def test_radius_bitwise_identical(self, sharded, flat, backend, queries):
        got = sharded.radius_search(queries, RADIUS, backend=backend)
        want = flat.radius_search(queries, RADIUS)
        assert got.offsets.dtype == want.offsets.dtype
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.point_indices, want.point_indices)

    def test_knn_bitwise_identical(self, sharded, flat, backend, queries):
        got = sharded.knn(queries, K, backend=backend)
        want = flat.knn(queries, K)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)


def test_parity_is_tiling_invariant(cloud, flat, queries):
    """Different tile sizes and chunkings cannot change a single bit."""
    want_r = flat.radius_search(queries, RADIUS)
    want_k = flat.knn(queries, K)
    for tile_size, chunk in ((13.0, 7), (DEFAULT_TILE_SIZE, 2048), (500.0, 64)):
        index = ShardedPointCloudIndex(cloud, tile_size=tile_size,
                                       chunk_queries=chunk)
        got_r = index.radius_search(queries, RADIUS)
        assert np.array_equal(got_r.offsets, want_r.offsets)
        assert np.array_equal(got_r.point_indices, want_r.point_indices)
        got_k = index.knn(queries, K)
        assert np.array_equal(got_k.indices, want_k.indices)
        assert np.array_equal(got_k.distances, want_k.distances)
    # A 500 m tile degenerates to one cell per quadrant (grid cells are
    # anchored at the origin): few huge tiles, still bitwise identical.
    assert index.n_tiles <= 4


# ----------------------------------------------------------------------
# Grid edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_zero_tile_queries_return_empty_rows(self, sharded):
        """A query whose sphere misses every tile bbox yields an empty,
        well-formed row — no tile is consulted, nothing crashes."""
        lost = np.array([[1000.0, 1000.0, 1000.0],
                         [-900.0, 950.0, -40.0]])
        result = sharded.radius_search(lost, RADIUS)
        assert result.n_queries == 2
        assert result.total_matches == 0
        assert np.array_equal(result.offsets, np.zeros(3, dtype=result.offsets.dtype))
        # kNN still finds the globally nearest points (no radius to prune by).
        knn = sharded.knn(lost, 3)
        assert (knn.indices >= 0).all()
        assert np.isfinite(knn.distances).all()

    def test_empty_batch(self, sharded):
        empty = np.empty((0, 3))
        result = sharded.radius_search(empty, RADIUS)
        assert result.n_queries == 0
        assert result.offsets.shape == (1,) and result.offsets[0] == 0
        assert result.point_indices.shape == (0,)
        knn = sharded.knn(empty, K)
        assert knn.indices.shape == (0, K)
        assert knn.distances.shape == (0, K)

    def test_empty_cloud(self):
        """Zero points is legal here (unlike the unsharded tree build)."""
        index = ShardedPointCloudIndex(np.empty((0, 3), dtype=np.float32))
        assert index.n_points == 0 and index.n_tiles == 0
        result = index.radius_search(np.zeros((4, 3)), RADIUS)
        assert result.n_queries == 4 and result.total_matches == 0
        knn = index.knn(np.zeros((4, 3)), K)
        assert knn.indices.shape == (4, 0)  # width = min(k, 0)

    def test_k_exceeding_n_points(self, flat):
        rng = np.random.default_rng(5)
        small = rng.uniform(-50.0, 50.0, (37, 3)).astype(np.float32)
        index = ShardedPointCloudIndex(small, tile_size=20.0)
        want = PointCloudIndex(small).knn(small[:5].astype(np.float64), 50)
        got = index.knn(small[:5].astype(np.float64), 50)
        assert got.indices.shape == (5, 37)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)

    def test_single_query_search(self, sharded, flat, cloud):
        """`search` is index-sorted (CSR row order), unlike the per-query
        backends' native traversal order — same hit set either way."""
        query = cloud[11].astype(np.float64)
        got = sharded.search(query, RADIUS)
        assert got == flat.radius_search(query[None, :], RADIUS) \
            .indices_for(0).tolist()
        assert got == sorted(
            flat.backend("baseline-perquery").search(query, RADIUS))

    def test_invalid_arguments(self, sharded, cloud):
        with pytest.raises(ValueError):
            ShardedPointCloudIndex(cloud, tile_size=0.0)
        with pytest.raises(ValueError):
            ShardedPointCloudIndex(cloud, chunk_queries=0)
        with pytest.raises(ValueError):
            ShardedPointCloudIndex(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sharded.radius_search(np.zeros((1, 3)), 0.0)
        with pytest.raises(ValueError):
            sharded.knn(np.zeros((1, 3)), 0)


# ----------------------------------------------------------------------
# Lazy building, teardown, statistics
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_tiles_build_lazily(self, cloud):
        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        assert index.n_built_tiles == 0
        assert index.built_tile_indexes() == []
        # One concentrated query touches only the tiles near it.
        index.radius_search(cloud[:1].astype(np.float64), RADIUS)
        assert 0 < index.n_built_tiles < index.n_tiles
        built = index.built_tile_indexes()
        assert len(built) == index.n_built_tiles
        assert all(isinstance(tile, int) and idx is not None
                   for tile, idx in built)
        index.build_all()
        assert index.n_built_tiles == index.n_tiles

    def test_partition_is_exhaustive_and_disjoint(self, sharded, cloud):
        counts = sharded.tile_counts
        assert counts.sum() == sharded.n_points == len(cloud)
        assert (counts > 0).all()  # only non-empty tiles exist
        assert sharded.tile_cells.shape == (sharded.n_tiles, 2)
        seen = np.concatenate(
            [sharded._tile_point_indices[t] for t in range(sharded.n_tiles)])
        assert np.array_equal(np.sort(seen), np.arange(len(cloud)))
        for tile in range(sharded.n_tiles):
            lo, hi = sharded.tile_bounds(tile)
            pts = cloud[sharded._tile_point_indices[tile]].astype(np.float64)
            assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()

    def test_merged_search_and_bonsai_stats(self, cloud, queries):
        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        assert index.bonsai_stats is None  # no Bonsai backend touched yet
        index.radius_search(queries, RADIUS, backend="bonsai-batched")
        stats = index.search_stats
        assert stats.queries > 0 and stats.leaves_visited > 0
        bonsai = index.bonsai_stats
        assert bonsai is not None and bonsai.leaf_visits > 0
        # The merged view equals the sum over the built tiles.
        total = sum(idx.search_stats.leaves_visited
                    for _, idx in index.built_tile_indexes())
        assert stats.leaves_visited == total

    def test_recorded_mode_merges_hierarchy_stats(self, cloud, queries):
        from repro.analysis import GEOMETRIES

        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        assert index.hierarchy_stats is None
        cpu = GEOMETRIES["l2-256k"].cpu()
        got = index.radius_search(queries[:60], RADIUS,
                                  backend="bonsai-perquery", recorded=True,
                                  cpu=cpu)
        want = PointCloudIndex(cloud).radius_search(queries[:60], RADIUS)
        assert np.array_equal(got.point_indices, want.point_indices)
        merged = index.hierarchy_stats
        assert merged is not None
        assert merged.loads > 0 and merged.bytes_loaded > 0
        per_tile = [idx.backend("bonsai-perquery", recorded=True,
                                cpu=cpu).hierarchy
                    for _, idx in index.built_tile_indexes()]
        assert merged.l1_misses == sum(h.l1_misses for h in per_tile)

    def test_close_is_idempotent_and_recoverable(self, cloud, queries):
        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        want = index.radius_search(queries[:40], RADIUS,
                                   backend="bonsai-batched")
        index.close()
        index.close()
        again = index.radius_search(queries[:40], RADIUS,
                                    backend="bonsai-batched")
        assert np.array_equal(again.point_indices, want.point_indices)
        index.close()


# ----------------------------------------------------------------------
# The acceptance-scale run (tier-2: pytest -m slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_million_point_map_parity():
    """1M-point map cloud: sharded build + fuzzed bitwise parity."""
    from repro.scenarios import build_map_cloud

    cloud = build_map_cloud("city_block", 1_000_000, seed=3)
    index = ShardedPointCloudIndex(cloud)
    assert index.n_points == 1_000_000
    assert index.n_tiles > 10

    rng = np.random.default_rng(17)
    pts = index.points
    queries = (pts[rng.integers(0, len(pts), 192)].astype(np.float64)
               + rng.normal(0.0, 1.0, (192, 3)))
    flat = PointCloudIndex(pts)
    try:
        for backend in ("baseline-batched", "bonsai-batched"):
            got = index.radius_search(queries, 2.0, backend=backend)
            want = flat.radius_search(queries, 2.0)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.point_indices, want.point_indices)
        got_k = index.knn(queries, 5)
        want_k = flat.knn(queries, 5)
        assert np.array_equal(got_k.indices, want_k.indices)
        assert np.array_equal(got_k.distances, want_k.distances)
        # Lazy build really paid off: the fuzz only touched some tiles.
        assert index.n_built_tiles < index.n_tiles
    finally:
        index.close()
        flat.close()
