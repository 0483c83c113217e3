"""Determinism contract of the city-scale sharded index.

``ShardedPointCloudIndex`` promises radius results **bitwise identical** to
the unsharded ``PointCloudIndex`` over the same cloud — whatever the tiling,
chunking or per-tile backend.  This file locks that promise down across
every registered backend and each flavour's recorded walk, plus the edge
cases the grid introduces: queries landing in zero tiles, empty batches,
empty clouds, invalid clouds and tile sizes, lazy tile building and the
per-tile statistics a caller sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import PointCloudIndex, ShardedPointCloudIndex
from repro.engine import sharded as sharded_module
from repro.engine.sharded import DEFAULT_TILE_SIZE
from repro.kdtree import SearchStats
from repro.pointcloud import PointCloud

RADIUS = 2.5


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
    return ShardedPointCloudIndex(cloud, tile_size=40.0)


@pytest.fixture(scope="module")
def flat(cloud):
    return PointCloudIndex(cloud)


# ----------------------------------------------------------------------
# Bitwise parity with the unsharded index, per backend
# ----------------------------------------------------------------------
#: Every search path, by test id: ``(backend name, recorded)``.  The
#: ``*-perquery`` ids are each flavour's recorded per-query walk.
PATHS = {
    "baseline-batched": ("baseline-batched", False),
    "baseline-perquery": ("baseline-batched", True),
    "bonsai-batched": ("bonsai-batched", False),
    "bonsai-perquery": ("bonsai-batched", True),
}


@pytest.mark.parametrize("path", sorted(PATHS))
class TestParity:
    def test_radius_bitwise_identical(self, sharded, flat, path, queries,
                                      monkeypatch):
        # 240 queries in chunks of at most 64: four chunks.
        monkeypatch.setattr(sharded_module, "CHUNK_QUERIES", 64)
        backend, recorded = PATHS[path]
        got = sharded.radius_search(queries, RADIUS, backend=backend,
                                    recorded=recorded)
        want = flat.radius_search(queries, RADIUS)
        assert got.offsets.dtype == want.offsets.dtype
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.point_indices, want.point_indices)


def test_parity_is_tiling_invariant(cloud, flat, queries, monkeypatch):
    """Different tile sizes and chunkings cannot change a single bit."""
    want = flat.radius_search(queries, RADIUS)
    for tile_size, chunk in ((13.0, 7), (DEFAULT_TILE_SIZE, 2048), (500.0, 64)):
        monkeypatch.setattr(sharded_module, "CHUNK_QUERIES", chunk)
        index = ShardedPointCloudIndex(cloud, tile_size=tile_size)
        got = index.radius_search(queries, RADIUS)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.point_indices, want.point_indices)
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

    def test_empty_batch(self, sharded):
        empty = np.empty((0, 3))
        result = sharded.radius_search(empty, RADIUS)
        assert result.n_queries == 0
        assert result.offsets.shape == (1,) and result.offsets[0] == 0
        assert result.point_indices.shape == (0,)

    def test_empty_cloud(self):
        """Zero points is legal here (unlike the unsharded tree build)."""
        index = ShardedPointCloudIndex(np.empty((0, 3), dtype=np.float32))
        assert index.n_points == 0 and index.n_tiles == 0
        result = index.radius_search(np.zeros((4, 3)), RADIUS)
        assert result.n_queries == 4 and result.total_matches == 0

    def test_invalid_arguments(self, sharded, cloud):
        for tile_size in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tile_size"):
                ShardedPointCloudIndex(cloud, tile_size=tile_size)
        with pytest.raises(ValueError):
            ShardedPointCloudIndex(np.zeros((4, 2)))
        # Non-finite points are refused, as the unsharded tree build
        # refuses them: a NaN coordinate floors to no grid cell.
        points = np.random.default_rng(3).uniform(-50.0, 50.0, (2000, 3))
        points[5] = [np.nan, 1.0, 2.0]
        points[7] = [np.inf, 0.0, 0.0]
        for bad in (points, PointCloud(points.astype(np.float32))):
            with pytest.raises(ValueError, match="NaN or infinite"):
                ShardedPointCloudIndex(bad, tile_size=20.0)
        with pytest.raises(ValueError, match="NaN or infinite"):
            PointCloudIndex(points)
        with pytest.raises(ValueError):
            sharded.radius_search(np.zeros((1, 3)), 0.0)


# ----------------------------------------------------------------------
# Lazy building, teardown, statistics
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_tiles_build_lazily(self, cloud):
        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        assert index.built_tile_indexes() == []
        # One concentrated query touches only the tiles near it.
        index.radius_search(cloud[:1].astype(np.float64), RADIUS)
        built = index.built_tile_indexes()
        assert 0 < len(built) < index.n_tiles
        assert all(isinstance(tile, int) and idx is not None
                   for tile, idx in built)
        # tile_index builds the tile it names, and only that one.
        untouched = next(tile for tile in range(index.n_tiles)
                         if tile not in dict(built))
        assert index.tile_index(untouched) is index.tile_index(untouched)
        assert len(index.built_tile_indexes()) == len(built) + 1

    def test_partition_is_exhaustive_and_disjoint(self, sharded, cloud):
        tiles = [sharded._tile_point_indices[t] for t in range(sharded.n_tiles)]
        assert all(tile.size > 0 for tile in tiles)  # only non-empty tiles
        assert sum(tile.size for tile in tiles) == sharded.n_points == len(cloud)
        seen = np.concatenate(tiles)
        assert np.array_equal(np.sort(seen), np.arange(len(cloud)))
        for tile, members in enumerate(tiles):
            # Global indices ascend within a tile, and the tile's index
            # holds exactly its points, in that order.
            assert (np.diff(members) > 0).all()
            pts = cloud[members].astype(np.float64)
            lo, hi = sharded._tile_lo[tile], sharded._tile_hi[tile]
            assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()
        assert np.array_equal(sharded.tile_index(0).tree.points, cloud[tiles[0]])

    def test_merged_search_and_bonsai_stats(self, cloud, queries):
        """Per-tile statistics, summed over the built tiles as the
        map-scale sweep sums them."""
        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        index.radius_search(queries, RADIUS, backend="bonsai-batched")
        tiles = [idx for _, idx in index.built_tile_indexes()]
        stats = SearchStats()
        for idx in tiles:
            stats.merge(idx.search_stats)
        assert stats.queries > 0 and stats.leaves_visited > 0
        assert all(idx.bonsai_stats is not None for idx in tiles)
        assert sum(idx.bonsai_stats.leaf_visits for idx in tiles) > 0
        # Tiles are disjoint, so the tiles' in-radius counts add up to the
        # merged result's size.
        result = index.radius_search(queries, RADIUS, backend="bonsai-batched")
        assert stats.points_in_radius == result.total_matches

    def test_recorded_mode_merges_hierarchy_stats(self, cloud, queries):
        from repro.analysis import GEOMETRIES
        from repro.hwmodel.cache import HierarchyStats

        index = ShardedPointCloudIndex(cloud, tile_size=40.0)
        cpu = GEOMETRIES["l2-256k"].cpu()
        got = index.radius_search(queries[:60], RADIUS,
                                  backend="bonsai-batched", recorded=True,
                                  cpu=cpu)
        want = PointCloudIndex(cloud).radius_search(queries[:60], RADIUS)
        assert np.array_equal(got.point_indices, want.point_indices)
        per_tile = [idx.backend("bonsai-batched", recorded=True,
                                cpu=cpu).hierarchy
                    for _, idx in index.built_tile_indexes()]
        merged = HierarchyStats()
        for hierarchy in per_tile:
            merged.merge(hierarchy)
        assert merged.loads > 0 and merged.bytes_loaded > 0
        assert merged.l1_misses == sum(h.l1_misses for h in per_tile)
        # Each recorded tile backend traces its own geometry.
        assert all(idx.backend("bonsai-batched", recorded=True, cpu=cpu)
                   .recorder.hierarchy.l2.config.size_bytes == cpu.l2.size_bytes
                   for _, idx in index.built_tile_indexes())

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
        # Lazy build really paid off: the fuzz only touched some tiles.
        assert len(index.built_tile_indexes()) < index.n_tiles
    finally:
        index.close()
        flat.close()
