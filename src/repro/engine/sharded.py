"""ShardedPointCloudIndex: city-scale clouds as a grid of per-tile indexes.

The unsharded :class:`~repro.engine.index.PointCloudIndex` builds one k-d
tree over the whole cloud — fine for single LiDAR frames (tens of thousands
of points), but a city-scale map (1M–10M points) makes that one tree slow to
build, expensive to compress and impossible to page: every query touches one
monolithic structure.  This module partitions the cloud into **XY grid
tiles** and gives each tile its own :class:`PointCloudIndex` — built lazily
on first touch, compressed lazily on first Bonsai use, torn down tile by
tile — so map-scale clouds build and query in bounded memory and the
map-scale sweep (:class:`~repro.analysis.map_scale.MapScaleSweep`) can send
its recorded radius batches into L2-capacity working sets
(``benchmarks/bench_map_scale.py``).

Determinism contract
--------------------
Radius results are **bitwise identical** to the unsharded
``PointCloudIndex`` over the same cloud.  Three mechanisms:

* *Shared distance arithmetic.*  Every squared distance that reaches a
  result is a per-(query, point) quantity computed by the kernels of
  :mod:`repro.runtime.kernels` — the same float64 arithmetic whatever tree,
  leaf or tile the point sits in, so tile membership cannot change a
  distance.
* *Conservative tile selection.*  A tile is queried whenever the search
  sphere intersects the tile's actual point bounding box (with a small
  relative slack absorbing the bounding-box rounding), so no in-range point
  can hide in a skipped tile; visiting extra tiles only adds work, never
  results.
* *Canonical merge order.*  Cross-tile radius hits of every chunk go into
  one CSR assembly (:func:`~repro.runtime.batch._build_radius_result`),
  which sorts them into the global per-query ``(query, point)`` order.
  Query batches are processed in contiguous chunks, so the chunking never
  reaches the result.

Any registered backend name runs per tile.  Each tile's backends keep their
own statistics; a caller sums them over :meth:`built_tile_indexes`, as the
map-scale sweep does once per cache geometry.

Example
-------
>>> import numpy as np
>>> from repro.engine import PointCloudIndex, ShardedPointCloudIndex
>>> points = np.random.default_rng(0).uniform(-80, 80, (20000, 3)).astype(np.float32)
>>> sharded = ShardedPointCloudIndex(points, tile_size=40.0)
>>> flat = PointCloudIndex(points)
>>> a = sharded.radius_search(points[:32], radius=2.5)
>>> b = flat.radius_search(points[:32], radius=2.5)
>>> bool(np.array_equal(a.point_indices, b.point_indices))
True
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..runtime.batch import (
    BatchRadiusResult,
    _build_radius_result,
    _empty_radius_result,
)
from ..runtime.queries import as_query_batch, check_radius
from .index import DEFAULT_BACKEND, PointCloudIndex

__all__ = ["ShardedPointCloudIndex", "DEFAULT_TILE_SIZE"]

#: Default XY tile edge length (metres for the built-in scenarios).  At
#: map-scale point densities (~40 points/m^2 of surface) a 32 m tile holds a
#: few thousand points — trees build in milliseconds and single tiles fit in
#: L2-sized working sets.
DEFAULT_TILE_SIZE = 32.0

#: Queries per processing chunk.  Chunks bound the (chunk, tiles) distance
#: matrix the tile-selection step materialises; contiguous chunks merge in
#: query order, so the chunk size never reaches results.
CHUNK_QUERIES = 2048

#: Relative / absolute slack of the sphere-vs-tile-bbox intersection test:
#: the bbox distance is computed with different floating-point rounding than
#: the per-point kernels, so the test over-admits by a hair rather than ever
#: skipping a tile holding an in-range point.
_BBOX_SLACK_REL = 1e-9
_BBOX_SLACK_ABS = 1e-12


def _query_chunks(n_queries: int, chunk: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges of at most ``chunk`` queries, of
    near-equal sizes, covering ``n_queries >= 1`` queries."""
    n_chunks = -(-n_queries // chunk)
    bounds = [(i * n_queries) // n_chunks for i in range(n_chunks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class ShardedPointCloudIndex:
    """A grid of per-tile :class:`PointCloudIndex` behind one radius search.

    Parameters
    ----------
    cloud:
        A :class:`~repro.pointcloud.cloud.PointCloud` or an ``(N, 3)``
        array of finite points.  An empty cloud is allowed (zero tiles;
        every query returns empty results) — unlike the unsharded index,
        whose tree build rejects it.
    tile_size:
        XY edge length of the square grid tiles (positive and finite).

    Each tile's tree is built with the PCL defaults and compressed to
    FLOAT16, as an unsharded :class:`PointCloudIndex` is by default.
    """

    def __init__(self, cloud, *, tile_size: float = DEFAULT_TILE_SIZE):
        tile_size = float(tile_size)
        if not (math.isfinite(tile_size) and tile_size > 0.0):
            raise ValueError(
                f"tile_size must be positive and finite, got {tile_size!r}")
        if isinstance(cloud, PointCloud):
            points = cloud.points
        else:
            points = np.asarray(cloud, dtype=np.float32)
            if points.ndim != 2 or points.shape[1] != 3:
                raise ValueError("points must form an (N, 3) array")
        #: The full cloud, in the exact float32 form every tile tree indexes
        #: (the same cast the unsharded tree build applies).
        self._points = np.ascontiguousarray(points, dtype=np.float32)
        if not np.isfinite(self._points).all():
            raise ValueError("cannot build a k-d tree over NaN or infinite points")
        self._partition(tile_size)
        #: Per-tile indexes, built lazily on first touch.
        self._tile_indexes: List[Optional[PointCloudIndex]] = (
            [None] * self.n_tiles)

    def _partition(self, tile_size: float) -> None:
        """Assign every point to its XY grid tile and record tile extents."""
        points = self._points.astype(np.float64)
        if points.shape[0] == 0:
            self._tile_point_indices: List[np.ndarray] = []
            self._tile_lo = np.empty((0, 3), dtype=np.float64)
            self._tile_hi = np.empty((0, 3), dtype=np.float64)
            return
        cells = np.floor(points[:, :2] / tile_size).astype(np.int64)
        # Unique cells come back lexicographically sorted — the canonical
        # tile numbering; the stable argsort keeps global point indices
        # ascending within each tile, so local -> global index maps are
        # monotone.
        unique_cells, inverse = np.unique(cells, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=unique_cells.shape[0])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        sorted_points = points[order]
        self._tile_point_indices = np.split(order, np.cumsum(counts)[:-1])
        self._tile_lo = np.minimum.reduceat(sorted_points, starts, axis=0)
        self._tile_hi = np.maximum.reduceat(sorted_points, starts, axis=0)

    # ------------------------------------------------------------------
    # Tile facts
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of indexed points (across all tiles)."""
        return int(self._points.shape[0])

    @property
    def points(self) -> np.ndarray:
        """The full ``(N, 3)`` float32 cloud, in global index order."""
        return self._points

    @property
    def n_tiles(self) -> int:
        """Number of non-empty grid tiles."""
        return len(self._tile_point_indices)

    def tile_index(self, tile: int) -> PointCloudIndex:
        """The named tile's :class:`PointCloudIndex`, built on first touch."""
        index = self._tile_indexes[tile]
        if index is None:
            index = PointCloudIndex(self._points[self._tile_point_indices[tile]])
            self._tile_indexes[tile] = index
        return index

    def built_tile_indexes(self) -> List[Tuple[int, PointCloudIndex]]:
        """``(tile, index)`` pairs of the tiles built so far, in tile order.

        Lets callers (the map-scale sweep, tests) walk per-tile statistics
        without forcing untouched tiles to build.
        """
        return [(tile, index) for tile, index in enumerate(self._tile_indexes)
                if index is not None]

    def close(self) -> None:
        """Release every built tile's backends.

        Idempotent; tile trees and compression stay cached, so later
        queries only rebuild backends, exactly like
        :meth:`PointCloudIndex.close`.
        """
        for index in self._tile_indexes:
            if index is not None:
                index.close()

    def __enter__(self) -> "ShardedPointCloudIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _tile_bbox_distances2(self, chunk: np.ndarray) -> np.ndarray:
        """Squared distance of each chunk query to each tile's point bbox.

        ``(C, T)`` matrix; zero when the query lies inside the box.  This is
        the standard point-vs-AABB clamp distance, used only to *select*
        tiles — never as a result distance — so its rounding is covered by
        the slack of the intersection test.
        """
        below = np.maximum(self._tile_lo[None, :, :] - chunk[:, None, :], 0.0)
        above = np.maximum(chunk[:, None, :] - self._tile_hi[None, :, :], 0.0)
        gap = np.maximum(below, above)
        return np.einsum("ctd,ctd->ct", gap, gap)

    def radius_search(self, queries, radius: float, *,
                      backend: str = DEFAULT_BACKEND, recorded: bool = False,
                      cpu=None) -> BatchRadiusResult:
        """All indexed points within ``radius`` of each query.

        Bitwise identical to the unsharded index's result (per-query
        index-sorted CSR form) whatever the tiling, chunking or backend;
        only tiles whose point bounding box intersects a query's search
        sphere are consulted — a query landing in zero tiles returns an
        empty (well-formed) row.  ``recorded``/``cpu`` select each tile's
        hardware-recorded counterpart, as in :meth:`PointCloudIndex.backend`.
        """
        r = check_radius(radius)
        batch = as_query_batch(queries)
        n_queries = batch.shape[0]
        if n_queries == 0 or self.n_tiles == 0:
            return _empty_radius_result(n_queries)
        threshold = r * r * (1.0 + _BBOX_SLACK_REL) + _BBOX_SLACK_ABS
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []
        for start, stop in _query_chunks(n_queries, CHUNK_QUERIES):
            chunk = batch[start:stop]
            bbox_d2 = self._tile_bbox_distances2(chunk)
            for tile in np.nonzero((bbox_d2 <= threshold).any(axis=0))[0]:
                sub = np.nonzero(bbox_d2[:, tile] <= threshold)[0]
                result = self.tile_index(tile) \
                    .backend(backend, recorded=recorded, cpu=cpu) \
                    .radius_search(chunk[sub], r)
                if result.total_matches:
                    hit_queries.append(np.repeat(start + sub, result.counts))
                    hit_points.append(
                        self._tile_point_indices[tile][result.point_indices])
        return _build_radius_result(n_queries, self.n_points, hit_queries,
                                    hit_points)
