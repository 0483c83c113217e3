"""ShardedPointCloudIndex: city-scale clouds as a grid of per-tile indexes.

The unsharded :class:`~repro.engine.index.PointCloudIndex` builds one k-d
tree over the whole cloud — fine for single LiDAR frames (tens of thousands
of points), but a city-scale map (1M–10M points) makes that one tree slow to
build, expensive to compress and impossible to page: every query touches one
monolithic structure.  This module partitions the cloud into **XY grid
tiles** and gives each tile its own :class:`PointCloudIndex` — built lazily
on first touch, compressed lazily on first Bonsai use, torn down tile by
tile — so map-scale clouds build and query in bounded memory and the
cache-geometry sweep can finally reach L2-capacity working sets
(``benchmarks/bench_map_scale.py``).

Determinism contract
--------------------
Query results are **bitwise identical** to the unsharded
``PointCloudIndex`` over the same cloud, kNN distance ties included (every
kNN path keeps the lowest point indices among tied points).  Three
mechanisms:

* *Shared distance arithmetic.*  Every squared distance that reaches a
  result is a per-(query, point) quantity computed by the kernels of
  :mod:`repro.runtime.kernels` — the same float64 arithmetic whatever tree,
  leaf or tile the point sits in, so tile membership cannot change a
  distance.
* *Conservative tile selection.*  A tile is queried whenever the search
  volume intersects the tile's actual point bounding box (with a small
  relative slack absorbing the bounding-box rounding), so no in-range point
  can hide in a skipped tile; visiting extra tiles only adds work, never
  results.
* *Canonical merge order.*  Cross-tile radius hits are re-sorted into the
  global per-query ``(query, point)`` CSR order; kNN candidates go through
  the exact selection kernel of the batched engine
  (:func:`~repro.runtime.batch._select_nearest`, sort by
  ``(query, d2, point)``, square root applied after selection).  Query
  batches are processed in contiguous chunks concatenated through the
  shard-merge helpers (:func:`~repro.engine.parallel.merge_radius_shards`
  / :func:`~repro.engine.parallel.merge_knn_shards`) in index order.

Any registered backend name runs per tile, and the per-tile statistics
merge into :attr:`search_stats` / :attr:`bonsai_stats` /
:attr:`hierarchy_stats` exactly like the unsharded facade's.

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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.floatfmt import FLOAT16, FloatFormat
from ..kdtree.build import KDTreeConfig
from ..kdtree.radius_search import SearchStats
from ..pointcloud.cloud import PointCloud
from ..runtime.batch import (
    BatchKNNResult,
    BatchRadiusResult,
    _build_radius_result,
    _empty_radius_result,
    _select_nearest,
)
from ..runtime.kernels import rowwise_distances2
from ..runtime.queries import as_query_batch, check_k, check_radius
from .index import DEFAULT_BACKEND, PointCloudIndex
from .parallel import merge_knn_shards, merge_radius_shards, plan_shards

__all__ = ["ShardedPointCloudIndex", "DEFAULT_TILE_SIZE"]

#: Default XY tile edge length (metres for the built-in scenarios).  At
#: map-scale point densities (~40 points/m^2 of surface) a 32 m tile holds a
#: few thousand points — trees build in milliseconds and single tiles fit in
#: L2-sized working sets.
DEFAULT_TILE_SIZE = 32.0

#: Queries per processing chunk.  Chunks bound the (chunk, tiles) distance
#: matrix the tile-selection step materialises; contiguous chunks merge
#: through the shard-merge helpers, so the chunk size never reaches results.
DEFAULT_CHUNK_QUERIES = 2048

#: Relative / absolute slack of the sphere-vs-tile-bbox intersection test:
#: the bbox distance is computed with different floating-point rounding than
#: the per-point kernels, so the test over-admits by a hair rather than ever
#: skipping a tile holding an in-range point.
_BBOX_SLACK_REL = 1e-9
_BBOX_SLACK_ABS = 1e-12


class ShardedPointCloudIndex:
    """A grid of per-tile :class:`PointCloudIndex` behind one query surface.

    Parameters
    ----------
    cloud:
        A :class:`~repro.pointcloud.cloud.PointCloud` or an ``(N, 3)``
        array.  An empty cloud is allowed (zero tiles; every query returns
        empty results) — unlike the unsharded index, whose tree build
        rejects it.
    tile_size:
        XY edge length of the square grid tiles (must be positive).
    tree_config:
        Per-tile tree-build parameters (PCL defaults when omitted).
    fmt:
        Reduced float format of the lazy per-tile Bonsai compression.
    chunk_queries:
        Queries per processing chunk (affects memory/throughput only).
    """

    def __init__(self, cloud, *, tile_size: float = DEFAULT_TILE_SIZE,
                 tree_config: Optional[KDTreeConfig] = None,
                 fmt: FloatFormat = FLOAT16,
                 chunk_queries: int = DEFAULT_CHUNK_QUERIES):
        if tile_size <= 0.0:
            raise ValueError("tile_size must be positive")
        if chunk_queries < 1:
            raise ValueError("chunk_queries must be at least 1")
        if isinstance(cloud, PointCloud):
            points = cloud.points
        else:
            points = np.asarray(cloud, dtype=np.float32)
            if points.ndim != 2 or points.shape[1] != 3:
                raise ValueError("points must form an (N, 3) array")
        self.tile_size = float(tile_size)
        self.tree_config = tree_config
        self.fmt = fmt
        self.chunk_queries = int(chunk_queries)
        #: The full cloud, in the exact float32 form every tile tree indexes
        #: (the same cast the unsharded tree build applies).
        self._points = np.ascontiguousarray(points, dtype=np.float32)
        self._points_f64 = self._points.astype(np.float64)
        self._partition()
        #: Per-tile indexes, built lazily on first touch.
        self._tile_indexes: List[Optional[PointCloudIndex]] = (
            [None] * self.n_tiles)

    def _partition(self) -> None:
        """Assign every point to its XY grid tile and record tile extents."""
        n = self._points_f64.shape[0]
        if n == 0:
            self._tile_cells = np.empty((0, 2), dtype=np.int64)
            self._tile_point_indices: List[np.ndarray] = []
            self._tile_lo = np.empty((0, 3), dtype=np.float64)
            self._tile_hi = np.empty((0, 3), dtype=np.float64)
            return
        cells = np.floor(self._points_f64[:, :2] / self.tile_size).astype(np.int64)
        # Unique cells come back lexicographically sorted — the canonical
        # tile numbering; the stable argsort keeps global point indices
        # ascending within each tile, so local -> global index maps are
        # monotone and per-tile kNN tie-breaking by local index equals
        # tie-breaking by global index.
        unique_cells, inverse = np.unique(cells, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=unique_cells.shape[0])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        sorted_points = self._points_f64[order]
        self._tile_cells = unique_cells
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

    @property
    def tile_counts(self) -> np.ndarray:
        """Points per tile, in tile order."""
        return np.array([idx.size for idx in self._tile_point_indices],
                        dtype=np.intp)

    @property
    def tile_cells(self) -> np.ndarray:
        """The ``(T, 2)`` integer XY grid coordinates of each tile."""
        return self._tile_cells

    def tile_bounds(self, tile: int) -> Tuple[np.ndarray, np.ndarray]:
        """The actual point bounding box ``(lo, hi)`` of one tile."""
        return self._tile_lo[tile].copy(), self._tile_hi[tile].copy()

    @property
    def n_built_tiles(self) -> int:
        """Number of tiles whose index has been built so far (lazy build)."""
        return sum(1 for index in self._tile_indexes if index is not None)

    def tile_index(self, tile: int) -> PointCloudIndex:
        """The named tile's :class:`PointCloudIndex`, built on first touch."""
        index = self._tile_indexes[tile]
        if index is None:
            index = PointCloudIndex(
                self._points[self._tile_point_indices[tile]],
                tree_config=self.tree_config, fmt=self.fmt)
            self._tile_indexes[tile] = index
        return index

    def built_tile_indexes(self) -> List[Tuple[int, PointCloudIndex]]:
        """``(tile, index)`` pairs of the tiles built so far, in tile order.

        Lets callers (the map-scale sweep, tests) walk per-tile statistics
        without forcing untouched tiles to build.
        """
        return [(tile, index) for tile, index in enumerate(self._tile_indexes)
                if index is not None]

    def build_all(self) -> "ShardedPointCloudIndex":
        """Eagerly build every tile index (benchmark warm-up); returns self."""
        for tile in range(self.n_tiles):
            self.tile_index(tile)
        return self

    def ensure_compressed(self) -> None:
        """Build and Bonsai-compress every tile eagerly.

        Normal use never needs this: each tile compresses itself the first
        time a Bonsai backend touches it.  Benchmarks call it to move the
        compression pass out of the timed region.
        """
        for tile in range(self.n_tiles):
            self.tile_index(tile).ensure_compressed()

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
    # Tile selection
    # ------------------------------------------------------------------
    def _tile_bbox_distances2(self, chunk: np.ndarray) -> np.ndarray:
        """Squared distance of each chunk query to each tile's point bbox.

        ``(C, T)`` matrix; zero when the query lies inside the box.  This is
        the standard point-vs-AABB clamp distance, used only to *select*
        tiles — never as a result distance — so its rounding is covered by
        the slack of the intersection tests.
        """
        below = np.maximum(self._tile_lo[None, :, :] - chunk[:, None, :], 0.0)
        above = np.maximum(chunk[:, None, :] - self._tile_hi[None, :, :], 0.0)
        gap = np.maximum(below, above)
        return np.einsum("ctd,ctd->ct", gap, gap)

    def _backend_for(self, tile: int, name: str, recorded: bool, cpu):
        return self.tile_index(tile).backend(name, recorded=recorded, cpu=cpu)

    def _query_chunks(self, n_queries: int) -> List[Tuple[int, int]]:
        n_chunks = -(-n_queries // self.chunk_queries)
        return plan_shards(n_queries, n_chunks)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
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
        parts: List[BatchRadiusResult] = []
        for start, stop in self._query_chunks(n_queries):
            chunk = batch[start:stop]
            bbox_d2 = self._tile_bbox_distances2(chunk)
            hit_queries: List[np.ndarray] = []
            hit_points: List[np.ndarray] = []
            for tile in np.nonzero((bbox_d2 <= threshold).any(axis=0))[0]:
                sub = np.nonzero(bbox_d2[:, tile] <= threshold)[0]
                result = self._backend_for(tile, backend, recorded, cpu) \
                    .radius_search(chunk[sub], r)
                if result.total_matches:
                    hit_queries.append(np.repeat(sub, result.counts))
                    hit_points.append(
                        self._tile_point_indices[tile][result.point_indices])
            parts.append(_build_radius_result(stop - start, self.n_points,
                                              hit_queries, hit_points))
        return merge_radius_shards(parts)

    def knn(self, queries, k: int, *, backend: str = DEFAULT_BACKEND,
            recorded: bool = False, cpu=None) -> BatchKNNResult:
        """The ``k`` nearest indexed points of each query.

        Tiles are visited per query in increasing bounding-box distance and
        the visit stops as soon as the next tile's box is farther than the
        query's current k-th candidate — each visited tile answers a
        standard per-tile kNN, candidate distances are recomputed through
        the shared per-pair kernel, and the final selection is the batched
        engine's (sort by ``(query, d2, point)``), so the result is bitwise
        identical to the unsharded index's.
        """
        k = check_k(k)
        batch = as_query_batch(queries)
        n_queries = batch.shape[0]
        width = min(k, self.n_points)
        if n_queries == 0 or self.n_tiles == 0:
            return BatchKNNResult(
                indices=np.full((n_queries, width), -1, dtype=np.intp),
                distances=np.full((n_queries, width), np.inf))
        parts = [self._knn_chunk(batch[start:stop], k, width, backend,
                                 recorded, cpu)
                 for start, stop in self._query_chunks(n_queries)]
        return merge_knn_shards(parts)

    def _knn_chunk(self, chunk: np.ndarray, k: int, width: int, backend: str,
                   recorded: bool, cpu) -> BatchKNNResult:
        """Serve one contiguous chunk of kNN queries (see :meth:`knn`)."""
        n_chunk = chunk.shape[0]
        n_tiles = self.n_tiles
        bbox_d2 = self._tile_bbox_distances2(chunk)
        # Stable argsort: per query, tiles in (bbox distance, tile id) order.
        visit_order = np.argsort(bbox_d2, axis=1, kind="stable")
        next_rank = np.zeros(n_chunk, dtype=np.intp)
        #: k-th smallest candidate squared distance so far (inf until a
        #: query has accumulated ``width`` candidates) — the pruning bound.
        tau = np.full(n_chunk, np.inf)
        cand_points: List[List[np.ndarray]] = [[] for _ in range(n_chunk)]
        cand_d2: List[List[np.ndarray]] = [[] for _ in range(n_chunk)]
        cand_counts = np.zeros(n_chunk, dtype=np.intp)

        while True:
            # Each query's next tile, or -1 when it is done: tiles come in
            # increasing bbox distance, so the first tile beyond tau ends
            # the query's visit (all later tiles are at least as far).
            next_tile = np.full(n_chunk, -1, dtype=np.intp)
            for q in np.nonzero(next_rank < n_tiles)[0]:
                tile = visit_order[q, next_rank[q]]
                if (bbox_d2[q, tile]
                        <= tau[q] * (1.0 + _BBOX_SLACK_REL) + _BBOX_SLACK_ABS):
                    next_tile[q] = tile
                else:
                    next_rank[q] = n_tiles
            pending = next_tile >= 0
            if not pending.any():
                break
            for tile in np.unique(next_tile[pending]):
                sub = np.nonzero(next_tile == tile)[0]
                result = self._backend_for(tile, backend, recorded, cpu) \
                    .knn(chunk[sub], k)
                # Per-tile width is min(k, tile points): rows carry no
                # padding, and the local->global map is monotone, so the
                # tile's top-k by (d2, local index) is its top-k by
                # (d2, global index).
                local_width = result.indices.shape[1]
                global_points = (self._tile_point_indices[tile]
                                 [result.indices])
                d2 = rowwise_distances2(
                    self._points_f64[global_points.reshape(-1)],
                    np.repeat(chunk[sub], local_width, axis=0),
                ).reshape(sub.size, local_width)
                for row, q in enumerate(sub):
                    cand_points[q].append(global_points[row])
                    cand_d2[q].append(d2[row])
                    cand_counts[q] += local_width
                    if cand_counts[q] >= width:
                        pool = np.concatenate(cand_d2[q])
                        tau[q] = np.partition(pool, width - 1)[width - 1]
                next_rank[sub] += 1

        flat_q: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        flat_p: List[np.ndarray] = [np.empty(0, dtype=np.intp)]
        flat_d2: List[np.ndarray] = [np.empty(0)]
        for q in range(n_chunk):
            if cand_points[q]:
                points = np.concatenate(cand_points[q])
                flat_q.append(np.full(points.size, q, dtype=np.intp))
                flat_p.append(points)
                flat_d2.append(np.concatenate(cand_d2[q]))
        indices, d2 = _select_nearest(n_chunk, width, np.concatenate(flat_q),
                                      np.concatenate(flat_p), np.concatenate(flat_d2))
        return BatchKNNResult(indices=indices, distances=np.sqrt(d2))

    def search(self, query: Sequence[float], radius: float, *,
               backend: str = DEFAULT_BACKEND) -> List[int]:
        """Single-query radius search (sorted point indices)."""
        return self.radius_search(
            as_query_batch(query), radius, backend=backend).indices_for(0).tolist()

    # ------------------------------------------------------------------
    # Merged statistics
    # ------------------------------------------------------------------
    @property
    def search_stats(self) -> SearchStats:
        """Search counters merged across every built tile's backends.

        Per-tile sub-batches each count as queries, so ``queries`` reflects
        (query, tile) visits — tile pruning quality — rather than the
        caller-facing batch size.
        """
        merged = SearchStats()
        for index in self._tile_indexes:
            if index is not None:
                merged.merge(index.search_stats)
        return merged

    @property
    def bonsai_stats(self) -> Optional[BonsaiStats]:
        """Compressed-leaf counters merged across the built tiles.

        ``None`` while no tile has served a Bonsai backend.
        """
        merged: Optional[BonsaiStats] = None
        for index in self._tile_indexes:
            if index is None:
                continue
            stats = index.bonsai_stats
            if stats is not None:
                if merged is None:
                    merged = BonsaiStats()
                merged.merge(stats)
        return merged

    @property
    def hierarchy_stats(self):
        """Cache-hierarchy counters merged across the built tiles.

        ``None`` while no tile has served a recorded backend; otherwise a
        :class:`~repro.hwmodel.cache.HierarchyStats`.
        """
        merged = None
        for index in self._tile_indexes:
            if index is None:
                continue
            stats = index.hierarchy_stats
            if stats is not None:
                if merged is None:
                    from ..hwmodel.cache import HierarchyStats
                    merged = HierarchyStats()
                merged.merge(stats)
        return merged
