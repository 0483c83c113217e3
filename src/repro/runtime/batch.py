"""Batched k-d tree queries: many queries per traversal, NumPy throughout.

The single-query paths (:mod:`repro.kdtree.knn`,
:mod:`repro.kdtree.radius_search`) walk the tree once per query and pay the
Python interpreter for every node.  The perception workloads, however, issue
queries in large, known batches — every scan point of an NDT iteration,
every point of a euclidean-clustering frame — so this module walks the
tree's flat arrays (:class:`~repro.kdtree.build.TreeArrays`) once per
*batch*, one tree level per NumPy step: every live (query, node) pair of a
level moves to the children its query reaches in one set of array
operations (:func:`traverse_levels`), with no Python loop over nodes.  The leaf pass
then takes the (query, leaf) pairs in leaf order, expands only the occupied
(query, leaf point) pairs, ``LEAF_CHUNK_POINTS`` at a time
(:func:`leaf_rows`), and runs the shared row-wise distance kernels
(:mod:`repro.runtime.kernels`) on them.

Results are exact: the radius traversal applies the same per-query pruning
rule as the single-query code (kNN prunes by bounding boxes, which only
skips nodes that cannot hold an answer), and the distance kernels are
shared, so :class:`BaselineBatchedBackend` (the ``baseline-batched``
backend of :mod:`repro.engine`) returns precisely the points the per-query
functions return (radius results are index-sorted per query; kNN results
are ``(distance, index)``-sorted like the single-query output, and a
distance tie at the k-th place keeps the lowest point indices in both).

A radius traversal visits exactly the (query, node) pairs the per-query
searches visit, so its :class:`~repro.kdtree.radius_search.SearchStats`
counters aggregate exactly as if the queries had been issued one by one;
the counters are charged from pair counts.

Example
-------
>>> import numpy as np
>>> from repro.engine import get_backend
>>> from repro.kdtree import build_kdtree
>>> points = np.random.default_rng(0).uniform(-1, 1, (500, 3)).astype(np.float32)
>>> backend = get_backend("baseline-batched", build_kdtree(points))
>>> queries = points[:100]
>>> near = backend.radius_search(queries, radius=0.25)
>>> len(near.indices_for(0)) >= 1        # every query point finds itself
True
>>> backend.knn(queries, k=4).indices.shape
(100, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..kdtree.build import KDTree, TreeArrays
from ..kdtree.layout import POINT_STRIDE_BYTES
from ..kdtree.radius_search import SearchStats
from .kernels import rowwise_distances2
from .queries import as_query_batch, check_k, check_radius

__all__ = [
    "BatchRadiusResult",
    "BatchKNNResult",
    "BaselineBatchedBackend",
    "leaf_rows",
    "traverse_levels",
]

#: (query, leaf point) pairs one step of the leaf pass expands at most.  It
#: bounds the pass's temporaries (about 1 MB) whatever the batch size.
LEAF_CHUNK_POINTS = 8192
#: Points a kNN search scans around each query before its sweep: the
#: largest subtree on the query's descent path holding at most this many
#: points (or ``k``, if more), but at least ``k``, gives the first bound on
#: its answer.
KNN_HOME_POINTS = 64


@dataclass
class BatchRadiusResult:
    """Per-query radius-search results in CSR (offsets + flat indices) form.

    ``point_indices[offsets[q]:offsets[q + 1]]`` are the tree points within
    the radius of query ``q``, sorted by point index.  The CSR layout keeps a
    10k-query sweep in two flat arrays instead of 10k Python lists.
    """

    offsets: np.ndarray
    point_indices: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.offsets.shape[0] - 1

    @property
    def counts(self) -> np.ndarray:
        """Number of in-radius points per query."""
        return np.diff(self.offsets)

    @property
    def total_matches(self) -> int:
        """Total number of (query, point) matches in the batch."""
        return int(self.point_indices.shape[0])

    def indices_for(self, query_index: int) -> np.ndarray:
        """In-radius point indices of one query (sorted by index)."""
        return self.point_indices[self.offsets[query_index]:self.offsets[query_index + 1]]

    def as_lists(self) -> List[List[int]]:
        """Results as one Python list per query (the single-query format)."""
        return [self.indices_for(q).tolist() for q in range(self.n_queries)]


@dataclass
class BatchKNNResult:
    """Per-query kNN results as dense ``(Q, k)`` arrays.

    Rows are sorted by increasing distance (ties by point index, like the
    single-query kNN).  When the tree holds fewer than ``k`` points the
    trailing entries are padding: index ``-1``, distance ``inf``.
    """

    indices: np.ndarray
    distances: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.indices.shape[0]

    def as_lists(self) -> List[List[Tuple[int, float]]]:
        """Results as ``(index, distance)`` lists (the single-query format)."""
        out: List[List[Tuple[int, float]]] = []
        for row_idx, row_dist in zip(self.indices, self.distances):
            valid = row_idx >= 0
            out.append([(int(i), float(d)) for i, d in zip(row_idx[valid], row_dist[valid])])
        return out


class BaselineBatchedBackend:
    """``baseline-batched``: one 32-bit traversal per query *batch*.

    Binds a :class:`~repro.kdtree.build.KDTree` and a
    :class:`~repro.kdtree.radius_search.SearchStats` accumulator that every
    batch charges.  Only the tree's flat arrays are read, never the
    per-query node lists.  Built by name through
    :func:`repro.engine.get_backend`.
    """

    name = "baseline-batched"
    bonsai_stats = None
    recorder = None

    def __init__(self, tree: KDTree, *, stats: Optional[SearchStats] = None):
        self.tree = tree
        self.stats = stats if stats is not None else SearchStats()

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """All tree points within ``radius`` of each query (index-sorted CSR)."""
        radius = check_radius(radius)
        query_arr = as_query_batch(queries)
        n_queries = query_arr.shape[0]
        self.stats.queries += n_queries
        if n_queries == 0:
            return _empty_radius_result(0)

        r2 = radius * radius
        arrays = self.tree.arrays
        points_f64 = self.tree.points_f64
        pair_q, pair_leaf = radius_leaf_pairs(arrays, query_arr, radius, self.stats)
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []
        n_in = 0
        for pairs, rows in leaf_rows(arrays, pair_q, pair_leaf):
            qs = pair_q[pairs]
            ids = arrays.leaf_points[rows]
            inside = np.flatnonzero(rowwise_distances2(
                query_arr.take(qs, axis=0), points_f64.take(ids, axis=0)) <= r2)
            n_in += inside.shape[0]
            hit_queries.append(qs[inside])
            hit_points.append(ids[inside])
        n_examined = int(arrays.leaf_sizes[pair_leaf].sum())
        self.stats.points_examined += n_examined
        self.stats.points_in_radius += n_in
        self.stats.point_bytes_loaded += n_examined * POINT_STRIDE_BYTES
        return _build_radius_result(n_queries, self.tree.n_points, hit_queries,
                                    hit_points)

    def knn(self, queries, k: int) -> BatchKNNResult:
        """The ``k`` nearest tree points of each query (see :func:`_knn_search`)."""
        return _knn_search(self.tree, queries, k, self.stats)


def _knn_search(tree: KDTree, queries, k: int, stats: SearchStats) -> BatchKNNResult:
    """The ``k`` nearest tree points of each query, charged to ``stats``.

    Both batched backends answer kNN with it: radius search is the
    operation compressed leaves accelerate, so kNN reads the 32-bit points
    whatever the flavour.

    Bound, then sweep.  Every query first scans its *home subtree*, the
    largest subtree on its descent path holding at most
    ``KNN_HOME_POINTS`` (or ``k``) points but at least ``k`` (or else its
    own leaf); the ``k``-th nearest of those points bounds the query's
    answer, ``tau``.  A level-synchronous sweep then enters each node whose
    bounding box lies within ``tau`` of the query, scans the leaves it
    reaches outside the home subtree, and after each level's leaves
    tightens ``tau`` to the smallest ``k``-th distance of a leaf the query
    reached.  The leaves are scanned as fixed-width blocks of leaf-order
    rows (:func:`_scan_block`), which yield each pair's ``k``-th distance
    with one ``np.partition``.  The ``k`` nearest of the points seen within
    the final ``tau`` are the answer, equal to
    :func:`repro.kdtree.knn.nearest_neighbors` per query, ties at the k-th
    place included (both keep the lowest point indices).  Rows are
    ``inf``/``-1`` padded when the tree holds fewer than ``k`` points.

    ``SearchStats`` counters (``leaves_visited``, ``leaf_visit_counts``,
    ``points_examined`` over the home and swept leaves,
    ``interior_visited`` over the sweep) are exact for this algorithm and
    the same however a batch is split, since each query's ``tau`` depends
    on its own leaves only.  They differ from the per-query search's, which
    prunes by split planes in depth-first order: as counts of the
    per-query search they are approximate.  Radius-search counters, by
    contrast, equal the per-query ones.
    """
    k = check_k(k)
    query_arr = as_query_batch(queries)
    n_queries = query_arr.shape[0]
    stats.queries += n_queries
    width = min(k, tree.n_points)
    if n_queries == 0:
        return BatchKNNResult(
            indices=np.empty((0, width), dtype=np.intp),
            distances=np.empty((0, width), dtype=np.float64),
        )

    arrays = tree.arrays
    starts = arrays.leaf_starts
    tau = np.full(n_queries, np.inf)
    home_first, home_count = _home_subtrees(
        arrays, query_arr, max(KNN_HOME_POINTS, width), width)
    home_end = home_first + home_count
    home_rows = starts.take(home_first)
    found = [_scan_block(tree, query_arr, np.arange(n_queries, dtype=np.intp),
                         home_rows, starts.take(home_end) - home_rows, width, tau)]
    visited = [_leaf_ranges(home_first, home_count)]
    for pair_q, pair_leaf in traverse_levels(arrays, query_arr, stats, tau=tau):
        # The home subtree's leaves were scanned already.
        new = ((pair_leaf < home_first.take(pair_q))
               | (pair_leaf >= home_end.take(pair_q)))
        pair_q, pair_leaf = pair_q[new], pair_leaf[new]
        if not pair_q.size:
            continue
        visited.append(pair_leaf)
        first = starts.take(pair_leaf)
        found.append(_scan_block(tree, query_arr, pair_q, first,
                                 starts.take(pair_leaf + 1) - first, width, tau))
    leaves = np.concatenate(visited)
    stats.note_leaf_visits(leaves)
    stats.points_examined += int(arrays.leaf_sizes.take(leaves).sum())
    flat_q, flat_p, flat_d2 = (np.concatenate(part) for part in zip(*found))
    keep = flat_d2 <= tau.take(flat_q)
    indices, distances2 = _select_nearest(n_queries, width, flat_q[keep],
                                          flat_p[keep], flat_d2[keep])
    return BatchKNNResult(indices=indices, distances=np.sqrt(distances2))


def _scan_block(tree: KDTree, query_arr: np.ndarray, pair_q: np.ndarray,
                first: np.ndarray, sizes: np.ndarray, width: int,
                tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances to each pair's leaf-order rows, tightening ``tau`` in place.

    Pair ``i`` holds the rows ``first[i]:first[i] + sizes[i]`` (a leaf, or
    the leaves of a subtree).  The pairs are scanned as a ``(pairs,
    widest)`` block, at most ``LEAF_CHUNK_POINTS`` rows (or one pair) at a
    time; a pair's columns past its rows repeat its last row and are set to
    ``inf`` after the distance.  The ``width``-th nearest point of a pair
    with at least ``width`` rows bounds its query's answer, so ``tau`` drops
    to the smallest such bound.  Returns ``(query, point, d2)`` of the
    points within the tightened ``tau``.  The traversal reads ``tau`` only
    between levels, so tightening it block by block here changes no visit:
    it only keeps fewer candidates.
    """
    leaf_points = tree.arrays.leaf_points
    points_f64 = tree.points_f64
    widest = int(sizes.max())
    cols = np.arange(widest)
    step = max(1, LEAF_CHUNK_POINTS // widest)
    parts: Tuple[List[np.ndarray], ...] = ([], [], [])
    for lo in range(0, pair_q.shape[0], step):
        qs = pair_q[lo:lo + step]
        n_rows = sizes[lo:lo + step, None]
        ids = leaf_points.take(first[lo:lo + step, None] + np.minimum(cols, n_rows - 1))
        d2 = rowwise_distances2(np.repeat(query_arr.take(qs, axis=0), widest, axis=0),
                                points_f64.take(ids.ravel(), axis=0)).reshape(ids.shape)
        pad = cols >= n_rows
        d2[pad] = np.inf
        if width <= widest:
            np.minimum.at(tau, qs, np.partition(d2, width - 1, axis=1)[:, width - 1])
        keep = d2 <= tau.take(qs)[:, None]
        keep[pad] = False
        flat = np.flatnonzero(keep)
        for part, values in zip(parts, (qs.take(flat // widest), ids.ravel().take(flat),
                                        d2.ravel().take(flat))):
            part.append(values)
    return tuple(np.concatenate(part) for part in parts)  # type: ignore[return-value]


def traverse_levels(arrays: TreeArrays, query_arr: np.ndarray, stats: SearchStats, *,
                    radius: Optional[float] = None,
                    tau: Optional[np.ndarray] = None
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Walk a query batch down the tree one level per step.

    Yields, level by level, the ``(query ids, leaf ids)`` pairs whose
    queries reach a leaf at that level, sorted by leaf id (leaves are
    numbered in preorder, so the leaf pass then reads the leaf-order
    arrays front to back instead of in the traversal's scattered order),
    and charges every (query, interior node) pair to
    ``stats.interior_visited``.

    * Radius search (``radius``): a query descends into the side of a split
      containing it, and into the other side when the gap to that side's
      edge is within ``radius``.  Each pair is one visit of the per-query
      traversal's, which applies the same rule node by node.
    * kNN (``tau``): a query enters a child when the squared distance to
      the child's bounding box is within ``tau[query]``.  The box distance
      runs through the same kernel as the point distances, so it never
      exceeds the distance to a point in the box, rounding included.
      ``tau`` is read at every level, so the caller may tighten it between
      the levels.

    A level is bound by NumPy's per-call overhead, not by its arithmetic,
    so every gather is a ``take``: of node fields by node id, of query rows
    (``take(axis=0)`` returns C-contiguous rows, so the distance kernel
    sums in its usual order), and of one coordinate per pair from the
    flattened batch, which is why ``query_arr`` should be C-contiguous
    (:func:`~repro.runtime.queries.as_query_batch` makes it so).
    """
    leaf_id = arrays.leaf_id
    # Row-major coordinates: query q's coordinate d is coords[3 * q + d].
    coords = query_arr.ravel()
    qidx = np.arange(query_arr.shape[0], dtype=np.intp)
    node = np.zeros(qidx.shape[0], dtype=np.intp)
    while qidx.size:
        leaves = leaf_id.take(node)
        at_leaf = leaves >= 0
        if at_leaf.any():
            leaves = leaves[at_leaf]
            order = np.argsort(leaves, kind="stable")
            yield qidx[at_leaf].take(order), leaves.take(order)
            inner = ~at_leaf
            qidx, node = qidx[inner], node[inner]
            if not qidx.size:
                return
        stats.interior_visited += qidx.size
        if tau is None:
            values = coords.take(qidx * 3 + arrays.split_dim.take(node))
            on_left = values <= arrays.split_value.take(node)
            go_left = on_left | (values - arrays.split_low.take(node) <= radius)
            go_right = ~on_left | (arrays.split_high.take(node) - values <= radius)
            qidx = np.concatenate((qidx[go_left], qidx[go_right]))
            node = np.concatenate((arrays.left.take(node[go_left]),
                                   arrays.right.take(node[go_right])))
        else:
            qidx = np.concatenate((qidx, qidx))
            node = np.concatenate((arrays.left.take(node), arrays.right.take(node)))
            q_rows = query_arr.take(qidx, axis=0)
            # The point of the child's box nearest to the query.
            nearest = np.maximum(q_rows, arrays.bbox_min.take(node, axis=0))
            np.minimum(nearest, arrays.bbox_max.take(node, axis=0), out=nearest)
            reach = rowwise_distances2(q_rows, nearest) <= tau.take(qidx)
            qidx, node = qidx[reach], node[reach]


def radius_leaf_pairs(arrays: TreeArrays, query_arr: np.ndarray, radius: float,
                      stats: SearchStats) -> Tuple[np.ndarray, np.ndarray]:
    """Every (query, leaf) pair a radius traversal visits, sorted by leaf id;
    leaf visits charged."""
    levels = list(traverse_levels(arrays, query_arr, stats, radius=radius))
    pair_leaf = np.concatenate([leaf for _, leaf in levels])
    order = np.argsort(pair_leaf, kind="stable")
    pair_q = np.concatenate([q for q, _ in levels])[order]
    pair_leaf = pair_leaf[order]
    stats.note_leaf_visits(pair_leaf)
    return pair_q, pair_leaf


def leaf_rows(arrays: TreeArrays, pair_q: np.ndarray,
              pair_leaf: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand (query, leaf) pairs into (query, leaf point) pairs, in chunks.

    Yields ``(pairs, rows)`` as :func:`segment_rows` does for the pairs'
    leaves: the index into ``pair_q``/``pair_leaf`` of each (query, leaf
    point) pair, and its leaf-order row (which indexes
    ``arrays.leaf_points`` and the decoded mirror).
    """
    first = arrays.leaf_starts[pair_leaf]
    return segment_rows(first, arrays.leaf_starts[pair_leaf + 1] - first)


def segment_rows(first: np.ndarray,
                 sizes: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand row segments ``first[i]:first[i] + sizes[i]`` into rows, in chunks.

    Yields ``(pairs, rows)`` for about ``LEAF_CHUNK_POINTS`` rows at a time
    (a segment is never split, so a chunk may exceed that by one segment):
    each row's segment index, in order, and the row itself.  Only the
    segments' rows are expanded: nothing is padded.
    """
    if not first.size:
        return
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(
        ends, np.arange(LEAF_CHUNK_POINTS, ends[-1], LEAF_CHUNK_POINTS), side="right")
    bounds = [0, *cuts.tolist(), first.shape[0]]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:  # a cut inside a segment longer than a chunk
            continue
        n = sizes[lo:hi]
        base = ends[lo - 1] if lo else 0
        shift = first[lo:hi] - (ends[lo:hi] - n - base)
        rows = np.arange(ends[hi - 1] - base) + np.repeat(shift, n)
        yield np.repeat(np.arange(lo, hi), n), rows


def _home_subtrees(arrays: TreeArrays, query_arr: np.ndarray, max_points: int,
                   min_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each query's home subtree, as ``(first leaf id, number of leaves)``.

    A query descends from the root while its subtree holds more than
    ``max_points`` points and the child on its side holds at least
    ``min_points``: the home subtree is the largest one on its descent path
    holding at most ``max_points`` points, unless that holds fewer than
    ``min_points`` (then the smallest holding at least ``min_points``), and
    at least the query's leaf.  Nodes are in preorder, so a subtree's
    leaves are consecutive and the left child of node ``i`` (node ``i + 1``)
    roots ``(right[i] - i) // 2`` of them.  The side ``<= split_value`` is
    left.
    """
    starts = arrays.leaf_starts
    coords = query_arr.ravel()
    n_queries = query_arr.shape[0]
    node = np.zeros(n_queries, dtype=np.intp)
    first = np.zeros(n_queries, dtype=np.intp)
    count = np.full(n_queries, arrays.n_leaves, dtype=np.intp)
    active = np.arange(n_queries, dtype=np.intp)
    while True:
        lo = first.take(active)
        large = starts.take(lo + count.take(active)) - starts.take(lo) > max_points
        active = active[large & (arrays.leaf_id.take(node.take(active)) < 0)]
        if not active.size:
            return first, count
        at = node.take(active)
        on_left = (coords.take(active * 3 + arrays.split_dim.take(at))
                   <= arrays.split_value.take(at))
        n_left = (arrays.right.take(at) - at) // 2
        child_first = first.take(active) + np.where(on_left, 0, n_left)
        child_count = np.where(on_left, n_left, count.take(active) - n_left)
        enough = (starts.take(child_first + child_count) - starts.take(child_first)
                  >= min_points)
        active = active[enough]
        node[active] = np.where(on_left, arrays.left.take(at),
                                arrays.right.take(at))[enough]
        first[active] = child_first[enough]
        count[active] = child_count[enough]


def _leaf_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The leaf ids ``first[i]:first[i] + count[i]`` of every range, joined."""
    ends = np.cumsum(count)
    return np.arange(ends[-1]) + np.repeat(first - (ends - count), count)


def _select_nearest(n_queries: int, width: int, flat_q: np.ndarray,
                    flat_p: np.ndarray,
                    flat_d2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each query's ``width`` smallest ``(d2, point)`` candidates.

    Returns ``(Q, width)`` index and squared-distance arrays sorted like the
    single-query output, padded with ``-1`` / ``inf``.
    """
    indices = np.full((n_queries, width), -1, dtype=np.intp)
    distances2 = np.full((n_queries, width), np.inf)
    if flat_q.size:
        # Sort by (query, distance, index) — the single-query ordering —
        # then keep each query's first `width` entries.
        order = np.lexsort((flat_p, flat_d2, flat_q))
        flat_q = flat_q[order]
        starts = np.zeros(n_queries, dtype=np.intp)
        np.cumsum(np.bincount(flat_q, minlength=n_queries)[:-1], out=starts[1:])
        rank = np.arange(flat_q.size) - starts[flat_q]
        keep = rank < width
        rows, rank = flat_q[keep], rank[keep]
        indices[rows, rank] = flat_p[order][keep]
        distances2[rows, rank] = flat_d2[order][keep]
    return indices, distances2


def _empty_radius_result(n_queries: int) -> BatchRadiusResult:
    return BatchRadiusResult(
        offsets=np.zeros(n_queries + 1, dtype=np.intp),
        point_indices=np.empty(0, dtype=np.intp),
    )


def _build_radius_result(n_queries: int, n_points: int, hit_queries: List[np.ndarray],
                         hit_points: List[np.ndarray]) -> BatchRadiusResult:
    """Assemble (query, point) hit pairs into a sorted CSR result.

    Point ids lie in ``[0, n_points)``, so one sort of the int64 key
    ``query * n_points + point`` orders the hits by query, then point.
    Empties both lists as it joins them: the per-chunk pieces are freed
    before the sort, which keeps the peak memory of a large batch (a
    clustering frame's whole radius graph) down.
    """
    if not hit_queries:
        return _empty_radius_result(n_queries)
    flat_q = np.concatenate(hit_queries)
    hit_queries.clear()
    offsets = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat_q, minlength=n_queries), out=offsets[1:])
    key = flat_q.astype(np.int64, copy=False)
    key *= n_points
    key += np.concatenate(hit_points)
    hit_points.clear()
    key.sort()
    key %= n_points
    return BatchRadiusResult(offsets=offsets, point_indices=key.astype(np.intp, copy=False))
