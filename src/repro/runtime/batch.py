"""Batched k-d tree queries: many queries per traversal, NumPy throughout.

The single-query paths (:mod:`repro.kdtree.knn`,
:mod:`repro.kdtree.radius_search`) walk the tree once per query and pay the
Python interpreter for every node.  The perception workloads, however, issue
queries in large, known batches — every scan point of an NDT iteration,
every point of a euclidean-clustering frame — so this module walks the
tree's flat arrays (:class:`~repro.kdtree.build.TreeArrays`) once per
*batch*, one tree level per NumPy step, with no Python loop over nodes.

* Radius search (:func:`radius_leaf_pairs`): for a fixed radius, the
  per-query rule for entering a child reduces to one threshold per side
  and node (:func:`reach_thresholds`), derived once per tree and radius
  (:func:`radius_tables`).  Each live (query, node) pair moves to a child
  in place, and only the pairs that enter both children append one; a
  pair at a leaf stays there.  One sort orders the pairs by (leaf, query).
* kNN (:func:`traverse_levels`): a bounding-box sweep that hands over each
  level's (query, leaf) pairs as the level reaches them.

The leaf pass then takes the (query, leaf) pairs in leaf order, expands only
the occupied (query, leaf point) pairs, ``LEAF_CHUNK_POINTS`` at a time
(:func:`leaf_rows`), and runs the shared row-wise distance kernels
(:mod:`repro.runtime.kernels`) on them.

Results are exact: the radius descent applies the same per-query pruning
rule as the single-query code (kNN prunes by bounding boxes, which only
skips nodes that cannot hold an answer), and the distance kernels are
shared, so :class:`BaselineBatchedBackend` (the ``baseline-batched``
backend of :mod:`repro.engine`) returns precisely the points the per-query
functions return (radius results are index-sorted per query; kNN results
are ``(distance, index)``-sorted like the single-query output, and a
distance tie at the k-th place keeps the lowest point indices in both).

A radius descent visits exactly the (query, node) pairs the per-query
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

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

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
    "RadiusTables",
    "leaf_rows",
    "radius_leaf_pairs",
    "radius_tables",
    "reach_thresholds",
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
        pair_q, pair_leaf = radius_leaf_pairs(self.tree, query_arr, radius, self.stats)
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []
        n_in = n_examined = 0
        for pairs, rows in leaf_rows(arrays, pair_q, pair_leaf):
            n_examined += rows.shape[0]
            qs = pair_q[pairs]
            ids = arrays.leaf_points[rows]
            inside = np.flatnonzero(rowwise_distances2(
                query_arr.take(qs, axis=0), points_f64.take(ids, axis=0)) <= r2)
            n_in += inside.shape[0]
            hit_queries.append(qs[inside])
            hit_points.append(ids[inside])
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
    home_sizes = starts.take(home_end) - home_rows
    n_examined = int(home_sizes.sum())
    found = [_scan_block(tree, query_arr, np.arange(n_queries, dtype=np.intp),
                         home_rows, home_sizes, width, tau)]
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
        sizes = starts.take(pair_leaf + 1) - first
        n_examined += int(sizes.sum())
        found.append(_scan_block(tree, query_arr, pair_q, first, sizes, width, tau))
    stats.note_leaf_visits(np.concatenate(visited))
    stats.points_examined += n_examined
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
                    tau: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Sweep a kNN query batch down the tree one level per step.

    A query enters a child when the squared distance to the child's
    bounding box is within ``tau[query]``.  The box distance runs through
    the same kernel as the point distances, so it never exceeds the
    distance to a point in the box, rounding included.  ``tau`` is read at
    every level, so the caller may tighten it between the levels.

    Yields, level by level, the ``(query ids, leaf ids)`` pairs whose
    queries reach a leaf at that level, sorted by leaf id (leaves are
    numbered in preorder, so the scans then read the leaf-order arrays
    front to back instead of in the sweep's scattered order), and charges
    every (query, interior node) pair to ``stats.interior_visited``.

    A level is bound by NumPy's per-call overhead, not by its arithmetic,
    so every gather is a ``take``: of node fields by node id, and of query
    rows (``take(axis=0)`` returns C-contiguous rows, so the distance
    kernel sums in its usual order).
    """
    leaf_id = arrays.leaf_id
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
        qidx = np.concatenate((qidx, qidx))
        node = np.concatenate((arrays.left.take(node), arrays.right.take(node)))
        q_rows = query_arr.take(qidx, axis=0)
        # The point of the child's box nearest to the query.
        nearest = np.maximum(q_rows, arrays.bbox_min.take(node, axis=0))
        np.minimum(nearest, arrays.bbox_max.take(node, axis=0), out=nearest)
        reach = rowwise_distances2(q_rows, nearest) <= tau.take(qidx)
        qidx, node = qidx[reach], node[reach]


class RadiusTables(NamedTuple):
    """A tree's per-node tables for the radius descent at one ``radius``.

    At an interior node ``n``, a query whose coordinate along
    ``split_dim[n]`` is ``v`` enters the left child (node ``n + 1``) iff
    ``v <= reach_left[n]`` and the right child iff ``v >= reach_right[n]``
    (:func:`reach_thresholds`).  At a leaf, ``reach_left`` is ``-inf``,
    ``reach_right`` ``+inf`` and ``step_right`` the leaf itself, so a pair
    at a leaf stays there.
    """

    radius: float
    reach_left: np.ndarray
    reach_right: np.ndarray
    #: The right child of each interior node, each leaf's own id.
    step_right: np.ndarray
    #: Each node's depth (the root's is 0).
    depth: np.ndarray
    #: The depth of the deepest leaf: the descent's number of steps.
    n_levels: int


def radius_tables(tree: KDTree, radius: float) -> RadiusTables:
    """The radius descent's tables of ``tree`` at ``radius``.

    Kept on the tree for the last radius asked (``tree.radius_tables``), so
    the searches of one radius over one tree derive them once.
    """
    tables = tree.radius_tables
    if tables is None or tables.radius != radius:
        arrays = tree.arrays
        inner = np.flatnonzero(arrays.leaf_id < 0)
        reach_left = np.full(arrays.n_nodes, -np.inf)
        reach_right = np.full(arrays.n_nodes, np.inf)
        reach_left[inner], reach_right[inner] = reach_thresholds(
            arrays.split_value.take(inner), arrays.split_low.take(inner),
            arrays.split_high.take(inner), radius)
        step_right = np.arange(arrays.n_nodes, dtype=np.intp)
        step_right[inner] = arrays.right.take(inner)
        depth = _node_depths(arrays)
        tables = tree.radius_tables = RadiusTables(
            radius, reach_left, reach_right, step_right, depth, int(depth.max()))
    return tables


def reach_thresholds(split_value: np.ndarray, split_low: np.ndarray,
                     split_high: np.ndarray,
                     radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact thresholds of the per-query radius rule, one per node and side.

    The per-query search (:func:`repro.kdtree.radius_search.radius_search`)
    enters a node's left child iff ``v <= split_value`` or ``fl(v -
    split_low) <= radius``, and its right child iff ``v > split_value`` or
    ``fl(split_high - v) <= radius``, for the query's coordinate ``v``.
    Rounded subtraction is monotone in ``v``, so each rule holds on one side
    of a threshold: returns ``(reach_left, reach_right)``, the largest
    double that enters the left child and the smallest that enters the
    right one.  Every threshold is checked against its rule, and against
    the next double beyond it; ``ArithmeticError`` if one is not exact.
    """
    reach_left = np.maximum(split_value, _reach_limit(split_low, radius))
    # fl(split_high - v) == fl(-v - (-split_high)), so the right side is the
    # left one mirrored.
    reach_right = np.minimum(np.nextafter(split_value, np.inf),
                             -_reach_limit(-split_high, radius))

    def enters_left(v):
        return (v <= split_value) | (v - split_low <= radius)

    def enters_right(v):
        return (v > split_value) | (split_high - v <= radius)

    with np.errstate(over="ignore"):
        exact = (enters_left(reach_left) & enters_right(reach_right)
                 & ((reach_left == np.inf)
                    | ~enters_left(np.nextafter(reach_left, np.inf)))
                 & ((reach_right == -np.inf)
                    | ~enters_right(np.nextafter(reach_right, -np.inf))))
    if not exact.all():
        raise ArithmeticError(
            f"radius {radius!r}: a reach threshold does not match the search rule")
    return reach_left, reach_right


def _reach_limit(low: np.ndarray, radius: float) -> np.ndarray:
    """The largest double ``v`` with ``fl(v - low) <= radius``, per entry.

    ``v - low`` rounds to at most ``radius`` until it passes ``radius``
    plus half the gap above it, so the limit lies near ``low + radius``.
    ``fl(low + radius)`` starts within three doubles of it, except where the
    sum cancels: for ``low`` in ``[-2 radius, -radius / 2]`` it is exact
    and may sit ~2**52 of its own ulps below the limit, so the start there
    is ``(radius + low) + half_gap``.  Three passes then step each value
    down where it fails the rule, or up where the next double passes it.
    """
    if radius == np.inf:
        return np.full(low.shape, np.inf)
    half_gap = math.ldexp(1.0, math.frexp(radius)[1] - 54)
    with np.errstate(over="ignore"):
        limit = low + radius
        band = np.flatnonzero((low >= -2.0 * radius) & (low <= -0.5 * radius))
        limit[band] = (radius + low.take(band)) + half_gap
        for _ in range(3):
            limit = np.where(limit - low > radius, np.nextafter(limit, -np.inf), limit)
            up = np.nextafter(limit, np.inf)
            limit = np.where(up - low <= radius, up, limit)
    return limit


def _node_depths(arrays: TreeArrays) -> np.ndarray:
    """Each node's depth, from a level-by-level walk of the whole tree."""
    depth = np.zeros(arrays.n_nodes, dtype=np.intp)
    level = np.zeros(1, dtype=np.intp)
    steps = 0
    while level.size:
        depth[level] = steps
        inner = level[arrays.leaf_id.take(level) < 0]
        level = np.concatenate((inner + 1, arrays.right.take(inner)))
        steps += 1
    return depth


def radius_leaf_pairs(tree: KDTree, query_arr: np.ndarray, radius: float,
                      stats: SearchStats) -> Tuple[np.ndarray, np.ndarray]:
    """Every (query, leaf) pair a radius search visits, in (leaf, query) order.

    Returns ``(query ids, leaf ids)`` sorted by leaf id, then query id (so
    the leaf pass reads the leaf-order arrays front to back), and charges
    ``stats.interior_visited`` and the leaf visits.  The pairs are exactly
    the per-query search's leaf visits, ``interior_visited`` its interior
    ones.

    One step per tree level, over the :func:`radius_tables` of ``radius``:
    each live (query, node) pair reads its query's coordinate along the
    node's split and moves, in place, to the left child if it reaches it
    and to the right child otherwise; a pair that reaches both children
    also appends a pair at the right one.  A pair at a leaf stays there, so
    after the deepest leaf's depth in steps every pair sits at its leaf,
    with no per-level compaction or sort.  A pair spent every step from the
    depth it started at down to its leaf at an interior node, which gives
    ``interior_visited``.  ``query_arr`` should be C-contiguous
    (:func:`~repro.runtime.queries.as_query_batch` makes it so): a pair's
    coordinate is one ``take`` from the flattened batch.
    """
    tables = radius_tables(tree, radius)
    arrays = tree.arrays
    split_dim = arrays.split_dim
    reach_left, reach_right, step_right = (
        tables.reach_left, tables.reach_right, tables.step_right)
    coords = query_arr.ravel()
    n_queries = query_arr.shape[0]
    # A pair holds its query as the offset of its row in ``coords``.
    rows = np.arange(0, 3 * n_queries, 3, dtype=np.intp)
    node = np.zeros(n_queries, dtype=np.intp)
    appended_depths = 0
    for level in range(tables.n_levels):
        values = coords.take(rows + split_dim.take(node))
        go_left = values <= reach_left.take(node)
        go_right = values >= reach_right.take(node)
        right = step_right.take(node)
        both = np.flatnonzero(go_left & go_right)
        node = np.where(go_left, node + 1, right)
        if both.size:
            appended_depths += (level + 1) * both.size
            rows = np.concatenate((rows, rows.take(both)))
            node = np.concatenate((node, right.take(both)))
    stats.interior_visited += int(tables.depth.take(node).sum()) - appended_depths
    stride = 3 * n_queries
    key = arrays.leaf_id.take(node) * stride
    key += rows
    key.sort()
    pair_leaf, rows = np.divmod(key, stride)
    stats.note_leaf_visits(pair_leaf)
    return rows // 3, pair_leaf


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
