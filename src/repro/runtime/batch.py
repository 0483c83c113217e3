"""Batched k-d tree queries: many queries per traversal, NumPy throughout.

The single-query paths (:mod:`repro.kdtree.knn`,
:mod:`repro.kdtree.radius_search`) walk the tree once per query and pay the
Python interpreter for every node.  The perception workloads, however, issue
queries in large, known batches — every scan point of an NDT iteration, every
point of a euclidean-clustering frame, every ICP correspondence round — so
this module traverses the tree once per *batch*: each node is visited with
the subset of queries whose search region reaches it, and leaf work becomes
one ``(queries, points)`` distance matrix per leaf
(:func:`repro.runtime.kernels.pairwise_distances2`).

Results are exact: the traversal applies the same per-query pruning rules as
the single-query code, and the distance kernels are shared, so
``batch_radius_search`` / ``batch_knn`` return precisely the points the
per-query functions return (radius results are index-sorted per query; kNN
results are ``(distance, index)``-sorted like the single-query output, and a
distance tie at the k-th place keeps the lowest point indices in both).

:class:`~repro.kdtree.radius_search.SearchStats` counters aggregate exactly
as if the queries had been issued one by one.

Example
-------
>>> import numpy as np
>>> from repro.kdtree import build_kdtree
>>> from repro.runtime import batch_knn, batch_radius_search
>>> points = np.random.default_rng(0).uniform(-1, 1, (500, 3)).astype(np.float32)
>>> tree = build_kdtree(points)
>>> queries = points[:100]
>>> near = batch_radius_search(tree, queries, radius=0.25)
>>> len(near.indices_for(0)) >= 1        # every query point finds itself
True
>>> knn = batch_knn(tree, queries, k=4)
>>> knn.indices.shape
(100, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..kdtree.build import KDTree
from ..kdtree.layout import POINT_STRIDE_BYTES
from ..kdtree.node import LeafNode
from ..kdtree.radius_search import SearchStats
from .kernels import pairwise_distances2
from .queries import as_query_batch, check_k, check_radius

__all__ = [
    "BatchRadiusResult",
    "BatchKNNResult",
    "BatchQueryEngine",
    "batch_radius_search",
    "batch_knn",
]


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


class BatchQueryEngine:
    """Batched radius / kNN searches over one tree with shared statistics.

    Binds a :class:`~repro.kdtree.build.KDTree` and a
    :class:`~repro.kdtree.radius_search.SearchStats` accumulator, mirroring
    :class:`~repro.kdtree.radius_search.RadiusSearcher` for the batched case.

    Example
    -------
    >>> engine = BatchQueryEngine(tree)                        # doctest: +SKIP
    >>> result = engine.radius_search(queries, radius=0.5)     # doctest: +SKIP
    >>> engine.stats.queries == len(queries)                   # doctest: +SKIP
    True
    """

    def __init__(self, tree: KDTree, stats: Optional[SearchStats] = None):
        self.tree = tree
        self.stats = stats if stats is not None else SearchStats()

    # ------------------------------------------------------------------
    # Radius search
    # ------------------------------------------------------------------
    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """All tree points within ``radius`` of each query."""
        radius = check_radius(radius)
        query_arr = as_query_batch(queries)
        n_queries = query_arr.shape[0]
        self.stats.queries += n_queries
        if n_queries == 0:
            return _empty_radius_result(0)

        r2 = radius * radius
        points_f64 = self.tree.points_f64
        stats = self.stats
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []

        def visit_leaf(leaf: LeafNode, qidx: np.ndarray) -> None:
            points = points_f64[leaf.indices]
            d2 = pairwise_distances2(points, query_arr[qidx])
            inside = d2 <= r2
            stats.points_examined += qidx.size * leaf.n_points
            stats.points_in_radius += int(inside.sum())
            stats.point_bytes_loaded += qidx.size * leaf.n_points * POINT_STRIDE_BYTES
            rows, cols = np.nonzero(inside)
            if rows.size:
                hit_queries.append(qidx[rows])
                hit_points.append(leaf.indices[cols])

        radius_traverse(self.tree, query_arr, radius, stats, visit_leaf)
        return _build_radius_result(n_queries, hit_queries, hit_points)

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper (sorted point indices)."""
        return self.radius_search(as_query_batch(query), radius).indices_for(0).tolist()

    # ------------------------------------------------------------------
    # k nearest neighbours
    # ------------------------------------------------------------------
    def knn(self, queries, k: int) -> BatchKNNResult:
        """The ``k`` nearest tree points of each query.

        Two-pass bound-then-sweep algorithm: a planning descent first drops
        every query into its home leaf and derives an upper bound ``tau`` on
        its k-th nearest squared distance; a single radius-style traversal
        then visits exactly the subtrees within that bound of each query and
        the k nearest are selected from the collected candidates.  Results
        match :func:`repro.kdtree.knn.nearest_neighbors` per query, ties at
        the k-th place included (both keep the lowest point indices).
        ``SearchStats`` counters are charged by the sweep pass only, so they
        approximate (within a few node visits per query) the per-query
        traversal's counters; radius-search counters, by contrast, aggregate
        exactly.
        """
        k = check_k(k)
        query_arr = as_query_batch(queries)
        n_queries = query_arr.shape[0]
        self.stats.queries += n_queries
        width = min(k, self.tree.n_points)
        if n_queries == 0:
            return BatchKNNResult(
                indices=np.empty((0, width), dtype=np.intp),
                distances=np.empty((0, width), dtype=np.float64),
            )

        stats = self.stats
        points_f64 = self.tree.points_f64
        tau = self._knn_home_leaf_bounds(query_arr, width)

        cand_queries: List[np.ndarray] = []
        cand_points: List[np.ndarray] = []
        cand_d2: List[np.ndarray] = []

        # Sweep pass: a batched traversal pruned per query by gap^2 <= tau,
        # collecting every point within the bound.
        stack: List[tuple] = [(self.tree.root, np.arange(n_queries, dtype=np.intp))]
        while stack:
            node, qidx = stack.pop()
            if node.is_leaf:
                stats.note_leaf_visit_batch(node.leaf_id, qidx.size)
                stats.points_examined += qidx.size * node.n_points
                d2 = pairwise_distances2(points_f64[node.indices], query_arr[qidx])
                if node.n_points >= width:
                    # This leaf's width-th smallest distance is itself an
                    # upper bound on the true k-th distance: keep tightening
                    # tau as the sweep progresses so later subtrees prune
                    # harder and fewer candidates reach the selection.
                    leaf_kth = np.partition(d2, width - 1, axis=1)[:, width - 1]
                    tau[qidx] = np.minimum(tau[qidx], leaf_kth)
                rows, cols = np.nonzero(d2 <= tau[qidx][:, None])
                if rows.size:
                    cand_queries.append(qidx[rows])
                    cand_points.append(node.indices[cols])
                    cand_d2.append(d2[rows, cols])
                continue
            stats.interior_visited += qidx.size
            values = query_arr[qidx, node.split_dim]
            bounds = tau[qidx]
            on_left = values <= node.split_value
            left_gap = values - node.split_low
            right_gap = node.split_high - values
            visit_left = on_left | (left_gap * left_gap <= bounds)
            visit_right = ~on_left | (right_gap * right_gap <= bounds)
            right_q = qidx[visit_right]
            if right_q.size:
                stack.append((node.right, right_q))
            left_q = qidx[visit_left]
            if left_q.size:
                stack.append((node.left, left_q))

        return self._knn_select(n_queries, width, cand_queries, cand_points, cand_d2)

    def _knn_home_leaf_bounds(self, query_arr: np.ndarray, width: int) -> np.ndarray:
        """Upper bound on each query's ``width``-th nearest squared distance.

        Pure planning pass (no statistics): descend every query to the leaf
        containing it; if that leaf holds at least ``width`` points, the
        ``width``-th smallest leaf distance bounds the true k-th distance.
        """
        n_queries = query_arr.shape[0]
        points_f64 = self.tree.points_f64
        tau = np.full(n_queries, np.inf)
        stack: List[tuple] = [(self.tree.root, np.arange(n_queries, dtype=np.intp))]
        while stack:
            node, qidx = stack.pop()
            if node.is_leaf:
                if node.n_points >= width:
                    d2 = pairwise_distances2(points_f64[node.indices], query_arr[qidx])
                    tau[qidx] = np.partition(d2, width - 1, axis=1)[:, width - 1]
                continue
            values = query_arr[qidx, node.split_dim]
            on_left = values <= node.split_value
            right_q = qidx[~on_left]
            if right_q.size:
                stack.append((node.right, right_q))
            left_q = qidx[on_left]
            if left_q.size:
                stack.append((node.left, left_q))
        return tau

    @staticmethod
    def _knn_select(n_queries: int, width: int, cand_queries: List[np.ndarray],
                    cand_points: List[np.ndarray],
                    cand_d2: List[np.ndarray]) -> BatchKNNResult:
        """Select each query's ``width`` nearest from the collected candidates."""
        indices = np.full((n_queries, width), -1, dtype=np.intp)
        distances = np.full((n_queries, width), np.inf)
        if cand_queries:
            flat_q = np.concatenate(cand_queries)
            flat_p = np.concatenate(cand_points)
            flat_d2 = np.concatenate(cand_d2)
            # Sort by (query, distance, index) — the single-query ordering —
            # then keep each query's first `width` entries.
            order = np.lexsort((flat_p, flat_d2, flat_q))
            flat_q = flat_q[order]
            flat_p = flat_p[order]
            flat_d2 = flat_d2[order]
            counts = np.bincount(flat_q, minlength=n_queries)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rank = np.arange(flat_q.size) - starts[flat_q]
            keep = rank < width
            flat_q = flat_q[keep]
            rank = rank[keep]
            indices[flat_q, rank] = flat_p[keep]
            distances[flat_q, rank] = np.sqrt(flat_d2[keep])
        return BatchKNNResult(indices=indices, distances=distances)


def radius_traverse(tree: KDTree, query_arr: np.ndarray, radius: float,
                    stats: SearchStats,
                    visit_leaf: Callable[[LeafNode, np.ndarray], None]) -> None:
    """Drive one batched radius traversal, calling ``visit_leaf(leaf, qidx)``.

    ``qidx`` indexes into ``query_arr`` and contains exactly the queries whose
    single-query traversal would reach that leaf, so pluggable leaf processing
    (baseline 32-bit, Bonsai compressed) sees the same visits as the
    per-query :class:`~repro.kdtree.radius_search.LeafInspector` protocol.
    """
    if query_arr.shape[0] == 0:
        return
    stack: List[tuple] = [(tree.root, np.arange(query_arr.shape[0], dtype=np.intp))]
    while stack:
        node, qidx = stack.pop()
        if node.is_leaf:
            stats.note_leaf_visit_batch(node.leaf_id, qidx.size)
            visit_leaf(node, qidx)
            continue
        stats.interior_visited += qidx.size
        values = query_arr[qidx, node.split_dim]
        on_left = values <= node.split_value
        # A query descends into the side containing it, and into the other
        # side when the gap to that side's edge is within the radius — the
        # same rule as the per-query traversal.
        visit_left = on_left | (values - node.split_low <= radius)
        visit_right = ~on_left | (node.split_high - values <= radius)
        right_q = qidx[visit_right]
        if right_q.size:
            stack.append((node.right, right_q))
        left_q = qidx[visit_left]
        if left_q.size:
            stack.append((node.left, left_q))


def _empty_radius_result(n_queries: int) -> BatchRadiusResult:
    return BatchRadiusResult(
        offsets=np.zeros(n_queries + 1, dtype=np.intp),
        point_indices=np.empty(0, dtype=np.intp),
    )


def _build_radius_result(n_queries: int, hit_queries: List[np.ndarray],
                         hit_points: List[np.ndarray]) -> BatchRadiusResult:
    """Assemble per-leaf (query, point) hit pairs into a sorted CSR result.

    Empties both lists as it joins them: the per-leaf pieces are freed
    before the sort, which keeps the peak memory of a large batch (a
    clustering frame's whole radius graph) down.
    """
    if not hit_queries:
        return _empty_radius_result(n_queries)
    flat_q = np.concatenate(hit_queries)
    hit_queries.clear()
    flat_p = np.concatenate(hit_points)
    hit_points.clear()
    flat_p = flat_p[np.lexsort((flat_p, flat_q))]
    offsets = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat_q, minlength=n_queries), out=offsets[1:])
    return BatchRadiusResult(offsets=offsets, point_indices=flat_p)


def batch_radius_search(tree: KDTree, queries, radius: float,
                        stats: Optional[SearchStats] = None) -> BatchRadiusResult:
    """Radius-search a whole query batch in one vectorised traversal.

    Returns the same points as calling
    :func:`repro.kdtree.radius_search.radius_search` once per query (indices
    sorted per query), while visiting each tree node once per query *subset*
    rather than once per query.

    Parameters
    ----------
    tree:
        The k-d tree to search.
    queries:
        ``(Q, 3)`` array-like of query points; an empty batch is allowed.
    radius:
        Search radius (must be positive, as in the single-query path).
    stats:
        Optional :class:`~repro.kdtree.radius_search.SearchStats` accumulator;
        counters aggregate exactly as per-query searches would.
    """
    return BatchQueryEngine(tree, stats=stats).radius_search(queries, radius)


def batch_knn(tree: KDTree, queries, k: int,
              stats: Optional[SearchStats] = None) -> BatchKNNResult:
    """Find the ``k`` nearest tree points of every query in one traversal.

    Returns the same neighbours as
    :func:`repro.kdtree.knn.nearest_neighbors` per query, sorted by
    ``(distance, index)``; a distance tie at the k-th place keeps the lowest
    point indices.  Rows are ``inf``/``-1`` padded when the tree holds fewer
    than ``k`` points.  See :func:`batch_radius_search` for the shared
    parameters.
    """
    return BatchQueryEngine(tree, stats=stats).knn(queries, k)
