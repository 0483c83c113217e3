"""Baseline radius search over the k-d tree.

The traversal matches PCL/FLANN: descend towards the child whose region
contains the query, then on the way back up visit the other child whenever its
region is within the search radius along the splitting coordinate.  It steps
through the node ids of the tree's flat arrays
(:class:`~repro.kdtree.build.TreeArrays`).  Every leaf reached is handed to a
*leaf inspector* with its point ids, which classifies the leaf's points.

The inspector is pluggable so that the baseline 32-bit inspection and the
K-D Bonsai compressed inspection share exactly the same traversal (only leaf
processing differs, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..runtime.kernels import leaf_distances2
from ..runtime.queries import as_query_point, check_radius
from .build import KDTree
from .layout import (
    INDEX_STRIDE_BYTES,
    NODE_RECORD_BYTES,
    POINT_STRIDE_BYTES,
    index_entry_address,
    node_address,
    point_address,
)

__all__ = [
    "SearchStats",
    "MemoryRecorder",
    "LeafInspector",
    "Float32LeafInspector",
    "radius_search",
]


class MemoryRecorder(Protocol):
    """Sink for the loads/stores a search performs (duck-typed).

    Implementations live in :mod:`repro.hwmodel`; the search only needs the
    two methods below.
    """

    def record_load(self, address: int, size: int) -> None:  # pragma: no cover - protocol
        ...

    def record_store(self, address: int, size: int) -> None:  # pragma: no cover - protocol
        ...


@dataclass(eq=False)
class SearchStats:
    """Counters accumulated across one or more searches.

    Leaf visits are counted per leaf id in an int64 array, ``visits_by_leaf``
    (grown on demand, so trailing entries may be zero): the batched searches
    add a whole traversal's visits with one ``bincount``, so long-lived
    stats, such as a query-service worker's, pay no per-leaf update.
    ``leaf_visit_counts`` reads the nonzero counts as a ``{leaf id:
    visits}`` dict, and two stats compare equal when every counter and those
    counts do.
    """

    queries: int = 0
    leaves_visited: int = 0
    interior_visited: int = 0
    points_examined: int = 0
    points_in_radius: int = 0
    point_bytes_loaded: int = 0
    visits_by_leaf: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def leaf_visit_counts(self) -> Dict[int, int]:
        """Visits per visited leaf, as ``{leaf id: visits}``."""
        leaf_ids = np.flatnonzero(self.visits_by_leaf)
        return dict(zip(leaf_ids.tolist(), self.visits_by_leaf[leaf_ids].tolist()))

    def note_leaf_visit(self, leaf_id: int) -> None:
        """Record one visit to ``leaf_id``."""
        self.leaves_visited += 1
        if leaf_id >= self.visits_by_leaf.shape[0]:
            self._grow(max(leaf_id + 1, 2 * self.visits_by_leaf.shape[0]))
        self.visits_by_leaf[leaf_id] += 1

    def note_leaf_visits(self, visited_leaf_ids: np.ndarray) -> None:
        """Record one visit per entry of ``visited_leaf_ids`` (repeats allowed).

        Used by the batched engine (:mod:`repro.runtime`): a whole
        traversal's (query, leaf) pairs are counted at once with
        ``bincount``, exactly like that many single-query visits, so batched
        and per-query statistics aggregate identically.
        """
        self._add(np.bincount(visited_leaf_ids))
        self.leaves_visited += int(visited_leaf_ids.shape[0])

    @property
    def mean_visits_per_leaf(self) -> float:
        """Average number of visits per distinct leaf (the paper's ~52)."""
        n_leaves = int(np.count_nonzero(self.visits_by_leaf))
        return self.leaves_visited / n_leaves if n_leaves else 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate ``other``'s counters into this object."""
        self.queries += other.queries
        self.leaves_visited += other.leaves_visited
        self.interior_visited += other.interior_visited
        self.points_examined += other.points_examined
        self.points_in_radius += other.points_in_radius
        self.point_bytes_loaded += other.point_bytes_loaded
        self._add(other.visits_by_leaf)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchStats):
            return NotImplemented
        return (self.leaf_visit_counts == other.leaf_visit_counts
                and all(getattr(self, f.name) == getattr(other, f.name)
                        for f in fields(self) if f.name != "visits_by_leaf"))

    def _add(self, counts: np.ndarray) -> None:
        if counts.shape[0] > self.visits_by_leaf.shape[0]:
            self._grow(counts.shape[0])
        self.visits_by_leaf[:counts.shape[0]] += counts

    def _grow(self, size: int) -> None:
        grown = np.zeros(size, dtype=np.int64)
        grown[:self.visits_by_leaf.shape[0]] = self.visits_by_leaf
        self.visits_by_leaf = grown


class LeafInspector(Protocol):
    """Classifies the points of one leaf against a query and radius.

    ``indices`` are the leaf's point ids, the leaf's slice of
    ``tree.arrays.leaf_points``; hits are appended to ``results`` in that
    order.
    """

    def inspect(
        self,
        tree: KDTree,
        leaf_id: int,
        indices: np.ndarray,
        query: np.ndarray,
        r2: float,
        results: List[int],
        stats: SearchStats,
        recorder: Optional[MemoryRecorder],
    ) -> None:  # pragma: no cover - protocol
        ...


class Float32LeafInspector:
    """Baseline leaf inspection: full 32-bit points, exact classification.

    Models PCL's behaviour: for every point in the leaf, load its index from
    the vind array, load the 16-byte ``PointXYZ`` record, compute the squared
    euclidean distance in 32-bit and compare against ``r2``.
    """

    def inspect(self, tree, leaf_id, indices, query, r2, results, stats, recorder) -> None:
        d2 = leaf_distances2(tree.points_f64[indices], query)
        hits = indices[d2 <= r2].tolist()

        n_points = indices.shape[0]
        stats.points_examined += n_points
        stats.points_in_radius += len(hits)
        stats.point_bytes_loaded += n_points * POINT_STRIDE_BYTES

        if recorder is not None:
            for point_index in indices.tolist():
                recorder.record_load(index_entry_address(point_index), INDEX_STRIDE_BYTES)
                recorder.record_load(point_address(point_index), POINT_STRIDE_BYTES)

        results.extend(hits)


def radius_search(
    tree: KDTree,
    query: Sequence[float],
    radius: float,
    inspector: Optional[LeafInspector] = None,
    stats: Optional[SearchStats] = None,
    recorder: Optional[MemoryRecorder] = None,
) -> List[int]:
    """Return the indices of all tree points within ``radius`` of ``query``.

    Parameters
    ----------
    inspector:
        Leaf-processing strategy; defaults to the baseline 32-bit inspector.
    stats / recorder:
        Optional accounting hooks (search counters and memory-access
        recorder; addresses come from :mod:`repro.kdtree.layout`).
    """
    radius = check_radius(radius)
    query_arr = as_query_point(query)
    inspector = inspector or Float32LeafInspector()
    stats = stats if stats is not None else SearchStats()
    results: List[int] = []
    stats.queries += 1
    _search_node(tree, query_arr, radius, inspector, results, stats, recorder)
    return results


def _search_node(tree: KDTree, query: np.ndarray, radius: float,
                 inspector: LeafInspector, results: List[int], stats: SearchStats,
                 recorder: Optional[MemoryRecorder]) -> None:
    """Depth-first walk from the root, near child first.

    The node ids come from ``tree.node_lists``; a far child is pushed under
    the near one when its region is within ``radius`` along the split
    coordinate.  Node records are addressed by visit ordinal (the root is 0).
    """
    nodes = tree.node_lists
    split_dim, split_value = nodes.split_dim, nodes.split_value
    split_low, split_high = nodes.split_low, nodes.split_high
    left, right, leaf_ids, starts = nodes.left, nodes.right, nodes.leaf_id, nodes.leaf_starts
    leaf_points = tree.arrays.leaf_points
    coords = query.tolist()
    r2 = radius * radius
    stack = [0]
    ordinal = 0
    while stack:
        node = stack.pop()
        if recorder is not None:
            recorder.record_load(node_address(ordinal), NODE_RECORD_BYTES)
        ordinal += 1

        leaf_id = leaf_ids[node]
        if leaf_id >= 0:
            stats.note_leaf_visit(leaf_id)
            inspector.inspect(tree, leaf_id, leaf_points[starts[leaf_id]:starts[leaf_id + 1]],
                              query, r2, results, stats, recorder)
            continue

        stats.interior_visited += 1
        value = coords[split_dim[node]]
        if value <= split_value[node]:
            near, far = left[node], right[node]
            # Distance from the query to the far (right) sub-tree's edge.
            far_gap = split_high[node] - value
        else:
            near, far = right[node], left[node]
            far_gap = value - split_low[node]
        if far_gap <= radius:
            stack.append(far)
        stack.append(near)

