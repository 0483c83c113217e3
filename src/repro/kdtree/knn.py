"""K-nearest-neighbour search over the k-d tree.

Radius search is the paper's target operation, but the same tree serves
nearest-neighbour queries in related Autoware code paths (NDT voxel lookup,
registration correspondences).  The implementation follows the classic
branch-and-bound descent over the node ids of the tree's flat arrays: visit
the near child first, keep a bounded max-heap of the best candidates, and
prune the far child when its region cannot beat the current k-th best
distance.  With a memory recorder, a search loads what the radius search
loads: the record of every node it enters and, for every leaf point it
examines, the ``vind`` entry and the ``PointXYZ``
(:class:`~repro.kdtree.radius_search.Float32LeafInspector`'s pattern).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.kernels import leaf_distances2
from ..runtime.queries import as_query_point, check_k
from .build import KDTree
from .layout import (
    INDEX_STRIDE_BYTES,
    NODE_RECORD_BYTES,
    POINT_STRIDE_BYTES,
    index_entry_address,
    node_address,
    point_address,
)
from .radius_search import MemoryRecorder, SearchStats

__all__ = ["nearest_neighbors", "nearest_neighbor"]


def nearest_neighbors(
    tree: KDTree,
    query: Sequence[float],
    k: int,
    stats: Optional[SearchStats] = None,
    recorder: Optional[MemoryRecorder] = None,
) -> List[Tuple[int, float]]:
    """Return the ``k`` nearest points to ``query`` as ``(index, distance)``.

    Results are sorted by increasing distance, then index; among points tied
    at the k-th distance the lowest indices are kept.  If the tree holds
    fewer than ``k`` points, all points are returned.  ``recorder`` receives
    the search's loads; node records are addressed by visit ordinal (the
    root is 0), as in :func:`~repro.kdtree.radius_search.radius_search`.
    """
    k = check_k(k)
    query_arr = as_query_point(query)
    stats = stats if stats is not None else SearchStats()
    stats.queries += 1

    # The best k as (-d2, -index): the heap's root is the worst candidate,
    # the largest (d2, index), so a tie at the k-th distance keeps the lowest
    # point index, as the batched engine does.
    heap: List[Tuple[float, int]] = []

    def worst_d2() -> float:
        if len(heap) < k:
            return float("inf")
        return -heap[0][0]

    nodes = tree.node_lists
    starts = nodes.leaf_starts
    leaf_points = tree.arrays.leaf_points
    coords = query_arr.tolist()
    # Depth-first, near child first: a far child is pushed under the near
    # one with its squared gap, and entered only if the gap still beats the
    # k-th best distance once the near subtree is done.
    stack: List[Tuple[int, float]] = [(0, 0.0)]
    ordinal = 0
    while stack:
        node, gap2 = stack.pop()
        if gap2 > worst_d2():
            continue
        if recorder is not None:
            recorder.record_load(node_address(ordinal), NODE_RECORD_BYTES)
        ordinal += 1
        leaf_id = nodes.leaf_id[node]
        if leaf_id >= 0:
            stats.note_leaf_visit(leaf_id)
            indices = leaf_points[starts[leaf_id]:starts[leaf_id + 1]]
            d2 = leaf_distances2(tree.points_f64[indices], query_arr)
            stats.points_examined += indices.shape[0]
            if recorder is not None:
                for point_index in indices.tolist():
                    recorder.record_load(index_entry_address(point_index),
                                         INDEX_STRIDE_BYTES)
                    recorder.record_load(point_address(point_index), POINT_STRIDE_BYTES)
            for point_index, dist2 in zip(indices.tolist(), d2.tolist()):
                entry = (-dist2, -point_index)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            continue

        stats.interior_visited += 1
        value = coords[nodes.split_dim[node]]
        if value <= nodes.split_value[node]:
            near, far = nodes.left[node], nodes.right[node]
            far_gap = nodes.split_high[node] - value
        else:
            near, far = nodes.right[node], nodes.left[node]
            far_gap = value - nodes.split_low[node]
        stack.append((far, far_gap * far_gap))
        stack.append((near, 0.0))

    ordered = sorted((-neg_d2, -neg_idx) for neg_d2, neg_idx in heap)
    return [(idx, float(np.sqrt(d2))) for d2, idx in ordered]


def nearest_neighbor(tree: KDTree, query: Sequence[float],
                     stats: Optional[SearchStats] = None) -> Tuple[int, float]:
    """Return the single nearest point to ``query`` as ``(index, distance)``."""
    result = nearest_neighbors(tree, query, k=1, stats=stats)
    return result[0]
