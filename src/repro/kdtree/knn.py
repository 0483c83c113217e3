"""K-nearest-neighbour search over the k-d tree.

Radius search is the paper's target operation, but the same tree serves
nearest-neighbour queries in related Autoware code paths (NDT voxel lookup,
registration correspondences).  The implementation follows the classic
branch-and-bound descent: visit the near child first, keep a bounded max-heap
of the best candidates, and prune the far child when its region cannot beat
the current k-th best distance.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.kernels import leaf_distances2
from ..runtime.queries import as_query_point, check_k
from .build import KDTree
from .node import Node
from .radius_search import SearchStats

__all__ = ["nearest_neighbors", "nearest_neighbor"]


def nearest_neighbors(
    tree: KDTree,
    query: Sequence[float],
    k: int,
    stats: Optional[SearchStats] = None,
) -> List[Tuple[int, float]]:
    """Return the ``k`` nearest points to ``query`` as ``(index, distance)``.

    Results are sorted by increasing distance, then index; among points tied
    at the k-th distance the lowest indices are kept.  If the tree holds
    fewer than ``k`` points, all points are returned.
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

    def visit(node: Node) -> None:
        if node.is_leaf:
            stats.note_leaf_visit(node.leaf_id)
            points = tree.points_f64[node.indices]
            d2 = leaf_distances2(points, query_arr)
            stats.points_examined += node.n_points
            for point_index, dist2 in zip(node.indices, d2):
                entry = (-float(dist2), -int(point_index))
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            return

        stats.interior_visited += 1
        value = query_arr[node.split_dim]
        if value <= node.split_value:
            near, far = node.left, node.right
            far_gap = node.split_high - value
        else:
            near, far = node.right, node.left
            far_gap = value - node.split_low
        visit(near)
        if far_gap * far_gap <= worst_d2():
            visit(far)

    visit(tree.root)
    ordered = sorted((-neg_d2, -neg_idx) for neg_d2, neg_idx in heap)
    return [(idx, float(np.sqrt(d2))) for d2, idx in ordered]


def nearest_neighbor(tree: KDTree, query: Sequence[float],
                     stats: Optional[SearchStats] = None) -> Tuple[int, float]:
    """Return the single nearest point to ``query`` as ``(index, distance)``."""
    result = nearest_neighbors(tree, query, k=1, stats=stats)
    return result[0]
