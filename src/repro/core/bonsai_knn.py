"""Nearest-neighbour search over compressed leaves (extension).

The paper evaluates radius search, but the same compressed leaves can serve
k-nearest-neighbour queries — the other operation Autoware performs on k-d
trees (and the one accelerated by Tigris/QuickNN in related work).  The shell
idea carries over: from the reduced-precision coordinates and the per-point
error bound one can compute a *lower bound* on the true squared distance; a
leaf point whose lower bound is no better than the current k-th best distance
cannot enter the result set and its original 32-bit coordinates never need to
be fetched.  Points that could enter the set are resolved with the original
coordinates, so results are identical to the baseline kNN.

This module is an extension beyond the paper's evaluation; it demonstrates
that the compressed layout composes with other query types and quantifies how
many full-precision fetches the bound avoids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..kdtree.build import KDTree
from ..kdtree.node import Node
from ..kdtree.radius_search import SearchStats
from ..runtime.kernels import shell_error_bound
from ..runtime.queries import as_query_point, check_k
from .compressed_leaf import CompressedStructArray, compress_tree
from .floatfmt import FLOAT16, FloatFormat
from .leaf_compression import ZIPPTS_SLICE_BYTES

__all__ = ["BonsaiKNNStats", "BonsaiNearestNeighbors"]


@dataclass
class BonsaiKNNStats:
    """Counters of the compressed kNN search."""

    queries: int = 0
    leaves_visited: int = 0
    points_screened: int = 0
    exact_fetches: int = 0
    compressed_bytes_loaded: int = 0
    exact_bytes_loaded: int = 0

    @property
    def fetch_rate(self) -> float:
        """Fraction of screened points whose 32-bit coordinates were fetched."""
        if self.points_screened == 0:
            return 0.0
        return self.exact_fetches / self.points_screened


class BonsaiNearestNeighbors:
    """k-nearest-neighbour search using compressed leaves with exact results."""

    def __init__(self, tree: KDTree, fmt: FloatFormat = FLOAT16):
        self.tree = tree
        self.fmt = fmt
        if tree.compressed_array is None:
            compress_tree(tree, fmt)
        self.array: CompressedStructArray = tree.compressed_array
        self.array.require_mirror()
        self.stats = BonsaiKNNStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(self, query: Sequence[float], k: int) -> List[Tuple[int, float]]:
        """Return the ``k`` nearest points as ``(index, distance)``, sorted.

        Results are identical to :func:`repro.kdtree.nearest_neighbors`.
        """
        k = check_k(k)
        query_arr = as_query_point(query)
        self.stats.queries += 1

        # The best k as (-d2, -index), like repro.kdtree.knn: a tie at the
        # k-th distance keeps the lowest point index.
        heap: List[Tuple[float, int]] = []

        def worst_d2() -> float:
            if len(heap) < k:
                return float("inf")
            return -heap[0][0]

        def visit(node: Node) -> None:
            if node.is_leaf:
                self._inspect_leaf(node, query_arr, k, heap, worst_d2)
                return
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

        visit(self.tree.root)
        ordered = sorted((-neg_d2, -neg_index) for neg_d2, neg_index in heap)
        return [(index, float(np.sqrt(d2))) for d2, index in ordered]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _inspect_leaf(self, leaf, query: np.ndarray, k: int, heap, worst_d2) -> None:
        self.stats.leaves_visited += 1
        ref = leaf.compressed_ref
        self.stats.compressed_bytes_loaded += ref.n_slices * ZIPPTS_SLICE_BYTES

        reduced, max_delta = self.array.mirror.leaf(leaf.leaf_id)
        diffs = query - reduced
        sq = diffs * diffs
        d2_approx = sq.sum(axis=1)
        eps = shell_error_bound(np.abs(diffs), max_delta)
        lower_bounds = np.maximum(d2_approx - eps, 0.0)

        self.stats.points_screened += leaf.n_points
        for local_index, point_index in enumerate(leaf.indices):
            if lower_bounds[local_index] > worst_d2():
                continue  # cannot beat the current k-th best; no exact fetch needed
            self.stats.exact_fetches += 1
            self.stats.exact_bytes_loaded += 16
            original = self.tree.points_f64[int(point_index)]
            diff = query - original
            entry = (-float(diff @ diff), -int(point_index))
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
