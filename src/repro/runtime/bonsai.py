"""Batched radius search over compressed (K-D Bonsai) leaves.

Combines the batched traversal of :mod:`repro.runtime.batch` with the
compressed leaf processing of :mod:`repro.core.bonsai_search`: approximate
squared distances from the reduced-precision coordinates, the shell
classification of Eq. 12, and exact 32-bit recomputation of inconclusive
points only — so results are identical to the baseline search.

Nothing is decoded at query time: the tree's compression pass emitted a
decoded mirror (:class:`~repro.core.leaf_compression.LeafMirror`) of every
leaf, and each visit takes the leaf's reduced coordinates and error bounds
from it as a slice, once for all the queries of the batch that reach the
leaf.  The byte/slice accounting still charges every (query, leaf) visit, as
the hardware would, so :class:`~repro.core.bonsai_search.BonsaiStats`
aggregates exactly like the per-query inspector's.

Example
-------
>>> searcher = BonsaiBatchSearcher(tree)                    # doctest: +SKIP
>>> result = searcher.radius_search(scan_points, radius=2.5)  # doctest: +SKIP
>>> searcher.bonsai_stats.inconclusive_rate < 0.05          # doctest: +SKIP
True
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.compressed_leaf import CompressedStructArray, compress_tree
from ..core.floatfmt import FLOAT16, FloatFormat
from ..core.leaf_compression import ZIPPTS_SLICE_BYTES
from ..kdtree.build import KDTree
from ..kdtree.layout import POINT_STRIDE_BYTES
from ..kdtree.node import LeafNode
from ..kdtree.radius_search import SearchStats
from .batch import (
    BatchRadiusResult,
    _build_radius_result,
    _empty_radius_result,
    radius_traverse,
)
from .kernels import (
    batch_shell_distances,
    pairwise_distances2,
    rowwise_distances2,
    shell_classify,
)
from .queries import as_query_batch, check_radius

__all__ = ["BonsaiBatchSearcher"]


class BonsaiBatchSearcher:
    """Batched K-D Bonsai radius search: compress once, query in batches.

    The batched counterpart of
    :class:`~repro.core.bonsai_search.BonsaiRadiusSearch`; exposes the same
    ``stats`` / ``bonsai_stats`` / ``report`` surface so pipelines can swap
    one for the other.

    Parameters
    ----------
    tree:
        The k-d tree; compressed on construction if it is not already.
    fmt:
        Reduced float format of the compressed coordinates.
    """

    def __init__(self, tree: KDTree, fmt: FloatFormat = FLOAT16):
        self.tree = tree
        self.fmt = fmt
        if getattr(tree, "compressed_array", None) is None:
            self.report = compress_tree(tree, fmt)
        else:
            self.report = None
        self.stats = SearchStats()
        self.bonsai_stats = BonsaiStats()

    def radius_search(self, queries, radius: float) -> BatchRadiusResult:
        """Batched radius search; identical results to the baseline engine."""
        radius = check_radius(radius)
        query_arr = as_query_batch(queries)
        n_queries = query_arr.shape[0]
        self.stats.queries += n_queries
        if n_queries == 0:
            return _empty_radius_result(0)

        r2 = radius * radius
        tree = self.tree
        points_f64 = tree.points_f64
        array: Optional[CompressedStructArray] = getattr(tree, "compressed_array", None)
        mirror = array.mirror if array is not None else None
        stats = self.stats
        bstats = self.bonsai_stats
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []

        def visit_leaf(leaf: LeafNode, qidx: np.ndarray) -> None:
            ref = leaf.compressed_ref
            if array is None or ref is None:
                # No compressed structure: baseline 32-bit processing.
                bstats.fallback_leaf_visits += qidx.size
                d2 = pairwise_distances2(points_f64[leaf.indices], query_arr[qidx])
                inside = d2 <= r2
                stats.points_examined += qidx.size * leaf.n_points
                stats.points_in_radius += int(inside.sum())
                stats.point_bytes_loaded += qidx.size * leaf.n_points * POINT_STRIDE_BYTES
                rows, cols = np.nonzero(inside)
                if rows.size:
                    hit_queries.append(qidx[rows])
                    hit_points.append(leaf.indices[cols])
                return

            n_visits = qidx.size
            bstats.leaf_visits += n_visits
            bstats.slices_loaded += n_visits * ref.n_slices
            bstats.compressed_bytes_loaded += n_visits * ref.n_slices * ZIPPTS_SLICE_BYTES
            stats.points_examined += n_visits * leaf.n_points
            stats.point_bytes_loaded += n_visits * ref.n_slices * ZIPPTS_SLICE_BYTES
            bstats.points_classified += n_visits * leaf.n_points

            reduced, max_delta = mirror.leaf(leaf.leaf_id)
            d2_approx, eps = batch_shell_distances(reduced, query_arr[qidx], max_delta)
            conclusive_in, _, inconclusive = shell_classify(d2_approx, eps, r2)
            in_rows, in_cols = np.nonzero(conclusive_in)
            n_in = in_rows.size
            n_inconclusive = int(np.count_nonzero(inconclusive))
            # The three classes partition the leaf's (query, point) pairs.
            bstats.conclusive_in += n_in
            bstats.conclusive_out += n_visits * leaf.n_points - n_in - n_inconclusive
            bstats.inconclusive += n_inconclusive
            if n_in:
                hit_queries.append(qidx[in_rows])
                hit_points.append(leaf.indices[in_cols])
            stats.points_in_radius += n_in

            if n_inconclusive:
                # Inconclusive pairs: fetch the original 32-bit points and
                # recompute the exact classification.
                bstats.recompute_bytes_loaded += n_inconclusive * POINT_STRIDE_BYTES
                stats.point_bytes_loaded += n_inconclusive * POINT_STRIDE_BYTES
                rows, cols = np.nonzero(inconclusive)
                originals = points_f64[leaf.indices[cols]]
                exact_d2 = rowwise_distances2(query_arr[qidx[rows]], originals)
                exact_in = exact_d2 <= r2
                n_exact = int(exact_in.sum())
                if n_exact:
                    hit_queries.append(qidx[rows[exact_in]])
                    hit_points.append(leaf.indices[cols[exact_in]])
                stats.points_in_radius += n_exact

        radius_traverse(tree, query_arr, radius, stats, visit_leaf)
        return _build_radius_result(n_queries, hit_queries, hit_points)

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper (sorted point indices)."""
        return self.radius_search(as_query_batch(query), radius).indices_for(0).tolist()
