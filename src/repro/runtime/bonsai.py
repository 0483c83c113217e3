"""Batched radius search over compressed (K-D Bonsai) leaves.

Combines the level-synchronous traversal of :mod:`repro.runtime.batch` with
the compressed leaf processing of :mod:`repro.core.bonsai_search`:
approximate squared distances from the reduced-precision coordinates, the
shell classification of Eq. 12, and exact 32-bit recomputation of
inconclusive points only — so results are identical to the baseline search.

Nothing is decoded at query time: the tree's compression pass emitted a
decoded mirror (:class:`~repro.core.leaf_compression.LeafMirror`) of every
leaf, in the leaf order of the tree's arrays.  Per chunk of (query, leaf
point) pairs, the leaf pass takes each pair's query row into one float64
buffer, subtracts the pair's reduced row of the mirror, and runs
:func:`~repro.runtime.kernels.shell_distances` on it, the kernel the
per-query inspector runs too, which builds the Eq. 11 bound in that
buffer.  The hit and inconclusive pairs are then picked by index
(``np.flatnonzero``), so point ids and 32-bit points are gathered for
those pairs only, and the hits are assembled into the CSR result with one
sort of an int64 ``query * n_points + point`` key.  The byte/slice
accounting charges every (query, leaf) visit from pair counts and the
array's per-leaf slice counts, as the hardware would, so
:class:`~repro.core.bonsai_search.BonsaiStats` aggregates exactly like the
per-query inspector's.

Example
-------
>>> searcher = BonsaiBatchSearcher(tree)                    # doctest: +SKIP
>>> result = searcher.radius_search(scan_points, radius=2.5)  # doctest: +SKIP
>>> searcher.bonsai_stats.inconclusive_rate < 0.05          # doctest: +SKIP
True
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.bonsai_search import BonsaiStats
from ..core.compressed_leaf import compress_tree
from ..core.floatfmt import FLOAT16, FloatFormat
from ..core.leaf_compression import ZIPPTS_SLICE_BYTES
from ..kdtree.build import KDTree
from ..kdtree.layout import POINT_STRIDE_BYTES
from ..kdtree.radius_search import SearchStats
from .batch import (
    BatchRadiusResult,
    _build_radius_result,
    _empty_radius_result,
    leaf_rows,
    radius_leaf_pairs,
)
from .kernels import rowwise_distances2, shell_classify, shell_distances
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
        if tree.compressed_array is None:
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
        arrays = tree.arrays
        points_f64 = tree.points_f64
        array = tree.compressed_array
        mirror = array.mirror
        stats = self.stats
        bstats = self.bonsai_stats
        leaf_points = arrays.leaf_points
        pair_q, pair_leaf = radius_leaf_pairs(arrays, query_arr, radius, stats)
        hit_queries: List[np.ndarray] = []
        hit_points: List[np.ndarray] = []
        n_in = n_inconclusive = n_exact = 0
        for pairs, rows in leaf_rows(arrays, pair_q, pair_leaf):
            qs = pair_q[pairs]
            diffs = query_arr.take(qs, axis=0)
            diffs -= mirror.reduced.take(rows, axis=0)
            d2_approx, eps = shell_distances(diffs, mirror.max_delta.take(rows, axis=0))
            conclusive_in, inconclusive = shell_classify(d2_approx, eps, r2)
            hit = np.flatnonzero(conclusive_in)
            n_in += hit.shape[0]
            hit_queries.append(qs[hit])
            hit_points.append(leaf_points[rows[hit]])
            inc = np.flatnonzero(inconclusive)
            if inc.size:
                # Inconclusive pairs: fetch the original 32-bit points and
                # recompute the exact classification.
                inc_q = qs[inc]
                inc_ids = leaf_points[rows[inc]]
                exact = np.flatnonzero(rowwise_distances2(
                    query_arr.take(inc_q, axis=0), points_f64.take(inc_ids, axis=0)) <= r2)
                n_inconclusive += inc.shape[0]
                n_exact += exact.shape[0]
                hit_queries.append(inc_q[exact])
                hit_points.append(inc_ids[exact])

        # Every (query, leaf) visit loads the leaf's slices; the three
        # classes partition its (query, point) pairs.
        n_visits = pair_leaf.shape[0]
        n_points = int(arrays.leaf_sizes[pair_leaf].sum())
        slice_bytes = int(array.n_slices[pair_leaf].sum()) * ZIPPTS_SLICE_BYTES
        recompute_bytes = n_inconclusive * POINT_STRIDE_BYTES
        bstats.leaf_visits += n_visits
        bstats.slices_loaded += slice_bytes // ZIPPTS_SLICE_BYTES
        bstats.compressed_bytes_loaded += slice_bytes
        bstats.points_classified += n_points
        bstats.conclusive_in += n_in
        bstats.conclusive_out += n_points - n_in - n_inconclusive
        bstats.inconclusive += n_inconclusive
        bstats.recompute_bytes_loaded += recompute_bytes
        stats.points_examined += n_points
        stats.point_bytes_loaded += slice_bytes + recompute_bytes
        stats.points_in_radius += n_in + n_exact
        return _build_radius_result(n_queries, tree.n_points, hit_queries, hit_points)

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Single-query convenience wrapper (sorted point indices)."""
        return self.radius_search(as_query_batch(query), radius).indices_for(0).tolist()
