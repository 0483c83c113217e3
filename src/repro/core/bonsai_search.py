"""Radius search over compressed leaves (the K-D Bonsai leaf inspector).

The traversal is unchanged from the baseline (:func:`repro.kdtree.radius_search`);
only leaf processing differs.  When the search reaches a leaf, the inspector:

1. loads the compressed structure in 128-bit slices (modelling the LDDCP
   micro-operations) and takes its reduced-precision coordinates from the
   tree's decoded mirror, which the compression pass emitted;
2. computes the approximate squared distance and the worst-case error bound
   per point (what the vectorised (A-B')^2 functional units produce);
3. applies the shell classification of Eq. 12;
4. for inconclusive points only, loads the original 32-bit point and
   re-computes the exact classification, so results are identical to the
   baseline.

The inspector accumulates the functional counters the hardware model needs
(bytes loaded, slices, inconclusive classifications), and optionally feeds a
memory-access recorder for cache simulation.  The recorded Bonsai walk
(:class:`~repro.engine.backends.BonsaiPerQueryBackend`, which
``ExecutionConfig(backend="bonsai-batched", hardware=True)`` builds) runs it
under the per-query traversal, after :func:`compress_and_record` compressed
the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..kdtree.build import KDTree
from ..kdtree.layout import POINT_STRIDE_BYTES, compressed_address, point_address
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..runtime.kernels import leaf_distances2, shell_classify, shell_distances
from .compressed_leaf import CompressedStructArray, CompressionReport, compress_tree
from .floatfmt import FLOAT16, FloatFormat
from .leaf_compression import ZIPPTS_SLICE_BYTES

__all__ = ["BonsaiStats", "BonsaiLeafInspector", "compress_and_record"]


@dataclass
class BonsaiStats:
    """Functional counters specific to the compressed search path."""

    leaf_visits: int = 0
    slices_loaded: int = 0
    compressed_bytes_loaded: int = 0
    points_classified: int = 0
    conclusive_in: int = 0
    conclusive_out: int = 0
    inconclusive: int = 0
    recompute_bytes_loaded: int = 0

    @property
    def inconclusive_rate(self) -> float:
        """Fraction of classifications resolved by 32-bit recomputation."""
        if self.points_classified == 0:
            return 0.0
        return self.inconclusive / self.points_classified

    @property
    def total_point_bytes_loaded(self) -> int:
        """Compressed bytes plus recomputation bytes."""
        return self.compressed_bytes_loaded + self.recompute_bytes_loaded

    def merge(self, other: "BonsaiStats") -> None:
        """Accumulate ``other``'s counters into this object."""
        self.leaf_visits += other.leaf_visits
        self.slices_loaded += other.slices_loaded
        self.compressed_bytes_loaded += other.compressed_bytes_loaded
        self.points_classified += other.points_classified
        self.conclusive_in += other.conclusive_in
        self.conclusive_out += other.conclusive_out
        self.inconclusive += other.inconclusive
        self.recompute_bytes_loaded += other.recompute_bytes_loaded


class BonsaiLeafInspector:
    """Leaf inspector operating on compressed leaf structures.

    Each visit charges the leaf's slices and bytes, then reads the leaf's
    reduced coordinates and Eq. 6 bounds from the array's decoded mirror
    (:class:`~repro.core.leaf_compression.LeafMirror`): decoding is the
    hardware's job, so the functional model does not repeat it per visit.

    Parameters
    ----------
    array:
        The tree's ``cmprsd_strct_array``, as built by
        :func:`compress_tree` (its float format included).  If omitted, the
        inspector reads ``tree.compressed_array`` and raises ``ValueError``
        for a tree that was never compressed.
    """

    def __init__(self, array: Optional[CompressedStructArray] = None):
        self.array = array
        self.bonsai_stats = BonsaiStats()

    # ------------------------------------------------------------------
    # LeafInspector protocol
    # ------------------------------------------------------------------
    def inspect(self, tree: KDTree, leaf_id: int, indices: np.ndarray,
                query: np.ndarray, r2: float, results: List[int],
                stats: SearchStats, recorder: Optional[MemoryRecorder]) -> None:
        array = self.array if self.array is not None else tree.compressed_array
        if array is None:
            raise ValueError("the tree has no compressed array to inspect; "
                             "compress it with compress_tree() first")
        offset = int(array.offsets[leaf_id])
        slice_bytes = int(array.offsets[leaf_id + 1]) - offset
        n_points = indices.shape[0]
        bstats = self.bonsai_stats
        bstats.leaf_visits += 1
        bstats.slices_loaded += slice_bytes // ZIPPTS_SLICE_BYTES
        bstats.compressed_bytes_loaded += slice_bytes
        stats.points_examined += n_points
        stats.point_bytes_loaded += slice_bytes

        if recorder is not None:
            for slice_offset in range(offset, offset + slice_bytes, ZIPPTS_SLICE_BYTES):
                recorder.record_load(compressed_address(slice_offset), ZIPPTS_SLICE_BYTES)

        # The batched leaf pass's kernel, on this leaf's rows of the mirror.
        reduced, max_delta = array.mirror.leaf(leaf_id)
        d2_approx, eps = shell_distances(query - reduced, max_delta)
        conclusive_in, inconclusive = shell_classify(d2_approx, eps, r2)

        n_in = int(np.count_nonzero(conclusive_in))
        n_inconclusive = int(np.count_nonzero(inconclusive))
        bstats.points_classified += n_points
        bstats.conclusive_in += n_in
        bstats.conclusive_out += n_points - n_in - n_inconclusive
        bstats.inconclusive += n_inconclusive

        hits = conclusive_in
        if n_inconclusive:
            # Inconclusive: fetch the original 32-bit points and recompute
            # with the baseline's distance kernel.
            hits = conclusive_in.copy()
            local = np.flatnonzero(inconclusive)
            inc_ids = indices[local]
            if recorder is not None:
                for point_index in inc_ids.tolist():
                    recorder.record_load(point_address(point_index), POINT_STRIDE_BYTES)
            hits[local] = leaf_distances2(tree.points_f64[inc_ids], query) <= r2
            recompute_bytes = n_inconclusive * POINT_STRIDE_BYTES
            bstats.recompute_bytes_loaded += recompute_bytes
            stats.point_bytes_loaded += recompute_bytes
        hit_ids = indices[hits].tolist()
        stats.points_in_radius += len(hit_ids)
        results.extend(hit_ids)


def compress_and_record(tree: KDTree, fmt: FloatFormat = FLOAT16,
                        recorder: Optional[MemoryRecorder] = None
                        ) -> Optional[CompressionReport]:
    """Compress ``tree`` unless it already is, tracing the pass through ``recorder``.

    The LDSPZPB loads read every leaf point once and the STZPB stores write
    the compressed slices into ``cmprsd_strct_array``; these accesses are
    part of the extract kernel (the paper compresses leaves during tree
    construction) and contribute to the Bonsai configuration's cache
    behaviour.  A pre-compressed tree (an offline map) records nothing.
    Returns the compression report, ``None`` for a pre-compressed tree.
    """
    if tree.compressed_array is not None:
        return None
    report = compress_tree(tree, fmt)
    if recorder is not None:
        arrays = tree.arrays
        starts = arrays.leaf_starts.tolist()
        point_ids = arrays.leaf_points.tolist()
        offsets = tree.compressed_array.offsets.tolist()
        for leaf_id in range(arrays.n_leaves):
            for point_index in point_ids[starts[leaf_id]:starts[leaf_id + 1]]:
                recorder.record_load(point_address(point_index), POINT_STRIDE_BYTES)
            for slice_offset in range(offsets[leaf_id], offsets[leaf_id + 1],
                                      ZIPPTS_SLICE_BYTES):
                recorder.record_store(compressed_address(slice_offset), ZIPPTS_SLICE_BYTES)
    return report
