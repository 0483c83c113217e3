"""Radius search over compressed leaves (the K-D Bonsai leaf inspector).

The traversal is unchanged from the baseline (:func:`repro.kdtree.radius_search`);
only leaf processing differs.  When the search reaches a leaf whose compressed
structure exists, the inspector:

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
memory-access recorder for cache simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..kdtree.build import KDTree
from ..kdtree.layout import POINT_STRIDE_BYTES, TreeMemoryLayout
from ..kdtree.node import LeafNode
from ..kdtree.radius_search import MemoryRecorder, SearchStats
from ..runtime.kernels import leaf_distances2, shell_classify, shell_error_bound
from .compressed_leaf import CompressedRef, CompressedStructArray, compress_tree
from .error_model import PartErrorTable
from .floatfmt import FLOAT16, FloatFormat
from .leaf_compression import ZIPPTS_SLICE_BYTES

__all__ = ["BonsaiStats", "BonsaiLeafInspector", "BonsaiRadiusSearch"]


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
    fallback_leaf_visits: int = 0

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
        self.fallback_leaf_visits += other.fallback_leaf_visits


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
        :func:`compress_tree`.  If omitted, the inspector looks for
        ``tree.compressed_array``.  An array filled by ``append`` has no
        decoded mirror and raises ``ValueError``.
    fmt:
        Reduced float format of the compressed coordinates.
    """

    def __init__(self, array: Optional[CompressedStructArray] = None,
                 fmt: FloatFormat = FLOAT16):
        if array is not None:
            array.require_mirror()
        self.array = array
        self.fmt = fmt
        self.part_error = PartErrorTable(fmt)
        self.bonsai_stats = BonsaiStats()

    # ------------------------------------------------------------------
    # LeafInspector protocol
    # ------------------------------------------------------------------
    def inspect(self, tree: KDTree, leaf: LeafNode, query: np.ndarray, r2: float,
                results: List[int], stats: SearchStats,
                recorder: Optional[MemoryRecorder],
                layout: Optional[TreeMemoryLayout]) -> None:
        array = self._resolve_array(tree)
        ref: Optional[CompressedRef] = leaf.compressed_ref  # type: ignore[assignment]
        if array is None or ref is None:
            # No compressed structure: fall back to the baseline behaviour.
            self.bonsai_stats.fallback_leaf_visits += 1
            self._baseline_inspect(tree, leaf, query, r2, results, stats, recorder, layout)
            return

        self.bonsai_stats.leaf_visits += 1
        self.bonsai_stats.slices_loaded += ref.n_slices
        self.bonsai_stats.compressed_bytes_loaded += ref.n_slices * ZIPPTS_SLICE_BYTES
        stats.points_examined += leaf.n_points
        stats.point_bytes_loaded += ref.n_slices * ZIPPTS_SLICE_BYTES

        if recorder is not None and layout is not None:
            for slice_index in range(ref.n_slices):
                recorder.record_load(
                    layout.compressed_address(ref.offset + slice_index * ZIPPTS_SLICE_BYTES),
                    ZIPPTS_SLICE_BYTES,
                )

        reduced, max_delta = array.mirror.leaf(leaf.leaf_id)

        diffs = query - reduced
        sq = diffs * diffs
        d2_approx = sq.sum(axis=1)
        eps = shell_error_bound(np.abs(diffs), max_delta)

        self.bonsai_stats.points_classified += leaf.n_points

        conclusive_in, conclusive_out, inconclusive = shell_classify(d2_approx, eps, r2)

        self.bonsai_stats.conclusive_in += int(conclusive_in.sum())
        self.bonsai_stats.conclusive_out += int(conclusive_out.sum())
        self.bonsai_stats.inconclusive += int(inconclusive.sum())

        for local_index, point_index in enumerate(leaf.indices):
            if conclusive_in[local_index]:
                results.append(int(point_index))
                stats.points_in_radius += 1
                continue
            if conclusive_out[local_index]:
                continue
            # Inconclusive: fetch the original 32-bit point and recompute.
            self.bonsai_stats.recompute_bytes_loaded += POINT_STRIDE_BYTES
            stats.point_bytes_loaded += POINT_STRIDE_BYTES
            if recorder is not None and layout is not None:
                recorder.record_load(layout.point_address(int(point_index)),
                                     POINT_STRIDE_BYTES)
            original = tree.points_f64[int(point_index)]
            diff = query - original
            if float(diff @ diff) <= r2:
                results.append(int(point_index))
                stats.points_in_radius += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_array(self, tree: KDTree) -> Optional[CompressedStructArray]:
        if self.array is not None:
            return self.array
        array = tree.compressed_array
        if array is not None:
            array.require_mirror()
        return array

    def _baseline_inspect(self, tree, leaf, query, r2, results, stats, recorder, layout):
        points = tree.points_f64[leaf.indices]
        d2 = leaf_distances2(points, query)
        inside = d2 <= r2
        stats.points_examined += leaf.n_points
        stats.points_in_radius += int(inside.sum())
        stats.point_bytes_loaded += leaf.n_points * POINT_STRIDE_BYTES
        if recorder is not None and layout is not None:
            for point_index in leaf.indices:
                recorder.record_load(layout.point_address(int(point_index)),
                                     POINT_STRIDE_BYTES)
        for point_index, in_radius in zip(leaf.indices, inside):
            if in_radius:
                results.append(int(point_index))


class BonsaiRadiusSearch:
    """High-level helper: compress a tree once, then issue Bonsai searches."""

    def __init__(self, tree: KDTree, fmt: FloatFormat = FLOAT16,
                 recorder: Optional[MemoryRecorder] = None,
                 layout: Optional[TreeMemoryLayout] = None):
        self.tree = tree
        self.fmt = fmt
        self.recorder = recorder
        self.layout = layout
        if tree.compressed_array is None:
            self.report = compress_tree(tree, fmt)
            self._record_compression_accesses()
        else:
            self.report = None
        self.inspector = BonsaiLeafInspector(tree.compressed_array, fmt=fmt)
        self.stats = SearchStats()

    def _record_compression_accesses(self) -> None:
        """Trace the build-time compression pass through the memory recorder.

        The LDSPZPB loads read every leaf point once and the STZPB stores
        write the compressed slices into ``cmprsd_strct_array``; these
        accesses are part of the extract kernel (the paper compresses leaves
        during tree construction) and contribute to the Bonsai configuration's
        cache behaviour.
        """
        if self.recorder is None or self.layout is None:
            return
        for leaf in self.tree.leaves:
            for point_index in leaf.indices:
                self.recorder.record_load(
                    self.layout.point_address(int(point_index)), POINT_STRIDE_BYTES
                )
            ref = leaf.compressed_ref
            if ref is None:
                continue
            for slice_index in range(ref.n_slices):
                self.recorder.record_store(
                    self.layout.compressed_address(
                        ref.offset + slice_index * ZIPPTS_SLICE_BYTES
                    ),
                    ZIPPTS_SLICE_BYTES,
                )

    @property
    def bonsai_stats(self) -> BonsaiStats:
        """Counters specific to compressed leaf processing."""
        return self.inspector.bonsai_stats

    def search(self, query: Sequence[float], radius: float) -> List[int]:
        """Radius search over compressed leaves; identical results to baseline."""
        from ..kdtree.radius_search import radius_search

        return radius_search(
            self.tree, query, radius, inspector=self.inspector, stats=self.stats,
            recorder=self.recorder, layout=self.layout,
        )
