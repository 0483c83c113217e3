"""The ``cmprsd_strct_array`` and per-leaf compressed references.

The paper's modified PCL keeps one extra byte array per tree in which the
compressed structures of all leaves are stored consecutively as they are
created during the tree build, and re-uses otherwise-unused leaf fields to
hold each leaf's (offset, length) into that array.  This module models both
pieces (the per-leaf offsets are one array, derived from the leaves' slice
counts) and provides ``compress_tree`` to run the whole build-time
compression pass over a k-d tree.  The pass also emits the tree's decoded
mirror (:class:`~repro.core.leaf_compression.LeafMirror`), which the array
carries for the search paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..kdtree.build import KDTree
from .floatfmt import FLOAT16, FloatFormat
from .leaf_compression import (
    ZIPPTS_SLICE_BYTES,
    CompressedLeaf,
    LeafMirror,
    compress_leaves,
    compressed_size_bits,
)

__all__ = [
    "CompressedStructArray",
    "compress_tree",
    "compression_pass_count",
    "CompressionReport",
]

#: Number of whole-tree compression passes this process has run.  The
#: serving layer's "compress once, attach everywhere" claim is asserted
#: against this counter: the process that creates a
#: :class:`~repro.serve.store.SharedCloudStore` counts exactly one pass,
#: and every attaching client counts zero.
_COMPRESSION_PASSES = 0


def compression_pass_count() -> int:
    """How many times :func:`compress_tree` ran in this process."""
    return _COMPRESSION_PASSES


class CompressedStructArray:
    """Compressed leaf structures back to back, plus the tree's decoded mirror.

    :func:`compress_tree` fills one in a single pass, together with the
    decoded mirror and every leaf's slice count (``n_slices``).  ``data``
    may also be a read-only buffer, such as a shared-memory segment, with
    ``mirror`` and ``n_slices`` laid over it too.  Leaf ``i``'s structure is
    ``data[offsets[i]:offsets[i + 1]]``: the paper keeps each leaf's
    (offset, length) in otherwise-unused leaf fields, which ``offsets``
    models.
    """

    def __init__(self, fmt: FloatFormat, *, data, mirror: LeafMirror,
                 n_slices: np.ndarray):
        self.fmt = fmt
        self._data = data
        #: Decoded coordinates and Eq. 6 bounds of every leaf.
        self.mirror = mirror
        #: 128-bit slices of every leaf's structure, by leaf id.
        self.n_slices = n_slices
        #: Byte offset of every leaf's structure, by leaf id, then the total.
        self.offsets = np.concatenate(([0], np.cumsum(n_slices * ZIPPTS_SLICE_BYTES)))

    def __len__(self) -> int:
        return self.n_slices.shape[0]

    @property
    def total_bytes(self) -> int:
        """Total size of the array in bytes."""
        return len(self._data)

    @property
    def data(self) -> bytes:
        """The raw concatenated compressed structures."""
        return bytes(self._data)

    def get(self, leaf_id: int) -> CompressedLeaf:
        """The compressed structure of ``leaf_id`` (rebuilt from the bytes)."""
        data = bytes(self._data[self.offsets[leaf_id]:self.offsets[leaf_id + 1]])
        # The [cX cY cZ] flags are the top three bits of a structure.
        flags = tuple(bool(data[0] >> bit & 1) for bit in (7, 6, 5))
        n_points = int(self.mirror.starts[leaf_id + 1] - self.mirror.starts[leaf_id])
        return CompressedLeaf(
            data=data,
            n_points=n_points,
            flags=flags,
            payload_bits=compressed_size_bits(n_points, flags, self.fmt),
            fmt_name=self.fmt.name,
        )


@dataclass
class CompressionReport:
    """Summary of a whole-tree compression pass."""

    n_leaves: int
    n_points: int
    baseline_bytes: int
    compressed_bytes: int
    leaves_fully_shared: int
    coords_shared: Dict[str, int]

    @property
    def compression_ratio(self) -> float:
        """Compressed size over baseline size (lower is better)."""
        if self.baseline_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.baseline_bytes

    @property
    def savings_fraction(self) -> float:
        """Fraction of bytes removed by compression."""
        return 1.0 - self.compression_ratio


def compress_tree(tree: KDTree, fmt: FloatFormat = FLOAT16,
                  baseline_bytes_per_point: int = 16, *,
                  mirror_buffer=None) -> CompressionReport:
    """Compress every leaf of ``tree`` into a :class:`CompressedStructArray`.

    One vectorised pass (:func:`~repro.core.leaf_compression.compress_leaves`)
    over the tree's leaf arrays writes the bytes and the decoded mirror.  The
    array is stored as ``tree.compressed_array``.  ``mirror_buffer`` is a
    writable buffer of ``LeafMirror.nbytes(...)`` bytes to lay the mirror
    out in (a shared-memory segment); fresh memory when omitted.
    """
    global _COMPRESSION_PASSES
    _COMPRESSION_PASSES += 1
    arrays = tree.arrays
    points = tree.points[arrays.leaf_points]
    mirror = LeafMirror.allocate(points.shape[0], arrays.n_leaves, fmt, mirror_buffer)
    packed = compress_leaves(points, arrays.leaf_sizes, mirror, fmt)
    tree.compressed_array = CompressedStructArray(
        fmt, data=packed.data, mirror=mirror,
        n_slices=np.diff(packed.offsets) // ZIPPTS_SLICE_BYTES)
    coords_shared = packed.flags.sum(axis=0).tolist()
    return CompressionReport(
        n_leaves=tree.n_leaves,
        n_points=len(points),
        baseline_bytes=len(points) * baseline_bytes_per_point,
        compressed_bytes=len(packed.data),
        leaves_fully_shared=int(packed.flags.all(axis=1).sum()),
        coords_shared=dict(zip(("x", "y", "z"), coords_shared)),
    )
