"""The ``cmprsd_strct_array`` and per-leaf compressed references.

The paper's modified PCL keeps one extra byte array per tree in which the
compressed structures of all leaves are stored consecutively as they are
created during the tree build, and re-uses otherwise-unused leaf fields to
hold each leaf's (offset, length) into that array.  This module models both
pieces and provides ``compress_tree`` to run the whole build-time compression
pass over a k-d tree.  The pass also emits the tree's decoded mirror
(:class:`~repro.core.leaf_compression.LeafMirror`), which the array carries
for the search paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

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
    "CompressedRef",
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


class CompressedRef(NamedTuple):
    """Reference from a leaf into the compressed-structure array.

    A named tuple: the compression pass creates one per leaf, and a tuple
    is several times cheaper to create than a frozen dataclass.
    """

    offset: int
    length: int
    n_points: int
    n_slices: int
    flags: tuple

    @property
    def end(self) -> int:
        """One-past-the-end byte offset of the compressed structure."""
        return self.offset + self.length


class CompressedStructArray:
    """Compressed leaf structures back to back, plus the tree's decoded mirror.

    :func:`compress_tree` fills one in a single pass, together with the
    decoded mirror and every leaf's slice count (``n_slices``);
    :meth:`append` adds one :func:`~repro.core.leaf_compression.compress_leaf`
    result at a time and emits neither, so the search paths need an array
    built by :func:`compress_tree` (:meth:`require_mirror`).  ``data`` may
    also be a read-only buffer, such as a shared-memory segment, with
    ``mirror`` and ``n_slices`` laid over it too; the per-leaf
    :class:`CompressedRef` table is then derived from them on first use.
    """

    def __init__(self, fmt: FloatFormat = FLOAT16, *, data=None,
                 mirror: Optional[LeafMirror] = None,
                 n_slices: Optional[np.ndarray] = None):
        self.fmt = fmt
        self._data = bytearray() if data is None else data
        #: Decoded coordinates and Eq. 6 bounds of every leaf
        #: (``None`` for an array built by :meth:`append`).
        self.mirror = mirror
        #: 128-bit slices of every leaf's structure, by leaf id (``None``
        #: for an array built by :meth:`append`).
        self.n_slices = n_slices
        self._refs: Optional[Dict[int, CompressedRef]] = (
            {} if n_slices is None else None)

    def require_mirror(self) -> LeafMirror:
        """The decoded mirror; ``ValueError`` for an array built by :meth:`append`."""
        if self.mirror is None:
            raise ValueError(
                "this compressed array was filled by append() and has no decoded "
                "mirror, so it cannot be searched; compress the tree with "
                "compress_tree() instead")
        return self.mirror

    def _table(self) -> Dict[int, CompressedRef]:
        """The per-leaf references (derived once from ``n_slices``)."""
        if self._refs is None:
            lengths = self.n_slices * ZIPPTS_SLICE_BYTES
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            # The [cX cY cZ] flags are the top three bits of a structure.
            head = np.frombuffer(self._data, dtype=np.uint8)[offsets]
            flags = ((head[:, None] >> np.array([7, 6, 5])) & 1).astype(bool)
            self._refs = {
                leaf_id: CompressedRef(offset=offset, length=length,
                                       n_points=n_points, n_slices=n_slices,
                                       flags=tuple(leaf_flags))
                for leaf_id, (offset, length, n_points, n_slices, leaf_flags)
                in enumerate(zip(offsets.tolist(), lengths.tolist(),
                                 np.diff(self.mirror.starts).tolist(),
                                 self.n_slices.tolist(), flags.tolist()))}
        return self._refs

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def append(self, leaf_id: int, compressed: CompressedLeaf) -> CompressedRef:
        """Append ``compressed`` and return its reference.

        The append offset is always slice aligned because every compressed
        structure is padded to whole 128-bit slices.
        """
        refs = self._table()
        if leaf_id in refs:
            raise ValueError(f"leaf {leaf_id} already has a compressed structure")
        offset = len(self._data)
        self._data.extend(compressed.data)
        ref = CompressedRef(
            offset=offset,
            length=compressed.size_bytes,
            n_points=compressed.n_points,
            n_slices=compressed.n_slices,
            flags=compressed.flags,
        )
        refs[leaf_id] = ref
        return ref

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table())

    @property
    def total_bytes(self) -> int:
        """Total size of the array in bytes."""
        return len(self._data)

    @property
    def data(self) -> bytes:
        """The raw concatenated compressed structures."""
        return bytes(self._data)

    def ref(self, leaf_id: int) -> CompressedRef:
        """The compressed reference of ``leaf_id``."""
        return self._table()[leaf_id]

    def get(self, leaf_id: int) -> CompressedLeaf:
        """The compressed structure of ``leaf_id`` (rebuilt from the bytes)."""
        ref = self.ref(leaf_id)
        return CompressedLeaf(
            data=self.read(ref),
            n_points=ref.n_points,
            flags=ref.flags,
            payload_bits=compressed_size_bits(ref.n_points, ref.flags, self.fmt),
            fmt_name=self.fmt.name,
        )

    def read(self, ref: CompressedRef) -> bytes:
        """Read the raw bytes referenced by ``ref`` (as the LDDCP loads would)."""
        return bytes(self._data[ref.offset:ref.end])


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
    array is stored as ``tree.compressed_array``, which also gives every leaf
    node its ``compressed_ref`` (the paper's reuse of unused leaf fields to
    hold the reference).  ``mirror_buffer`` is a writable buffer of
    ``LeafMirror.nbytes(...)`` bytes to lay the mirror out in (a
    shared-memory segment); fresh memory when omitted.
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
