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

    :func:`compress_tree` fills one in a single pass; :meth:`append` adds
    one :func:`~repro.core.leaf_compression.compress_leaf` result at a time
    and emits no mirror, so the search paths need an array built by
    :func:`compress_tree`.  ``data`` may also be a read-only buffer, such as
    a shared-memory segment, with ``refs`` and ``mirror`` rebuilt over it.
    """

    def __init__(self, fmt: FloatFormat = FLOAT16, *, data=None,
                 refs: Optional[Dict[int, CompressedRef]] = None,
                 mirror: Optional[LeafMirror] = None):
        self.fmt = fmt
        self._data = bytearray() if data is None else data
        self._refs: Dict[int, CompressedRef] = {} if refs is None else refs
        #: Decoded coordinates and Eq. 6 bounds of every leaf
        #: (``None`` for an array built by :meth:`append`).
        self.mirror = mirror

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def append(self, leaf_id: int, compressed: CompressedLeaf) -> CompressedRef:
        """Append ``compressed`` and return its reference.

        The append offset is always slice aligned because every compressed
        structure is padded to whole 128-bit slices.
        """
        if leaf_id in self._refs:
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
        self._refs[leaf_id] = ref
        return ref

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._refs)

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
        return self._refs[leaf_id]

    def get(self, leaf_id: int) -> CompressedLeaf:
        """The compressed structure of ``leaf_id`` (rebuilt from the bytes)."""
        ref = self._refs[leaf_id]
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
    writes the bytes and the decoded mirror.  Each leaf's ``compressed_ref``
    attribute is populated, mirroring the paper's reuse of unused leaf
    fields to store the reference, and the array is stashed on the tree as
    ``tree.compressed_array``.  ``mirror_buffer`` is a writable buffer of
    ``LeafMirror.nbytes(...)`` bytes to lay the mirror out in (a
    shared-memory segment); fresh memory when omitted.
    """
    global _COMPRESSION_PASSES
    _COMPRESSION_PASSES += 1
    leaves = tree.leaves
    indices = [leaf.indices for leaf in leaves]
    counts = np.fromiter(map(len, indices), dtype=np.int64, count=len(indices))
    points = tree.points[np.concatenate(indices)]
    mirror = LeafMirror.allocate(points.shape[0], len(leaves), fmt, mirror_buffer)
    packed = compress_leaves(points, counts, mirror, fmt)

    lengths = np.diff(packed.offsets)
    refs = {}
    for leaf, offset, length, n_points, flags in zip(
            leaves, packed.offsets.tolist(), lengths.tolist(), counts.tolist(),
            packed.flags.tolist()):
        ref = CompressedRef(offset=offset, length=length, n_points=n_points,
                            n_slices=length // ZIPPTS_SLICE_BYTES,
                            flags=tuple(flags))
        leaf.compressed_ref = ref
        refs[leaf.leaf_id] = ref
    # Stash the array on the tree so searches can find it without new APIs.
    tree.compressed_array = CompressedStructArray(  # type: ignore[attr-defined]
        fmt, data=packed.data, refs=refs, mirror=mirror)
    coords_shared = packed.flags.sum(axis=0).tolist()
    return CompressionReport(
        n_leaves=tree.n_leaves,
        n_points=len(points),
        baseline_bytes=len(points) * baseline_bytes_per_point,
        compressed_bytes=len(packed.data),
        leaves_fully_shared=int(packed.flags.all(axis=1).sum()),
        coords_shared=dict(zip(("x", "y", "z"), coords_shared)),
    )
