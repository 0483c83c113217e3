"""Value-similarity compression of k-d tree leaf points (Figure 6).

A leaf's points are first converted to the reduced floating-point format
(IEEE fp16 by default).  For each coordinate, if the <sign, exponent> tuple is
identical across every point in the leaf, a single copy of it is stored and a
per-coordinate flag records the sharing.  The compressed structure layout
mirrors Figure 6 of the paper:

``[cX cY cZ] [mantissas, point-major, x/y/z interleaved] [one <s,e> copy per
compressed coordinate] [<s,e> tuples of every point for the remaining
coordinates, point-major]``

Compression is lossless with respect to the reduced 16-bit values: decoding a
compressed leaf reproduces exactly the fp16 bit patterns that were encoded.
The only information loss relative to the original cloud is the fp32 -> fp16
conversion, whose error the shell classifier bounds at search time.

Two codecs write this layout.  :func:`compress_leaf` / :func:`decompress_leaf`
stream one leaf field by field through :class:`BitWriter` /
:class:`BitReader`: the ISA ZipPts model, the software-only baseline of
Section IV-A and the reference the tests check against.
:func:`compress_leaves` encodes every leaf of a tree with array operations
into the same bytes and, in the same pass, fills the tree's
:class:`LeafMirror` with the decoded coordinates, so the search paths never
decode bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..runtime.kernels import reduced_precision_max_delta
from .bitstream import BitReader, BitWriter
from .floatfmt import FLOAT16, FloatFormat

__all__ = [
    "ZIPPTS_SLICE_BYTES",
    "MAX_POINTS_PER_LEAF",
    "CompressedLeaf",
    "LeafMirror",
    "PackedLeaves",
    "compress_leaf",
    "compress_leaves",
    "decompress_leaf",
    "compressed_size_bits",
]

#: The ZipPts buffer exchanges data in 128-bit slices (Section IV-B).
ZIPPTS_SLICE_BYTES = 16
#: The ZipPts buffer holds at most 16 points (PCL default is 15 per leaf).
MAX_POINTS_PER_LEAF = 16
#: Number of spatial coordinates.
N_COORDS = 3
#: Leaves :func:`compress_leaves` encodes per array step, which bounds its
#: temporaries (about 1.5 MB) whatever the size of the tree; larger chunks
#: measured no faster.
ENCODE_CHUNK_LEAVES = 256


@dataclass(frozen=True)
class CompressedLeaf:
    """The compressed representation of one leaf's points.

    Attributes
    ----------
    data:
        The packed bytes, zero-padded to a whole number of 128-bit slices.
    n_points:
        Number of points encoded.
    flags:
        Per-coordinate sharing flags ``(cX, cY, cZ)``; ``True`` means the
        coordinate's <sign, exponent> is stored once for the whole leaf.
    payload_bits:
        Exact number of meaningful bits before slice padding.
    fmt_name:
        Name of the reduced float format used for the coordinates.
    """

    data: bytes
    n_points: int
    flags: Tuple[bool, bool, bool]
    payload_bits: int
    fmt_name: str = FLOAT16.name

    @property
    def size_bytes(self) -> int:
        """Padded size in bytes (what is stored in ``cmprsd_strct_array``)."""
        return len(self.data)

    @property
    def n_slices(self) -> int:
        """Number of 128-bit ZipPts slices occupied."""
        return len(self.data) // ZIPPTS_SLICE_BYTES

    def compression_ratio(self, baseline_bytes_per_point: int = 16) -> float:
        """Compressed bytes over baseline bytes for the same points."""
        baseline = self.n_points * baseline_bytes_per_point
        if baseline == 0:
            return 1.0
        return self.size_bytes / baseline


def _sign_exponent_bits(fmt: FloatFormat) -> int:
    return fmt.sign_bits + fmt.exponent_bits


def compressed_size_bits(n_points: int, flags: Sequence[bool],
                         fmt: FloatFormat = FLOAT16) -> int:
    """Exact payload size in bits of a compressed leaf (before padding)."""
    se_bits = _sign_exponent_bits(fmt)
    bits = N_COORDS  # compression flags
    bits += n_points * N_COORDS * fmt.mantissa_bits
    for flag in flags:
        bits += se_bits if flag else se_bits * n_points
    return bits


def compress_leaf(points_fp32: np.ndarray, fmt: FloatFormat = FLOAT16) -> CompressedLeaf:
    """Compress a leaf's ``(N, 3)`` float32 points into the Figure 6 layout.

    Raises ``ValueError`` if the leaf holds more points than the ZipPts buffer
    supports (16) or is empty.
    """
    points_fp32 = np.asarray(points_fp32, dtype=np.float32)
    if points_fp32.ndim != 2 or points_fp32.shape[1] != N_COORDS:
        raise ValueError("leaf points must form an (N, 3) array")
    n_points = points_fp32.shape[0]
    if n_points == 0:
        raise ValueError("cannot compress an empty leaf")
    if n_points > MAX_POINTS_PER_LEAF:
        raise ValueError(
            f"leaf holds {n_points} points; the ZipPts buffer supports at most "
            f"{MAX_POINTS_PER_LEAF}"
        )

    # Reduced-format bit patterns, shape (N, 3).
    bits = np.empty((n_points, N_COORDS), dtype=np.uint32)
    for i in range(n_points):
        for c in range(N_COORDS):
            bits[i, c] = fmt.encode(float(points_fp32[i, c]))

    se_bits = _sign_exponent_bits(fmt)
    se = (bits >> fmt.mantissa_bits) & ((1 << se_bits) - 1)
    mantissa = bits & ((1 << fmt.mantissa_bits) - 1)

    flags = tuple(bool(np.all(se[:, c] == se[0, c])) for c in range(N_COORDS))

    writer = BitWriter()
    for flag in flags:
        writer.write(1 if flag else 0, 1)
    # Mantissas bypass compression, stored point-major (x, y, z per point).
    for i in range(n_points):
        for c in range(N_COORDS):
            writer.write(int(mantissa[i, c]), fmt.mantissa_bits)
    # Single <sign, exponent> copy per compressed coordinate.
    for c in range(N_COORDS):
        if flags[c]:
            writer.write(int(se[0, c]), se_bits)
    # Remaining <sign, exponent> tuples, point-major over uncompressed coords.
    for i in range(n_points):
        for c in range(N_COORDS):
            if not flags[c]:
                writer.write(int(se[i, c]), se_bits)

    payload_bits = writer.bit_length
    data = writer.to_bytes(pad_to=ZIPPTS_SLICE_BYTES)
    return CompressedLeaf(
        data=data,
        n_points=n_points,
        flags=flags,  # type: ignore[arg-type]
        payload_bits=payload_bits,
        fmt_name=fmt.name,
    )


def decompress_leaf(compressed: CompressedLeaf,
                    fmt: Optional[FloatFormat] = None) -> np.ndarray:
    """Decompress a leaf back into its reduced-precision ``(N, 3)`` values.

    The returned array is float64 holding exactly the values representable in
    the reduced format (i.e. the values the Bonsai functional unit operates
    on).  The fp16 bit patterns are reconstructed exactly.
    """
    fmt = fmt or FLOAT16
    if fmt.name != compressed.fmt_name:
        raise ValueError(
            f"compressed leaf uses format {compressed.fmt_name!r}, "
            f"decompression requested with {fmt.name!r}"
        )
    reader = BitReader(compressed.data)
    n_points = compressed.n_points
    se_bits = _sign_exponent_bits(fmt)

    flags = tuple(bool(reader.read(1)) for _ in range(N_COORDS))
    if flags != compressed.flags:
        raise ValueError("compression flags in the bit stream disagree with metadata")

    mantissa = np.empty((n_points, N_COORDS), dtype=np.uint32)
    for i in range(n_points):
        for c in range(N_COORDS):
            mantissa[i, c] = reader.read(fmt.mantissa_bits)

    shared_se = {}
    for c in range(N_COORDS):
        if flags[c]:
            shared_se[c] = reader.read(se_bits)

    se = np.empty((n_points, N_COORDS), dtype=np.uint32)
    for c in range(N_COORDS):
        if flags[c]:
            se[:, c] = shared_se[c]
    for i in range(n_points):
        for c in range(N_COORDS):
            if not flags[c]:
                se[i, c] = reader.read(se_bits)

    values = np.empty((n_points, N_COORDS), dtype=np.float64)
    for i in range(n_points):
        for c in range(N_COORDS):
            packed = (int(se[i, c]) << fmt.mantissa_bits) | int(mantissa[i, c])
            values[i, c] = fmt.decode(packed)
    return values


def decompress_leaf_bits(compressed: CompressedLeaf,
                         fmt: Optional[FloatFormat] = None) -> np.ndarray:
    """Decompress a leaf into the raw reduced-format bit patterns ``(N, 3)``."""
    fmt = fmt or FLOAT16
    values = decompress_leaf(compressed, fmt)
    bits = np.empty(values.shape, dtype=np.uint32)
    for i in range(values.shape[0]):
        for c in range(values.shape[1]):
            bits[i, c] = fmt.encode(float(values[i, c]))
    return bits


# ----------------------------------------------------------------------
# Whole-tree (array) codec
# ----------------------------------------------------------------------
class LeafMirror:
    """The decoded leaves of a compressed tree, emitted by its compression pass.

    Row ``r`` is the tree's ``r``-th point in leaf order and leaf ``i`` owns
    rows ``starts[i]:starts[i + 1]``.  ``reduced`` holds each coordinate as
    the leaf's compressed structure decodes it and ``max_delta`` its Eq. 6
    bound, bit for bit what :func:`decompress_leaf` and
    :func:`~repro.runtime.kernels.reduced_precision_max_delta` return.  Both
    are float32 where that is exact (fp16, bfloat16, float24) and float64
    otherwise; square ``max_delta`` in float64, since bfloat16's smallest
    bound (2**-134) squares to zero in float32.
    """

    def __init__(self, reduced: np.ndarray, max_delta: np.ndarray,
                 starts: np.ndarray):
        self.reduced = reduced
        self.max_delta = max_delta
        self.starts = starts

    @staticmethod
    def dtype(fmt: FloatFormat) -> np.dtype:
        """Float32 when every value and bound of ``fmt`` is a float32."""
        smallest_bound = 1 - fmt.bias - fmt.mantissa_bits - 1
        exact = (fmt.exponent_bits <= 8 and fmt.mantissa_bits <= 23
                 and smallest_bound >= -149)
        return np.dtype(np.float32 if exact else np.float64)

    @classmethod
    def nbytes(cls, n_points: int, n_leaves: int, fmt: FloatFormat) -> int:
        """Bytes of the buffer :meth:`allocate` lays a mirror out in."""
        return 8 * (n_leaves + 1) + 2 * N_COORDS * n_points * cls.dtype(fmt).itemsize

    @classmethod
    def allocate(cls, n_points: int, n_leaves: int, fmt: FloatFormat,
                 buffer=None) -> "LeafMirror":
        """An unfilled mirror laid out in ``buffer`` (fresh memory if omitted)."""
        if buffer is None:
            buffer = bytearray(cls.nbytes(n_points, n_leaves, fmt))
        dtype = cls.dtype(fmt)
        starts = np.ndarray((n_leaves + 1,), dtype=np.int64, buffer=buffer)
        reduced = np.ndarray((n_points, N_COORDS), dtype=dtype, buffer=buffer,
                             offset=starts.nbytes)
        max_delta = np.ndarray((n_points, N_COORDS), dtype=dtype, buffer=buffer,
                               offset=starts.nbytes + reduced.nbytes)
        return cls(reduced, max_delta, starts)

    def leaf(self, leaf_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(reduced, max_delta)`` rows of one leaf (views, no decoding)."""
        start = self.starts[leaf_id]
        stop = self.starts[leaf_id + 1]
        return self.reduced[start:stop], self.max_delta[start:stop]


@dataclass(frozen=True)
class PackedLeaves:
    """Figure-6 structures of consecutive leaves, packed back to back.

    ``data[offsets[i]:offsets[i + 1]]``, ``flags[i]`` and
    ``payload_bits[i]`` equal ``compress_leaf(...)``'s ``data``, ``flags``
    and ``payload_bits`` for leaf ``i``.
    """

    data: bytes
    offsets: np.ndarray
    flags: np.ndarray
    payload_bits: np.ndarray


def compress_leaves(points_fp32: np.ndarray, counts: Sequence[int],
                    mirror: LeafMirror, fmt: FloatFormat = FLOAT16) -> PackedLeaves:
    """:func:`compress_leaf` for consecutive leaves, with array operations.

    ``points_fp32`` holds the leaves' points back to back, leaf ``i`` owning
    the next ``counts[i]`` rows.  Leaves are encoded
    ``ENCODE_CHUNK_LEAVES`` at a time; each field is OR-ed into whole
    big-endian 64-bit words, which streams bits MSB first like
    :class:`BitWriter`.  The same pass fills ``mirror`` (allocated for these
    points and leaves) with the decoded coordinates and their Eq. 6 bounds.

    Raises ``ValueError`` for the leaves :func:`compress_leaf` rejects.
    """
    points = np.asarray(points_fp32, dtype=np.float32)
    counts = np.asarray(counts, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != N_COORDS:
        raise ValueError("leaf points must form an (N, 3) array")
    if np.any(counts < 1):
        raise ValueError("cannot compress an empty leaf")
    if np.any(counts > MAX_POINTS_PER_LEAF):
        raise ValueError(
            f"leaf holds {int(counts.max())} points; the ZipPts buffer supports "
            f"at most {MAX_POINTS_PER_LEAF}")
    rows = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=rows[1:])
    if rows[-1] != points.shape[0]:
        raise ValueError("leaf sizes must add up to the number of points")

    parts = []
    flags = np.empty((counts.size, N_COORDS), dtype=bool)
    payload_bits = np.empty(counts.size, dtype=np.int64)
    for first in range(0, counts.size, ENCODE_CHUNK_LEAVES):
        last = min(first + ENCODE_CHUNK_LEAVES, counts.size)
        lo, hi = rows[first], rows[last]
        bits = fmt.encode_array(points[lo:hi])
        reduced = fmt.decode_array(bits)
        mirror.reduced[lo:hi] = reduced
        mirror.max_delta[lo:hi] = reduced_precision_max_delta(reduced, fmt)
        data, flags[first:last], payload_bits[first:last] = _pack_leaves(
            bits, counts[first:last], fmt)
        parts.append(data)
    mirror.starts[:] = rows

    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(_padded_bytes(payload_bits), out=offsets[1:])
    return PackedLeaves(b"".join(parts), offsets, flags, payload_bits)


def _padded_bytes(payload_bits: np.ndarray) -> np.ndarray:
    """Whole 128-bit slices holding ``payload_bits`` bits, in bytes."""
    slice_bits = 8 * ZIPPTS_SLICE_BYTES
    return -(-payload_bits // slice_bits) * ZIPPTS_SLICE_BYTES


def _pack_leaves(bits: np.ndarray, counts: np.ndarray,
                 fmt: FloatFormat) -> Tuple[bytes, np.ndarray, np.ndarray]:
    """Pack one chunk of leaves; ``bits`` are their points' reduced patterns.

    Returns the chunk's bytes and each leaf's flags and payload bits.
    """
    mb = fmt.mantissa_bits
    se_bits = _sign_exponent_bits(fmt)
    rows = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=rows[1:])
    leaf = np.repeat(np.arange(counts.size), counts)
    point = (np.arange(rows[-1]) - rows[leaf])[:, None]
    coord = np.arange(N_COORDS)
    se = bits >> np.uint64(mb)
    mantissa = bits & np.uint64((1 << mb) - 1)

    flags = (np.minimum.reduceat(se, rows[:-1], axis=0)
             == np.maximum.reduceat(se, rows[:-1], axis=0))
    n_shared = flags.sum(axis=1)
    payload_bits = (N_COORDS + counts * (N_COORDS * mb) + n_shared * se_bits
                    + (N_COORDS - n_shared) * counts * se_bits)

    leaf_bytes = _padded_bytes(payload_bits)
    leaf_bit = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(8 * leaf_bytes[:-1], out=leaf_bit[1:])
    words = np.zeros(int(leaf_bytes.sum()) // 8, dtype=np.uint64)
    # [cX cY cZ]
    _write_fields(words, leaf_bit, N_COORDS, flags @ np.array([4, 2, 1]))
    # Mantissas, point-major (x, y, z per point).
    _write_fields(words, (leaf_bit + N_COORDS)[leaf][:, None]
                  + (point * N_COORDS + coord) * mb, mb, mantissa)
    # One <sign, exponent> copy per shared coordinate, then the remaining
    # tuples point-major over the coordinates that are not shared.
    se_bit = leaf_bit + N_COORDS + counts * (N_COORDS * mb)
    rank = np.cumsum(flags, axis=1) - flags
    _write_fields(words, (se_bit[:, None] + rank * se_bits)[flags], se_bits,
                  se[rows[:-1]][flags])
    unshared = ~flags[leaf]
    urank = (np.cumsum(~flags, axis=1) - ~flags)[leaf]
    position = ((se_bit + n_shared * se_bits)[leaf][:, None]
                + (point * (N_COORDS - n_shared)[leaf][:, None] + urank) * se_bits)
    _write_fields(words, position[unshared], se_bits, se[unshared])
    return words.astype(">u8").tobytes(), flags, payload_bits


def _write_fields(words: np.ndarray, position: np.ndarray, width: int,
                  value: np.ndarray) -> None:
    """OR ``width``-bit fields into big-endian words at absolute bit offsets.

    A field spans at most two words; fields never overlap, so OR-ing them
    in any order builds the same stream.
    """
    position = np.ravel(position)
    value = np.ravel(value).astype(np.uint64)
    index = position >> 6
    end = (position & 63) + width
    spill = end > 64
    head = ((value << np.where(spill, 0, 64 - end).astype(np.uint64))
            >> np.where(spill, end - 64, 0).astype(np.uint64))
    np.bitwise_or.at(words, index, head)
    if spill.any():
        np.bitwise_or.at(words, index[spill] + 1,
                         value[spill] << (128 - end[spill]).astype(np.uint64))
