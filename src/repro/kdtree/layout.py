"""Virtual memory layout of the k-d tree data structures.

The hardware model (caches, byte counters) needs addresses for the loads a
radius search performs.  This module fixes a deterministic virtual layout of
the structures PCL/FLANN allocate:

* the point array (``PointXYZ`` is four 32-bit floats: x, y, z, padding);
* the per-leaf index array (``vind`` in FLANN: one 32-bit index per point);
* the node records of the tree itself;
* the compressed-structure array (``cmprsd_strct_array``) introduced by
  K-D Bonsai, which stores compressed leaves contiguously;
* the ``processed`` flags and frontier queue of cluster extraction.

The addresses are synthetic but the relative placement (separate contiguous
regions, per-point strides) matches the real allocations, which is what
determines cache behaviour.  Every tree (every frame) is laid out at the
same base addresses, which mirrors an allocator reusing the same arena frame
after frame.
"""

from __future__ import annotations

__all__ = [
    "POINT_STRIDE_BYTES",
    "INDEX_STRIDE_BYTES",
    "NODE_RECORD_BYTES",
    "POINTS_BASE",
    "INDICES_BASE",
    "NODES_BASE",
    "COMPRESSED_BASE",
    "FLAGS_BASE",
    "QUEUE_BASE",
    "point_address",
    "index_entry_address",
    "node_address",
    "compressed_address",
    "flag_address",
    "queue_address",
]

#: PCL stores PointXYZ as 4 x float32 (x, y, z, padding).
POINT_STRIDE_BYTES = 16
#: FLANN's vind array holds 32-bit point indices.
INDEX_STRIDE_BYTES = 4
#: Approximate size of one FLANN node record (child pointers + split info).
NODE_RECORD_BYTES = 32

POINTS_BASE = 0x1000_0000
INDICES_BASE = 0x2000_0000
NODES_BASE = 0x3000_0000
COMPRESSED_BASE = 0x4000_0000
FLAGS_BASE = 0x7000_0000
QUEUE_BASE = 0x7800_0000


def point_address(point_index: int) -> int:
    """Address of the ``PointXYZ`` record of ``point_index``."""
    return POINTS_BASE + point_index * POINT_STRIDE_BYTES


def index_entry_address(position: int) -> int:
    """Address of the ``position``-th entry of the leaf index (vind) array."""
    return INDICES_BASE + position * INDEX_STRIDE_BYTES


def node_address(node_ordinal: int) -> int:
    """Address of the ``node_ordinal``-th node record."""
    return NODES_BASE + node_ordinal * NODE_RECORD_BYTES


def compressed_address(byte_offset: int) -> int:
    """Address of a byte inside ``cmprsd_strct_array``."""
    return COMPRESSED_BASE + byte_offset


def flag_address(point_index: int) -> int:
    """Address of the ``processed`` flag byte of ``point_index``."""
    return FLAGS_BASE + point_index


def queue_address(slot: int) -> int:
    """Address of the ``slot``-th entry of the BFS frontier queue."""
    return QUEUE_BASE + slot * INDEX_STRIDE_BYTES
