"""Tests of the virtual memory layout of the tree data structures."""

from __future__ import annotations

from repro.kdtree.layout import (
    COMPRESSED_BASE,
    FLAGS_BASE,
    INDEX_STRIDE_BYTES,
    NODE_RECORD_BYTES,
    POINT_STRIDE_BYTES,
    POINTS_BASE,
    QUEUE_BASE,
    compressed_address,
    flag_address,
    index_entry_address,
    node_address,
    point_address,
    queue_address,
)


class TestLayout:
    def test_point_addresses_are_strided(self):
        assert point_address(1) - point_address(0) == POINT_STRIDE_BYTES
        assert point_address(10) == POINTS_BASE + 10 * POINT_STRIDE_BYTES

    def test_index_addresses_are_strided(self):
        assert index_entry_address(3) - index_entry_address(2) == INDEX_STRIDE_BYTES

    def test_node_addresses_are_strided(self):
        assert node_address(5) - node_address(4) == NODE_RECORD_BYTES

    def test_regions_do_not_overlap(self):
        regions = [
            (point_address(0), point_address(1_000_000)),
            (index_entry_address(0), index_entry_address(1_000_000)),
            (node_address(0), node_address(200_000)),
            (compressed_address(0), compressed_address(16_000_000)),
            (flag_address(0), flag_address(1_000_000)),
            (queue_address(0), queue_address(1_000_000)),
        ]
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert end <= start

    def test_compressed_addresses_offset_from_base(self):
        assert compressed_address(64) == COMPRESSED_BASE + 64

    def test_point_stride_matches_pcl_pointxyz(self):
        # PointXYZ is four 32-bit floats (x, y, z, padding).
        assert POINT_STRIDE_BYTES == 16

    def test_flag_and_queue_addresses(self):
        assert flag_address(5) == FLAGS_BASE + 5
        assert queue_address(2) == QUEUE_BASE + 8
