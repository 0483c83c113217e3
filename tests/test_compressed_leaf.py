"""Tests of the cmprsd_strct_array model and whole-tree compression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressed_leaf import compress_tree
from repro.core.floatfmt import BFLOAT16, FLOAT16, FLOAT24
from repro.core.leaf_compression import (
    ZIPPTS_SLICE_BYTES,
    LeafMirror,
    compress_leaf,
    decompress_leaf,
)
from repro.kdtree import KDTreeConfig, build_kdtree
from repro.runtime.kernels import reduced_precision_max_delta


def _leaf_points(tree, leaf_id):
    """The coordinates of leaf ``leaf_id`` (its slice of ``leaf_points``)."""
    start, stop = tree.arrays.leaf_starts[leaf_id:leaf_id + 2]
    return tree.points[tree.arrays.leaf_points[start:stop]]


class TestCompressedStructArray:
    @pytest.fixture()
    def array(self, random_tree):
        tree = build_kdtree(random_tree.points)
        compress_tree(tree)
        return tree.compressed_array

    def test_offsets_slice_aligned(self, array):
        """Leaves are stored back to back, each from a slice boundary."""
        assert array.offsets[0] == 0
        assert np.all(array.offsets % ZIPPTS_SLICE_BYTES == 0)
        assert np.array_equal(np.diff(array.offsets),
                              array.n_slices * ZIPPTS_SLICE_BYTES)
        assert array.offsets[-1] == array.total_bytes

    def test_read_returns_stored_bytes(self, array):
        data = array.data
        for leaf_id in (0, len(array) // 2, len(array) - 1):
            start, stop = array.offsets[leaf_id:leaf_id + 2]
            assert array.get(leaf_id).data == data[start:stop]

    def test_len_counts_leaves(self, random_tree, array):
        assert len(array) == random_tree.n_leaves


class TestCompressTree:
    def test_every_leaf_gets_a_reference(self, random_tree):
        report = compress_tree(random_tree)
        array = random_tree.compressed_array
        assert array.offsets.shape == (random_tree.n_leaves + 1,)
        assert np.all(array.n_slices >= 1)
        assert report.n_leaves == random_tree.n_leaves
        assert report.n_points == random_tree.n_points

    def test_array_attached_to_tree(self, random_tree):
        compress_tree(random_tree)
        array = getattr(random_tree, "compressed_array", None)
        assert array is not None
        assert len(array) == random_tree.n_leaves

    def test_decompression_matches_fp16_points(self, random_tree):
        compress_tree(random_tree)
        array = random_tree.compressed_array
        for leaf_id in range(20):
            decoded = decompress_leaf(array.get(leaf_id))
            expected = _leaf_points(random_tree, leaf_id).astype(np.float16).astype(np.float64)
            np.testing.assert_array_equal(decoded, expected)

    def test_report_totals_consistent(self, random_tree):
        report = compress_tree(build_kdtree(random_tree.points))
        assert report.baseline_bytes == report.n_points * 16
        assert 0.0 < report.compression_ratio < 1.0
        assert report.savings_fraction == pytest.approx(1.0 - report.compression_ratio)

    def test_realistic_frame_compression_ratio(self, frame_tree):
        """Leaf compression should land near the paper's ~37% of baseline bytes."""
        tree = build_kdtree(frame_tree.points)
        report = compress_tree(tree)
        assert 0.2 < report.compression_ratio < 0.55

    def test_sharing_counts_bounded_by_leaves(self, frame_tree):
        tree = build_kdtree(frame_tree.points)
        report = compress_tree(tree)
        for coord in ("x", "y", "z"):
            assert 0 <= report.coords_shared[coord] <= report.n_leaves
        assert report.leaves_fully_shared <= min(report.coords_shared.values())

    def test_small_leaf_trees_compress(self, random_cloud):
        tree = build_kdtree(random_cloud, KDTreeConfig(max_leaf_size=4))
        report = compress_tree(tree)
        assert report.n_leaves == tree.n_leaves
        assert report.compressed_bytes > 0

    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT24],
                             ids=lambda f: f.name)
    def test_one_pass_matches_the_scalar_codec(self, frame_tree, fmt):
        """The tree blob is every leaf's compress_leaf bytes back to back,
        and each mirror row is decompress_leaf's value and its Eq. 6 bound."""
        tree = build_kdtree(frame_tree.points)
        compress_tree(tree, fmt)
        array = tree.compressed_array
        expected = [compress_leaf(_leaf_points(tree, leaf_id), fmt)
                    for leaf_id in range(tree.n_leaves)]
        assert array.data == b"".join(leaf.data for leaf in expected)
        for leaf_id, scalar in enumerate(expected):
            assert (array.n_slices[leaf_id], array.offsets[leaf_id + 1] - array.offsets[leaf_id]) \
                == (scalar.n_slices, scalar.size_bytes)
            assert array.get(leaf_id) == scalar
            decoded = decompress_leaf(scalar, fmt)
            reduced, max_delta = array.mirror.leaf(leaf_id)
            np.testing.assert_array_equal(
                reduced.astype(np.float64).view(np.uint64), decoded.view(np.uint64))
            np.testing.assert_array_equal(
                max_delta.astype(np.float64).view(np.uint64),
                reduced_precision_max_delta(decoded, fmt).view(np.uint64))

    def test_mirror_written_into_the_given_buffer(self, random_tree):
        tree = build_kdtree(random_tree.points)
        buffer = bytearray(LeafMirror.nbytes(tree.n_points, tree.n_leaves, FLOAT16))
        compress_tree(tree, mirror_buffer=buffer)
        mirror = tree.compressed_array.mirror
        assert np.shares_memory(mirror.reduced, np.frombuffer(buffer, dtype=np.uint8))
        assert mirror.starts[-1] == tree.n_points

    def test_oversized_leaves_rejected(self, random_cloud):
        tree = build_kdtree(random_cloud, KDTreeConfig(max_leaf_size=40))
        with pytest.raises(ValueError):
            compress_tree(tree)
