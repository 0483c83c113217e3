"""Tests of the Figure 6 leaf compression / decompression codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floatfmt import BFLOAT16, FLOAT16, FLOAT24, FloatFormat
from repro.core.leaf_compression import (
    MAX_POINTS_PER_LEAF,
    ZIPPTS_SLICE_BYTES,
    CompressedLeaf,
    LeafMirror,
    compress_leaf,
    compress_leaves,
    compressed_size_bits,
    decompress_leaf,
)
from repro.core.leaf_compression import decompress_leaf_bits
from repro.runtime.kernels import reduced_precision_max_delta

REDUCED_FORMATS = [FLOAT16, BFLOAT16, FLOAT24]


def _nearby_leaf(rng, n_points=15, center=(20.0, -10.0, 1.0), spread=0.5):
    """Points clustered around a centre (the typical k-d tree leaf)."""
    center = np.asarray(center)
    return (center + rng.normal(0.0, spread, size=(n_points, 3))).astype(np.float32)


def _edge_values(fmt: FloatFormat) -> list:
    """Float32 inputs on every rounding edge of ``fmt``, with both signs.

    Zeros, subnormals, exact half-ULP ties (which round to even), binade
    edges that round up into the next exponent, and values that overflow
    the format to infinity.
    """
    ulp = 2.0 ** -fmt.mantissa_bits
    tiny = fmt.min_normal * ulp  # smallest subnormal
    top_ulp = 2.0 ** (fmt.max_biased_exponent - fmt.bias - fmt.mantissa_bits)
    candidates = [
        0.0, tiny, tiny / 2, 1.5 * tiny, 3 * tiny, fmt.min_normal - tiny,
        fmt.min_normal - tiny / 2, fmt.min_normal,
        1.0 + ulp / 2, 1.0 + 1.5 * ulp, 1.0 + ulp / 4, 2.0 - ulp / 4, 2.0,
        4.0 * (1 - 2.0 ** -24), 0.75, 3.0,
        fmt.max_finite, fmt.max_finite + top_ulp / 2, fmt.max_finite + top_ulp,
        fmt.max_finite * 2,
    ]
    with np.errstate(over="ignore"):
        exact = [v for v in candidates
                 if np.isfinite(np.float32(v)) and float(np.float32(v)) == v]
    return exact + [-v for v in exact]


def _as_float32(value: float) -> float:
    return float(np.float32(value))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def _leaves(draw, fmt: FloatFormat):
    """1-16-point leaves mixing edge values, any float32 and a tight cluster."""
    counts = draw(st.lists(st.integers(1, MAX_POINTS_PER_LEAF), min_size=1,
                           max_size=5))
    centre = draw(st.floats(-100.0, 100.0, width=32))
    value = st.one_of(
        st.sampled_from(_edge_values(fmt)),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.builds(_as_float32, st.floats(centre - 0.5, centre + 0.5)),
    )
    n = 3 * sum(counts)
    points = np.array(draw(st.lists(value, min_size=n, max_size=n)),
                      dtype=np.float32).reshape(-1, 3)
    return points, counts


class TestCompressLeaf:
    def test_lossless_wrt_fp16(self, rng):
        points = _nearby_leaf(rng)
        compressed = compress_leaf(points)
        decoded = decompress_leaf(compressed)
        expected = points.astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(decoded, expected)

    def test_bit_patterns_roundtrip(self, rng):
        points = _nearby_leaf(rng, n_points=9)
        compressed = compress_leaf(points)
        bits = decompress_leaf_bits(compressed)
        expected = points.astype(np.float16).view(np.uint16).astype(np.uint32)
        np.testing.assert_array_equal(bits, expected)

    def test_flags_set_when_sign_exponent_shared(self, rng):
        # x in [16,32) and y in [-16,-8): both share sign+exponent; z spans binades.
        points = np.column_stack([
            rng.uniform(17.0, 31.0, 12),
            rng.uniform(-15.0, -9.0, 12),
            rng.uniform(0.3, 3.0, 12),
        ]).astype(np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags[0] is True
        assert compressed.flags[1] is True
        assert compressed.flags[2] is False

    def test_flags_clear_when_values_span_binades(self):
        points = np.array([[1.0, 1.0, 1.0], [100.0, -1.0, 3.0]], dtype=np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (False, False, False)

    def test_single_point_always_fully_shared(self):
        points = np.array([[3.0, -4.0, 0.5]], dtype=np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (True, True, True)

    def test_size_is_whole_slices(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng))
        assert compressed.size_bytes % ZIPPTS_SLICE_BYTES == 0
        assert compressed.n_slices == compressed.size_bytes // ZIPPTS_SLICE_BYTES

    def test_payload_bits_match_formula(self, rng):
        points = _nearby_leaf(rng, n_points=11)
        compressed = compress_leaf(points)
        assert compressed.payload_bits == compressed_size_bits(11, compressed.flags)

    def test_fifteen_point_leaf_bounded_by_six_slices(self, rng):
        """Even with no sharing, a full PCL leaf needs at most 6 x 128-bit slices."""
        compressed = compress_leaf(_nearby_leaf(rng, n_points=15))
        assert compressed.n_slices <= 6

    def test_fully_shared_fifteen_point_leaf_fits_four_slices(self):
        """With all three coordinates shared, a 15-point leaf fits 4 slices (59 B)."""
        rng = np.random.default_rng(17)
        points = (np.array([20.0, -10.0, 1.5])
                  + rng.uniform(-0.2, 0.2, size=(15, 3))).astype(np.float32)
        compressed = compress_leaf(points)
        assert compressed.flags == (True, True, True)
        assert compressed.n_slices == 4

    def test_compression_beats_baseline_for_full_leaf(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=15))
        assert compressed.compression_ratio(baseline_bytes_per_point=16) < 0.5

    def test_compression_ratio_empty_baseline(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=2))
        assert compressed.compression_ratio(baseline_bytes_per_point=16) > 0.0

    def test_empty_leaf_rejected(self):
        with pytest.raises(ValueError):
            compress_leaf(np.empty((0, 3), dtype=np.float32))

    def test_oversized_leaf_rejected(self, rng):
        with pytest.raises(ValueError):
            compress_leaf(_nearby_leaf(rng, n_points=MAX_POINTS_PER_LEAF + 1))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            compress_leaf(np.zeros((4, 2), dtype=np.float32))

    def test_other_format(self, rng):
        points = _nearby_leaf(rng, n_points=6)
        compressed = compress_leaf(points, BFLOAT16)
        decoded = decompress_leaf(compressed, BFLOAT16)
        expected = BFLOAT16.quantize_array(points.astype(np.float64))
        np.testing.assert_array_equal(decoded, expected)

    def test_format_mismatch_on_decompress_rejected(self, rng):
        compressed = compress_leaf(_nearby_leaf(rng, n_points=4))
        with pytest.raises(ValueError):
            decompress_leaf(compressed, BFLOAT16)


class TestCompressedSizeBits:
    def test_all_shared(self):
        # 3 flags + 15*3*10 mantissa + 3*6 shared sign/exp = 471 bits.
        assert compressed_size_bits(15, (True, True, True)) == 471

    def test_none_shared(self):
        # 3 + 450 + 15*3*6 = 723 bits.
        assert compressed_size_bits(15, (False, False, False)) == 723

    def test_sharing_monotonically_reduces_size(self):
        sizes = [
            compressed_size_bits(15, flags)
            for flags in [(False,) * 3, (True, False, False), (True, True, False), (True,) * 3]
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestPropertyRoundTrip:
    @given(
        n_points=st.integers(min_value=1, max_value=16),
        center=st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-3, max_value=6),
        ),
        spread=st.floats(min_value=0.01, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_always_matches_fp16_quantisation(self, n_points, center, spread, seed):
        rng = np.random.default_rng(seed)
        points = (np.asarray(center)
                  + rng.normal(0.0, spread, size=(n_points, 3))).astype(np.float32)
        compressed = compress_leaf(points)
        decoded = decompress_leaf(compressed)
        expected = points.astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(decoded, expected)
        assert compressed.n_points == n_points
        assert compressed.size_bytes % ZIPPTS_SLICE_BYTES == 0

    @pytest.mark.parametrize("fmt", REDUCED_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_matches_quantisation_on_edges(self, fmt, data):
        points, counts = data.draw(_leaves(fmt))
        leaf = points[:counts[0]]
        decoded = decompress_leaf(compress_leaf(leaf, fmt), fmt)
        expected = fmt.quantize_array(leaf.astype(np.float64))
        np.testing.assert_array_equal(_bits(decoded), _bits(expected))

    @pytest.mark.parametrize("fmt", REDUCED_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tree_encoder_matches_scalar_codec(self, fmt, data):
        """compress_leaves writes compress_leaf's bytes; its mirror holds
        decompress_leaf's values and their Eq. 6 bounds, bit for bit."""
        points, counts = data.draw(_leaves(fmt))
        mirror = LeafMirror.allocate(len(points), len(counts), fmt)
        packed = compress_leaves(points, counts, mirror, fmt)
        starts = np.concatenate(([0], np.cumsum(counts)))
        blob = b""
        for i, (start, stop) in enumerate(zip(starts, starts[1:])):
            leaf = compress_leaf(points[start:stop], fmt)
            blob += leaf.data
            assert packed.data[packed.offsets[i]:packed.offsets[i + 1]] == leaf.data
            assert tuple(packed.flags[i].tolist()) == leaf.flags
            assert packed.payload_bits[i] == leaf.payload_bits
            assert (packed.offsets[i + 1] - packed.offsets[i]) \
                // ZIPPTS_SLICE_BYTES == leaf.n_slices
            decoded = decompress_leaf(leaf, fmt)
            reduced, max_delta = mirror.leaf(i)
            np.testing.assert_array_equal(_bits(reduced), _bits(decoded))
            np.testing.assert_array_equal(
                _bits(max_delta),
                _bits(reduced_precision_max_delta(decoded, fmt)))
        assert packed.data == blob
        np.testing.assert_array_equal(mirror.starts, starts)


class TestCompressLeaves:
    @pytest.mark.parametrize("counts", [[MAX_POINTS_PER_LEAF + 1, 3], [0, 20], [10, 9]])
    def test_rejects_what_compress_leaf_rejects(self, rng, counts):
        points = _nearby_leaf(rng, n_points=20)
        mirror = LeafMirror.allocate(20, 2, FLOAT16)
        with pytest.raises(ValueError):
            compress_leaves(points, counts, mirror)
        with pytest.raises(ValueError):
            compress_leaves(points[:, :2], [10, 10], mirror)

    def test_chunked_encoding_matches_one_leaf_at_a_time(self, rng, monkeypatch):
        """Leaves split across encoding chunks pack exactly like the rest."""
        from repro.core import leaf_compression

        monkeypatch.setattr(leaf_compression, "ENCODE_CHUNK_LEAVES", 3)
        counts = [15, 1, 16, 7, 9, 2, 11]
        points = np.vstack([_nearby_leaf(rng, n, center=(5.0 * i, -2.0, 0.5))
                            for i, n in enumerate(counts)])
        packed = compress_leaves(points, counts,
                                 LeafMirror.allocate(len(points), len(counts), FLOAT16))
        starts = np.cumsum([0] + counts)
        assert packed.data == b"".join(
            compress_leaf(points[a:b]).data for a, b in zip(starts, starts[1:]))

    def test_float32_format_mirror_is_float64(self):
        """2**-150, FLOAT32's smallest bound, is no float32: keep float64."""
        from repro.core.floatfmt import FLOAT32

        assert LeafMirror.dtype(FLOAT32) == np.float64
        assert all(LeafMirror.dtype(fmt) == np.float32 for fmt in REDUCED_FORMATS)

    def test_float32_bounds_square_in_float64(self):
        """bfloat16's smallest bound, 2**-134, is a float32 whose square is not."""
        from repro.runtime.kernels import shell_error_bound

        max_delta = np.full((1, 3), 2.0 ** -134, dtype=np.float32)
        assert shell_error_bound(np.zeros((1, 3)), max_delta)[0] == 3 * 2.0 ** -268
