"""Tests of the binary floating-point format codec."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floatfmt import (
    BFLOAT16,
    FLOAT16,
    FLOAT24,
    FLOAT32,
    FORMATS_BY_NAME,
    FloatFormat,
    bits_to_float32,
    decompose_float32,
    float32_bits,
    table1_formats,
)

ALL_FORMATS = [FLOAT32, FLOAT16, BFLOAT16, FLOAT24]

#: Values inside the HDL-64E operating range (the domain the paper cares about).
lidar_values = st.floats(min_value=-120.0, max_value=120.0,
                         allow_nan=False, allow_infinity=False)


class TestFormatGeometry:
    def test_float32_geometry(self):
        assert FLOAT32.total_bits == 32
        assert FLOAT32.bias == 127
        assert FLOAT32.mantissa_bits == 23

    def test_float16_geometry(self):
        assert FLOAT16.total_bits == 16
        assert FLOAT16.bias == 15
        assert FLOAT16.exponent_bits == 5
        assert FLOAT16.mantissa_bits == 10

    def test_bfloat16_geometry(self):
        assert BFLOAT16.total_bits == 16
        assert BFLOAT16.exponent_bits == 8
        assert BFLOAT16.mantissa_bits == 7

    def test_float24_geometry(self):
        assert FLOAT24.total_bits == 24
        assert FLOAT24.exponent_bits == 5
        assert FLOAT24.mantissa_bits == 18

    def test_total_bytes(self):
        assert FLOAT16.total_bytes == 2
        assert FLOAT24.total_bytes == 3
        assert FLOAT32.total_bytes == 4

    def test_formats_by_name_contains_all(self):
        assert set(FORMATS_BY_NAME) == {"ieee_fp32", "ieee_fp16", "bfloat16", "float24"}

    def test_table1_formats_are_the_reduced_ones(self):
        names = [fmt.name for fmt in table1_formats()]
        assert names == ["ieee_fp16", "bfloat16", "float24"]

    def test_max_finite_fp16(self):
        assert FLOAT16.max_finite == pytest.approx(65504.0)

    def test_min_normal_fp16(self):
        assert FLOAT16.min_normal == pytest.approx(2.0 ** -14)

    def test_max_finite_covers_lidar_range(self):
        # The HDL-64E range (120 m) must be representable in every format.
        for fmt in ALL_FORMATS:
            assert fmt.max_finite > 120.0


class TestBitHelpers:
    def test_float32_bits_roundtrip(self):
        for value in (0.0, 1.0, -2.5, 130.25, -0.0078125):
            assert bits_to_float32(float32_bits(value)) == value

    def test_decompose_float32_example_from_paper(self):
        # Figure 3b: values in [8, 16) have biased exponent 130.
        sign, exponent, _ = decompose_float32(8.2)
        assert sign == 0
        assert exponent == 130
        sign, exponent, _ = decompose_float32(-4.8)
        assert sign == 1
        assert exponent == 129

    def test_decompose_zero(self):
        assert decompose_float32(0.0) == (0, 0, 0)


class TestEncodeDecode:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_zero(self, fmt):
        assert fmt.decode(fmt.encode(0.0)) == 0.0

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_negative_zero_keeps_sign(self, fmt):
        bits = fmt.encode(-0.0)
        sign, exponent, mantissa = fmt.split(bits)
        assert (sign, exponent, mantissa) == (1, 0, 0)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_one(self, fmt):
        assert fmt.decode(fmt.encode(1.0)) == 1.0

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_powers_of_two_are_exact(self, fmt):
        for exponent in range(-5, 7):
            value = 2.0 ** exponent
            assert fmt.round_trip(value) == value
            assert fmt.round_trip(-value) == -value

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_infinity(self, fmt):
        assert math.isinf(fmt.decode(fmt.encode(float("inf"))))
        assert fmt.decode(fmt.encode(float("-inf"))) == float("-inf")

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_nan(self, fmt):
        assert math.isnan(fmt.decode(fmt.encode(float("nan"))))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_overflow_saturates_to_infinity(self, fmt):
        huge = fmt.max_finite * 4.0
        assert math.isinf(fmt.decode(fmt.encode(huge)))

    def test_fp16_subnormal_roundtrip(self):
        smallest_subnormal = 2.0 ** -24
        assert FLOAT16.round_trip(smallest_subnormal) == smallest_subnormal

    def test_fp16_underflow_to_zero(self):
        assert FLOAT16.round_trip(1e-12) == 0.0

    def test_fp32_roundtrip_is_exact_for_float32_values(self, rng):
        values = rng.uniform(-100, 100, size=200).astype(np.float32)
        for value in values:
            assert FLOAT32.round_trip(float(value)) == float(value)

    def test_known_fp16_encodings(self):
        # Reference patterns from the IEEE-754 half precision standard.
        assert FLOAT16.encode(1.0) == 0x3C00
        assert FLOAT16.encode(-2.0) == 0xC000
        assert FLOAT16.encode(65504.0) == 0x7BFF
        assert FLOAT16.encode(0.5) == 0x3800

    def test_round_to_nearest_even(self):
        # 2049 is exactly halfway between 2048 and 2050 in fp16; round to even (2048).
        assert FLOAT16.round_trip(2049.0) == 2048.0
        # 2051 is halfway between 2050 and 2052; round to even (2052).
        assert FLOAT16.round_trip(2051.0) == 2052.0


class TestAgainstNumpy:
    @given(lidar_values)
    @settings(max_examples=300, deadline=None)
    def test_fp16_matches_numpy_half(self, value):
        expected = float(np.float64(np.float16(np.float64(value))))
        assert FLOAT16.round_trip(value) == expected

    @given(lidar_values)
    @settings(max_examples=200, deadline=None)
    def test_fp16_bits_match_numpy(self, value):
        expected_bits = int(np.float16(value).view(np.uint16))
        assert FLOAT16.encode(value) == expected_bits

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fp32_matches_numpy_single(self, value):
        expected = float(np.float64(np.float32(value)))
        assert FLOAT32.round_trip(value) == expected


class TestRoundingErrorBound:
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16, FLOAT24], ids=lambda f: f.name)
    @given(value=lidar_values)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_error_within_half_ulp(self, fmt, value):
        stored = fmt.round_trip(value)
        if math.isinf(stored):
            return
        bits = fmt.encode(value)
        bound = fmt.max_rounding_error(bits)
        assert abs(stored - value) <= bound + 1e-30

    def test_ulp_of_one(self):
        assert FLOAT16.ulp(FLOAT16.encode(1.0)) == 2.0 ** -10

    def test_max_rounding_error_is_half_ulp(self):
        bits = FLOAT16.encode(100.0)
        assert FLOAT16.max_rounding_error(bits) == pytest.approx(FLOAT16.ulp(bits) / 2)


class TestFieldExtraction:
    def test_sign_exponent_field_width(self):
        bits = FLOAT16.encode(-12.5)
        se = FLOAT16.sign_exponent(bits)
        assert 0 <= se < (1 << 6)

    def test_sign_exponent_shared_for_same_binade(self):
        # All values in [8, 16) share the same sign/exponent (paper Fig. 3).
        references = [8.0, 9.7, 12.4, 12.9, 15.99]
        fields = {FLOAT16.sign_exponent(FLOAT16.encode(v)) for v in references}
        assert len(fields) == 1

    def test_sign_exponent_differs_across_binades(self):
        a = FLOAT16.sign_exponent(FLOAT16.encode(7.9))
        b = FLOAT16.sign_exponent(FLOAT16.encode(8.1))
        assert a != b

    def test_split_reassembles(self):
        for value in (-33.25, 0.1875, 119.0):
            bits = FLOAT16.encode(value)
            sign, exponent, mantissa = FLOAT16.split(bits)
            reassembled = (sign << 15) | (exponent << 10) | mantissa
            assert reassembled == bits

    def test_mantissa_and_exponent_accessors(self):
        bits = FLOAT16.encode(3.0)  # 1.5 * 2^1 -> exponent 16, mantissa 0b1000000000
        assert FLOAT16.biased_exponent(bits) == 16
        assert FLOAT16.mantissa(bits) == 1 << 9


class TestQuantizeArrays:
    def test_quantize_matches_scalar(self, rng):
        values = rng.uniform(-60, 60, size=32)
        array = FLOAT16.quantize(values)
        for value, quantised in zip(values, array):
            assert quantised == FLOAT16.round_trip(float(value))

    def test_quantize_array_shape_preserved(self, rng):
        values = rng.uniform(-60, 60, size=(7, 3))
        out = FLOAT16.quantize_array(values)
        assert out.shape == values.shape

    def test_quantize_array_fp16_fast_path_matches_generic(self, rng):
        values = rng.uniform(-60, 60, size=(5, 3))
        fast = FLOAT16.quantize_array(values)
        slow = np.array([[FLOAT16.round_trip(float(v)) for v in row] for row in values])
        np.testing.assert_array_equal(fast, slow)

    def test_quantize_array_bfloat16(self, rng):
        values = rng.uniform(-60, 60, size=(4, 3))
        out = BFLOAT16.quantize_array(values)
        for row_in, row_out in zip(values, out):
            for value, quantised in zip(row_in, row_out):
                assert quantised == BFLOAT16.round_trip(float(value))


def _edges(fmt: FloatFormat) -> list:
    """Signed zeros, subnormals, half-ULP ties, binade edges, overflow."""
    ulp = 2.0 ** -fmt.mantissa_bits
    tiny = fmt.min_normal * ulp
    top = fmt.max_finite
    magnitudes = [0.0, tiny, tiny / 2, tiny / 2 * 3, tiny / 4, fmt.min_normal,
                  fmt.min_normal * (1 - ulp / 2), 1.0 + ulp / 2, 1.0 + ulp * 1.5,
                  2.0 * (1 - ulp / 4), top, top * (1 + ulp / 2), top * 4,
                  float("inf"), 5e-324, 1e308]
    return magnitudes + [-m for m in magnitudes] + [float("nan")]


class TestArrayCodec:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_match_scalar_bit_for_bit(self, fmt, values):
        values = np.array(values + _edges(fmt), dtype=np.float64)
        bits = fmt.encode_array(values)
        assert bits.tolist() == [fmt.encode(float(v)) for v in values]
        decoded = fmt.decode_array(bits)
        scalar = np.array([fmt.decode(int(b)) for b in bits], dtype=np.float64)
        np.testing.assert_array_equal(decoded.view(np.uint64), scalar.view(np.uint64))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_decode_every_pattern(self, fmt):
        """Every 16-bit pattern, or a sample of the wider formats'."""
        if fmt.total_bits <= 16:
            bits = np.arange(1 << fmt.total_bits, dtype=np.uint64)
        else:
            bits = np.random.default_rng(5).integers(
                0, 1 << fmt.total_bits, 4096, dtype=np.uint64)
        decoded = fmt.decode_array(bits)
        scalar = np.array([fmt.decode(int(b)) for b in bits], dtype=np.float64)
        np.testing.assert_array_equal(decoded.view(np.uint64), scalar.view(np.uint64))

    def test_shapes_preserved(self):
        assert FLOAT16.encode_array(np.zeros((2, 0, 3))).shape == (2, 0, 3)
        assert FLOAT16.decode_array(np.uint64(0x3C00)) == 1.0
        assert FLOAT16.encode_array(3.0) == FLOAT16.encode(3.0)


class TestPrecisionOrdering:
    def test_fp16_more_accurate_than_bfloat16_in_lidar_range(self, rng):
        """Table I rationale: fp16 balances range/precision better than bfloat16."""
        values = rng.uniform(-120, 120, size=500)
        err16 = np.abs(FLOAT16.quantize(values) - values).mean()
        err_bf = np.abs(BFLOAT16.quantize(values) - values).mean()
        assert err16 < err_bf

    def test_float24_more_accurate_than_fp16(self, rng):
        values = rng.uniform(-120, 120, size=500)
        err24 = np.abs(FLOAT24.quantize(values) - values).mean()
        err16 = np.abs(FLOAT16.quantize(values) - values).mean()
        assert err24 < err16
