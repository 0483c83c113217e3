"""Binary floating-point formats used by K-D Bonsai.

The paper (Section III-B, Table I) compares four formats for storing the
coordinates of k-d tree leaf points:

* IEEE-754 single precision (32-bit) -- the baseline used by PCL/Autoware.
* IEEE-754 half precision (16-bit) -- the format chosen by K-D Bonsai.
* bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
* a custom 24-bit float (1 sign, 5 exponent, 18 mantissa bits).

This module provides a generic :class:`FloatFormat` codec implementing
round-to-nearest-even conversion from Python/NumPy floats into the packed
integer representation of any such format, plus field extraction helpers used
by the value-similarity compression (sign/exponent sharing) and by the error
model (the exponent of the reduced value bounds the rounding error).

The codec is deliberately explicit (bit manipulation on integers) rather than
relying on ``numpy.float16`` so that the same code path supports bfloat16 and
the custom 24-bit format, and so that tests can cross-check the generic
implementation against NumPy's native half-precision conversion.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

__all__ = [
    "FloatFormat",
    "FLOAT32",
    "FLOAT16",
    "BFLOAT16",
    "FLOAT24",
    "FORMATS_BY_NAME",
    "float32_bits",
    "bits_to_float32",
    "decompose_float32",
]


def float32_bits(value: float) -> int:
    """Return the 32-bit IEEE-754 pattern of ``value`` as an unsigned int."""
    return struct.unpack("<I", struct.pack("<f", np.float32(value)))[0]


def bits_to_float32(bits: int) -> float:
    """Return the float whose 32-bit IEEE-754 pattern is ``bits``."""
    return float(struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0])


def decompose_float32(value: float) -> Tuple[int, int, int]:
    """Split ``value`` into its 32-bit (sign, exponent, mantissa) fields.

    Returns the raw biased exponent (0..255) and the 23-bit mantissa field,
    mirroring Figure 3b of the paper.
    """
    bits = float32_bits(value)
    sign = (bits >> 31) & 0x1
    exponent = (bits >> 23) & 0xFF
    mantissa = bits & 0x7FFFFF
    return sign, exponent, mantissa


@dataclass(frozen=True)
class FloatFormat:
    """A binary floating-point format with explicit field widths.

    Attributes
    ----------
    name:
        Human readable identifier (used in reports and benchmarks).
    exponent_bits:
        Width of the biased exponent field.
    mantissa_bits:
        Width of the stored (fractional) mantissa field.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int

    @property
    def sign_bits(self) -> int:
        """Width of the sign field (always one bit)."""
        return 1

    @property
    def total_bits(self) -> int:
        """Total storage width of the format in bits."""
        return self.sign_bits + self.exponent_bits + self.mantissa_bits

    @property
    def total_bytes(self) -> int:
        """Storage width rounded up to whole bytes."""
        return (self.total_bits + 7) // 8

    @property
    def bias(self) -> int:
        """Exponent bias (``2**(e-1) - 1``)."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_biased_exponent(self) -> int:
        """Largest finite biased exponent value (all-ones is inf/NaN)."""
        return (1 << self.exponent_bits) - 2

    @property
    def max_finite(self) -> float:
        """Largest finite magnitude representable in the format."""
        max_mantissa = (1 << self.mantissa_bits) - 1
        significand = 1.0 + max_mantissa / float(1 << self.mantissa_bits)
        return significand * 2.0 ** (self.max_biased_exponent - self.bias)

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude representable in the format."""
        return 2.0 ** (1 - self.bias)

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, value: float) -> int:
        """Encode ``value`` into the packed integer representation.

        Conversion uses round-to-nearest-even (the IEEE-754 default rounding
        mode assumed by the paper's error analysis).  Values that overflow the
        format saturate to infinity; subnormals are supported.
        """
        value = float(value)
        if math.isnan(value):
            # Canonical quiet NaN: all-ones exponent, MSB of mantissa set.
            return (
                ((1 << self.exponent_bits) - 1) << self.mantissa_bits
            ) | (1 << (self.mantissa_bits - 1))

        sign = 1 if math.copysign(1.0, value) < 0 else 0
        magnitude = abs(value)

        if math.isinf(magnitude):
            return self._pack(sign, (1 << self.exponent_bits) - 1, 0)
        if magnitude == 0.0:
            return self._pack(sign, 0, 0)

        mantissa, exponent = math.frexp(magnitude)  # magnitude = mantissa * 2**exponent
        # frexp returns mantissa in [0.5, 1.0); IEEE uses [1.0, 2.0).
        exponent -= 1
        significand = mantissa * 2.0  # in [1.0, 2.0)

        biased = exponent + self.bias
        if biased >= (1 << self.exponent_bits) - 1:
            # Overflow: saturate to infinity.
            return self._pack(sign, (1 << self.exponent_bits) - 1, 0)

        if biased <= 0:
            # Subnormal: shift the significand right until the exponent is 1.
            shift = 1 - biased
            if shift > self.mantissa_bits + 1:
                # Too small even for the largest subnormal: underflows to zero.
                return self._pack(sign, 0, 0)
            scaled = math.ldexp(significand, self.mantissa_bits - shift)
            frac = self._round_half_even(scaled)
            if frac >= (1 << self.mantissa_bits):
                # Rounded up into the smallest normal.
                return self._pack(sign, 1, 0)
            return self._pack(sign, 0, frac)

        frac_scaled = (significand - 1.0) * (1 << self.mantissa_bits)
        frac = self._round_half_even(frac_scaled)
        if frac == (1 << self.mantissa_bits):
            frac = 0
            biased += 1
            if biased >= (1 << self.exponent_bits) - 1:
                return self._pack(sign, (1 << self.exponent_bits) - 1, 0)
        return self._pack(sign, biased, frac)

    def decode(self, bits: int) -> float:
        """Decode a packed integer representation back into a Python float."""
        sign, exponent, mantissa = self.split(bits)
        sign_factor = -1.0 if sign else 1.0
        all_ones = (1 << self.exponent_bits) - 1
        if exponent == all_ones:
            if mantissa:
                return float("nan")
            return sign_factor * float("inf")
        if exponent == 0:
            value = mantissa / float(1 << self.mantissa_bits)
            return sign_factor * value * 2.0 ** (1 - self.bias)
        significand = 1.0 + mantissa / float(1 << self.mantissa_bits)
        return sign_factor * significand * 2.0 ** (exponent - self.bias)

    def round_trip(self, value: float) -> float:
        """Encode then decode ``value`` (the value "as stored" in the format)."""
        return self.decode(self.encode(value))

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode` of an arbitrary-shaped array (``uint64``).

        Bit for bit the scalar codec: round-to-nearest-even, subnormals,
        overflow to infinity, signed zeros and the canonical NaN.  Works on
        the exact integer significand of each float64 (formats with at most
        52 mantissa bits).
        """
        shape = np.shape(values)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        mb = self.mantissa_bits
        all_ones = (1 << self.exponent_bits) - 1
        finite = np.isfinite(values)
        fraction, exponent = np.frexp(np.where(finite, np.abs(values), 0.0))
        # 54-bit integer significand: fraction in [0.5, 1) -> [2**53, 2**54).
        significand = np.ldexp(fraction, 54).astype(np.uint64)
        biased = exponent.astype(np.int64) - 1 + self.bias
        # Subnormals (biased <= 0) keep exponent field 0 and shift further
        # right; past 55 bits every significand rounds to zero.
        effective = np.maximum(biased, 1)
        shift = np.minimum(53 - mb + effective - biased, 55).astype(np.uint64)
        kept = significand >> shift
        rest = significand & ((np.uint64(1) << shift) - np.uint64(1))
        half = np.uint64(1) << (shift - np.uint64(1))
        kept += (rest > half) | ((rest == half) & ((kept & np.uint64(1)) == 1))
        # Adding the rounded significand (implicit bit included) to the
        # exponent field lets a round-up carry into the next binade, or
        # into infinity, exactly as the scalar codec does.
        packed = ((effective - 1) << mb).astype(np.uint64) + kept
        packed[biased >= all_ones] = all_ones << mb
        packed[values == 0.0] = 0
        packed[np.isinf(values)] = all_ones << mb
        packed |= np.signbit(values).astype(np.uint64) << np.uint64(
            mb + self.exponent_bits)
        packed[np.isnan(values)] = (all_ones << mb) | (1 << (mb - 1))
        return packed.reshape(shape)

    def decode_array(self, bits: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode` of packed patterns (float64, same shape)."""
        shape = np.shape(bits)
        bits = np.asarray(bits, dtype=np.uint64).reshape(-1)
        mb = self.mantissa_bits
        all_ones = (1 << self.exponent_bits) - 1
        mantissa = bits & np.uint64((1 << mb) - 1)
        exponent = ((bits >> np.uint64(mb)) & np.uint64(all_ones)).astype(np.int64)
        significand = mantissa | ((exponent != 0).astype(np.uint64) << np.uint64(mb))
        values = np.ldexp(significand.astype(np.float64),
                          np.maximum(exponent, 1) - self.bias - mb)
        values[exponent == all_ones] = np.inf
        negative = ((bits >> np.uint64(mb + self.exponent_bits)) & np.uint64(1)) == 1
        values[negative] = -values[negative]
        # The scalar codec decodes every NaN pattern to the positive NaN.
        values[(exponent == all_ones) & (mantissa != 0)] = np.nan
        return values.reshape(shape)

    def quantize(self, values: Iterable[float]) -> np.ndarray:
        """Round-trip an iterable of values, returned as float64 ndarray."""
        return np.array([self.round_trip(v) for v in values], dtype=np.float64)

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised round-trip of an arbitrary-shaped float array.

        Bit-exact with the scalar path (:meth:`round_trip`) for every format.
        """
        return self.decode_array(self.encode_array(values))

    # ------------------------------------------------------------------
    # Field helpers
    # ------------------------------------------------------------------
    def split(self, bits: int) -> Tuple[int, int, int]:
        """Split packed ``bits`` into (sign, biased exponent, mantissa)."""
        mask = (1 << self.total_bits) - 1
        bits &= mask
        mantissa = bits & ((1 << self.mantissa_bits) - 1)
        exponent = (bits >> self.mantissa_bits) & ((1 << self.exponent_bits) - 1)
        sign = (bits >> (self.mantissa_bits + self.exponent_bits)) & 0x1
        return sign, exponent, mantissa

    def sign_exponent(self, bits: int) -> int:
        """Return the concatenated <sign, exponent> field of packed ``bits``.

        This is the unit of sharing in value-similarity compression
        (Section III-A / Figure 6 of the paper).
        """
        sign, exponent, _ = self.split(bits)
        return (sign << self.exponent_bits) | exponent

    def mantissa(self, bits: int) -> int:
        """Return the mantissa field of packed ``bits``."""
        return bits & ((1 << self.mantissa_bits) - 1)

    def biased_exponent(self, bits: int) -> int:
        """Return the biased exponent field of packed ``bits``."""
        _, exponent, _ = self.split(bits)
        return exponent

    def ulp(self, bits: int) -> float:
        """Unit in the last place of the encoded value (normal numbers)."""
        _, exponent, _ = self.split(bits)
        if exponent == 0:
            exponent = 1
        return 2.0 ** (exponent - self.bias - self.mantissa_bits)

    def max_rounding_error(self, bits: int) -> float:
        """Worst-case |rounding error| when a wider value was stored as ``bits``.

        This is Eq. 6 of the paper generalised to any mantissa width: half an
        ULP of the destination format, computed from the exponent field alone.
        """
        return 0.5 * self.ulp(bits)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pack(self, sign: int, exponent: int, mantissa: int) -> int:
        return (
            (sign << (self.mantissa_bits + self.exponent_bits))
            | (exponent << self.mantissa_bits)
            | mantissa
        )

    @staticmethod
    def _round_half_even(value: float) -> int:
        floor = math.floor(value)
        diff = value - floor
        if diff > 0.5:
            return int(floor) + 1
        if diff < 0.5:
            return int(floor)
        return int(floor) + (int(floor) & 1)


FLOAT32 = FloatFormat(name="ieee_fp32", exponent_bits=8, mantissa_bits=23)
FLOAT16 = FloatFormat(name="ieee_fp16", exponent_bits=5, mantissa_bits=10)
BFLOAT16 = FloatFormat(name="bfloat16", exponent_bits=8, mantissa_bits=7)
FLOAT24 = FloatFormat(name="float24", exponent_bits=5, mantissa_bits=18)

FORMATS_BY_NAME = {
    fmt.name: fmt for fmt in (FLOAT32, FLOAT16, BFLOAT16, FLOAT24)
}


def table1_formats() -> List[FloatFormat]:
    """The reduced formats compared in Table I of the paper."""
    return [FLOAT16, BFLOAT16, FLOAT24]
