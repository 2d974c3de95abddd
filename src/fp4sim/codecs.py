"""Bit-exact codecs for the narrow floating-point formats used in block scaling.

Three formats appear in the 4-bit pipelines: E2M1 for the tensor elements,
E4M3 for fractional block scales, and UE8M0 for power-of-two block scales.
Encoders and decoders are vectorized over numpy arrays and compute in
binary64; all are pure functions.

E2M1 layout: 1 sign / 2 exponent / 1 mantissa, bias 1, no infinities or NaNs.
The sixteen codes decode to {+-0, +-0.5, +-1, +-1.5, +-2, +-3, +-4, +-6};
code = sign<<3 | magnitude_index.

E4M3 layout: 1 sign / 4 exponent / 3 mantissa, bias 7, subnormals at e=0,
max finite 448, single NaN pattern at e=15, m=7 (no infinities).

UE8M0: unsigned pure power of two, value 2**(code - 127).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream_key, uniforms_at


class QuantizationError(ValueError):
    pass


class NonFiniteInputError(QuantizationError):
    pass


class ScaleRangeError(QuantizationError):
    pass


class InvalidCodeError(QuantizationError):
    pass


# --- E2M1 ------------------------------------------------------------------

_E2M1_POSITIVE = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
E2M1_VALUES = np.concatenate([_E2M1_POSITIVE, -_E2M1_POSITIVE])
E2M1_VALUES[8] = 0.0  # both signed zeros decode to +0.0
E2M1_VALUES.setflags(write=False)
E2M1_MAX = 6.0

# All representable values in ascending order, zero listed once.
E2M1_GRID = np.sort(np.concatenate([-_E2M1_POSITIVE[1:], _E2M1_POSITIVE]))
E2M1_GRID.setflags(write=False)


@dataclass(frozen=True)
class NearestEven:
    """Deterministic round-to-nearest; ties go to the even mantissa code."""


@dataclass(frozen=True)
class Stochastic:
    """Counter-based stochastic rounding.

    key_parts names the stream; the uniform used for element i depends only
    on (key_parts, i), never on evaluation order or batching.
    """

    key_parts: tuple

    def key(self) -> np.ndarray:
        return stream_key(*self.key_parts)


NEAREST = NearestEven()

RoundingMode = NearestEven | Stochastic


def check_finite(x: np.ndarray, where: str = "") -> None:
    """Raise NonFiniteInputError naming the first NaN or infinity of x by its
    row-major flat index and value; where, if given, prefixes the message."""
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite.reshape(-1)))
        raise NonFiniteInputError(f"{where}non-finite value at flat index {i}: "
                                  f"{float(x.reshape(-1)[i])!r}")


def encode_e2m1(x, mode: RoundingMode = NEAREST, counters=None) -> np.ndarray:
    """Map values to 4-bit codes.

    Nearest-even: magnitudes above 6 saturate to +-6; ties between adjacent
    codes resolve toward the even mantissa bit.  Stochastic: rounds via
    sr_round using the given counter array (element positions by default).
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    return _encode_e2m1(x, mode, counters)


def _encode_e2m1(x: np.ndarray, mode: RoundingMode, counters) -> np.ndarray:
    """encode_e2m1 of a float64 array the caller has checked to be finite;
    only sr_round checks again."""
    if isinstance(mode, Stochastic):
        x = sr_round(x, mode, counters=counters)
    m = np.abs(x)
    # Cumulative threshold walk; the >=/> alternation encodes ties-to-even:
    # 0.25 -> 0.0, 0.75 -> 1.0, 1.25 -> 1.0, 1.75 -> 2.0, 2.5 -> 2.0,
    # 3.5 -> 4.0, 5.0 -> 4.0.
    idx = (m > 0.25).astype(np.uint8)
    idx += m >= 0.75
    idx += m > 1.25
    idx += m >= 1.75
    idx += m > 2.5
    idx += m >= 3.5
    idx += m > 5.0
    idx |= (np.signbit(x) & (idx > 0)).astype(np.uint8) << 3
    return idx


def decode_e2m1(codes) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > 15):
        raise InvalidCodeError("E2M1 codes must be 4-bit patterns")
    return E2M1_VALUES[codes]


def sr_round(x, stream: Stochastic, counters=None) -> np.ndarray:
    """Stochastic rounding onto the signed E2M1 grid; returns grid values.

    Bracket x between adjacent grid points lo <= x <= hi and pick hi with
    probability (x - lo) / (hi - lo), so the expectation equals x.  Exact
    grid points are returned unchanged; magnitudes beyond 6 clamp first.
    The element at counter c consumes the stream uniform at position c.
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    xc = np.clip(x, -E2M1_MAX, E2M1_MAX)
    j = (xc >= E2M1_GRID[0]).astype(np.uint8)  # grid[j-1] <= xc < grid[j]
    for point in E2M1_GRID[1:]:
        j += xc >= point
    lo = E2M1_GRID[j - 1]
    hi = E2M1_GRID[np.minimum(j, len(E2M1_GRID) - 1)]
    width = hi - lo
    p_hi = np.where(width > 0, (xc - lo) / np.where(width > 0, width, 1.0), 0.0)
    if counters is None:
        counters = np.arange(x.size, dtype=np.int64).reshape(x.shape)
    u = uniforms_at(stream.key(), counters)
    return np.where(u < p_hi, hi, lo)


# --- E4M3 ------------------------------------------------------------------

def _e4m3_table() -> np.ndarray:
    codes = np.arange(256)
    e = (codes >> 3) & 0xF
    m = codes & 0x7
    v = np.where(e == 0, np.ldexp(m.astype(np.float64), -9),
                 np.ldexp(1.0 + m / 8.0, e - 7))
    v = np.where(codes >> 7 == 1, -v, v)
    v[(e == 15) & (m == 7)] = np.nan
    return v


E4M3_VALUES = _e4m3_table()
E4M3_VALUES.setflags(write=False)
_E4M3_POS_GRID = E4M3_VALUES[:127]  # finite non-negative values, ascending
E4M3_MAX = 448.0
E4M3_SMALLEST_POSITIVE = 2.0 ** -9
E4M3_SMALLEST_POSITIVE_CODE = 0x01


def encode_e4m3(x) -> np.ndarray:
    """Round-to-nearest-even onto the E4M3 grid; |x| > 448 saturates to
    +-448 rather than producing the NaN code.  Zero encodes as +0."""
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    return _encode_e4m3(x)


def _encode_e4m3(x: np.ndarray) -> np.ndarray:
    """encode_e4m3 of a float64 array the caller has checked to be finite."""
    mag = np.abs(x)
    j = np.searchsorted(_E4M3_POS_GRID, mag)  # grid[j-1] < mag <= grid[j]
    lo = np.maximum(j - 1, 0)
    hi = np.minimum(j, len(_E4M3_POS_GRID) - 1)
    d_lo = mag - _E4M3_POS_GRID[lo]
    d_hi = _E4M3_POS_GRID[hi] - mag
    idx = np.where(d_hi < d_lo, hi, lo)
    tie = d_hi == d_lo
    idx = np.where(tie, np.where(lo % 2 == 0, lo, hi), idx)
    idx = np.where(mag > E4M3_MAX, 126, idx)
    neg = np.signbit(x) & (idx > 0)
    return (idx + (neg.astype(np.int64) << 7)).astype(np.uint8)


def decode_e4m3(codes) -> np.ndarray:
    """Decode E4M3 codes; the NaN patterns (0x7F / 0xFF) are rejected
    because a NaN block scale can never be produced by the encoder."""
    codes = np.asarray(codes)
    if np.any((codes & 0x7F) == 0x7F):
        raise InvalidCodeError("E4M3 NaN code cannot be decoded as a scale")
    return E4M3_VALUES[codes]


# --- UE8M0 -----------------------------------------------------------------

def encode_ue8m0_roundup(x) -> np.ndarray:
    """Encode the smallest power of two >= x (round-up in log space).

    Values below 2**-127 clamp to the smallest code; x <= 0, NaN, or
    x > 2**127 raise ScaleRangeError.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise ScaleRangeError("UE8M0 scales must be positive")
    frac, ex = np.frexp(x)  # x = frac * 2**ex, frac in [0.5, 1)
    exp = np.where(frac == 0.5, ex - 1, ex)
    exp = np.maximum(exp, -127)
    if np.any(exp > 127):
        raise ScaleRangeError("UE8M0 scale exceeds 2**127")
    return (exp + 127).astype(np.uint8)


def decode_ue8m0(codes) -> np.ndarray:
    codes = np.asarray(codes)
    return np.ldexp(1.0, codes.astype(np.int64) - 127)
