"""Bit-exact codecs for the narrow floating-point formats used in block scaling.

Three formats appear in the 4-bit pipelines: E2M1 for the tensor elements,
E4M3 for fractional block scales, and UE8M0 for power-of-two block scales.
Encoders and decoders are vectorized over numpy arrays and compute in
binary64; all are pure functions.

The nearest-even encoders are bucket tables.  A bucket holds the binary64
values that share their top w bits: sign, exponent and the first w - 12
mantissa bits.  Each threshold between two codes is a midpoint of adjacent
values, with at most two mantissa bits for E2M1 and four for E4M3, so with
w = 14 and w = 16 it is the bottom of a bucket.  All values inside a
bucket therefore share one code; only the exact bottom can differ, where a
tie goes to the even code.  A tie flag tells the bottom apart without a
comparison: with k(b) the top w bits of the bit pattern b, k(b) + k(b - 1)
is 2k inside bucket k and 2k - 1 at its exact bottom.  So each code is one
gather from a read-only table of 2^(w+1) - 1 entries.

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

from .rng import _row_chunks, stream_key, uniforms_at


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


def check_finite(x: np.ndarray) -> None:
    """Raise NonFiniteInputError naming the first NaN or infinity of x by its
    row-major flat index and value."""
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite.reshape(-1)))
        raise NonFiniteInputError(f"non-finite value at flat index {i}: "
                                  f"{float(x.reshape(-1)[i])!r}")


def encode_e2m1(x, mode: RoundingMode = NEAREST) -> np.ndarray:
    """Map values to 4-bit codes.

    Nearest-even: magnitudes above 6 saturate to +-6; ties between adjacent
    codes resolve toward the even mantissa bit.  Stochastic: rounds via
    sr_round, so the element at row-major position i in x takes the
    stream's uniform at position i.
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    return _encode_e2m1(x, mode)


def _encode_e2m1(x: np.ndarray, mode: RoundingMode) -> np.ndarray:
    """encode_e2m1 of a float64 array the caller has checked to be finite;
    only sr_round checks again.  The codes keep the memory layout of the
    values encoded, walked flat: x's under nearest-even, sr_round's C order.

    Nearest-even codes are one gather from the bucket table _E2M1_CODES
    over buckets of top 14 bits, at k(b) + k(b - 1): the tie flag in that
    index sends a value at a bucket's exact bottom, such as the tie 2.5, to
    the bottom's own entry (module docstring).  sr_round returns E2M1 grid
    values, and each grid value is the smallest magnitude of its bucket of
    top 13 bits (as in _sr_brackets), so their codes are one gather from
    _GRID_CODES, keyed by those bits."""
    stochastic = isinstance(mode, Stochastic)
    if stochastic:
        x = sr_round(x, mode)
    elif not (x.flags.c_contiguous or x.flags.f_contiguous):
        # a copy in x's memory order, so the flat walk below reads a view
        x = x.copy(order="K")
    codes = np.empty_like(x, dtype=np.uint8)
    flat, out = x.ravel(order="K"), codes.ravel(order="K")
    for s in _row_chunks(flat):
        if stochastic:
            key = (flat[s].view(np.uint64) >> 51).view(np.int64)
            np.take(_GRID_CODES, key, out=out[s], mode="clip")
        else:
            _bucket_codes(_E2M1_CODES, flat[s], out=out[s])
    return codes if codes.ndim else codes[()]


def _bucket_table(magnitudes: np.ndarray, w: int, lo: float, hi: float,
                  sign: int) -> np.ndarray:
    """The nearest-even code table over buckets of top w bits of a codec
    whose codes 0, 1, ... decode to the ascending magnitudes, indexed by
    k(b) + k(b - 1) for the bits b of a value (module docstring): entry 2k
    is the code of the inside of bucket k, entry 2k - 1 the code of its
    bottom.

    The thresholds are the midpoints of adjacent magnitudes, and a midpoint
    goes to the even code of its two.  Magnitudes in [lo, hi), powers of
    two, are encoded; smaller ones encode to 0, larger ones saturate to the
    last code.  A negative value takes its magnitude's code with the sign
    bit set, except that zero codes stay 0.  Only the buckets in [lo, hi)
    are encoded, so the temporaries stay small; read-only.
    """
    mid = (magnitudes[:-1] + magnitudes[1:]) / 2  # exact in binary64
    even = np.arange(len(mid)) % 2 == 0
    # the smallest magnitude whose code is above k: an even k keeps its tie
    above = np.where(even, np.nextafter(mid, np.inf), mid)
    shift = 64 - w
    k_lo, k_hi = (int(np.float64(v).view(np.uint64)) >> shift for v in (lo, hi))
    bottom = (np.arange(k_lo, k_hi, dtype=np.uint64) << shift).view(np.float64)
    codes = np.zeros((2, 1 << (w - 1), 2), dtype=np.uint8)  # [sign, bucket, inside]
    pos = codes[0]
    pos[k_lo:k_hi, 0] = np.searchsorted(above, bottom, side="right")
    pos[k_lo:k_hi, 1] = np.searchsorted(above, np.nextafter(bottom, np.inf),
                                        side="right")
    pos[k_hi:] = len(mid)
    np.bitwise_or(pos, sign, out=codes[1], where=pos > 0)
    # entry j is flat entry j + 1: bucket k's bottom lands on 2k - 1
    table = codes.reshape(-1)[1:]
    table.setflags(write=False)
    return table


def _bucket_codes(table: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """Codes of the float64 array x, in its shape and C-ordered: one gather
    from a _bucket_table at k(b) + k(b - 1).  Zeros of either sign land on
    entry 2^w - 1, the bottom of the bucket of -0.0."""
    shift = np.uint64(65 - len(table).bit_length())  # 64 - w
    bits = x.ravel().view(np.uint64)
    key = bits - np.uint64(1)
    key >>= shift
    key += bits >> shift
    return table.take(key.view(np.intp).reshape(x.shape), out=out, mode="clip")


_E2M1_CODES = _bucket_table(_E2M1_POSITIVE, 14, 0.125, 8.0, 0x8)

# The codes of the E2M1 grid values, keyed by their top 13 bits (sign,
# exponent and first mantissa bit); 0 at every other key.
_GRID_CODES = np.zeros(1 << 13, dtype=np.uint8)
_GRID_CODES[E2M1_GRID.view(np.uint64) >> 51] = _bucket_codes(_E2M1_CODES, E2M1_GRID)
_GRID_CODES.setflags(write=False)


def _gather(table: np.ndarray, codes, what: str) -> np.ndarray:
    """table.take(codes); a negative code or one past the table's end
    raises InvalidCodeError(what).  Unsigned codes need no min pass."""
    codes = np.asarray(codes)
    if codes.dtype.kind == "u" or codes.size == 0 or codes.min() >= 0:
        try:
            return table.take(codes)
        except IndexError:
            pass
    raise InvalidCodeError(what)


def decode_e2m1(codes) -> np.ndarray:
    """Decode 4-bit E2M1 codes by one gather; any other integer raises
    InvalidCodeError."""
    return _gather(E2M1_VALUES, codes, "E2M1 codes must be 4-bit patterns")


def _sr_brackets() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid bracket (lo, hi) and 1 / (hi - lo) of every value, keyed by its
    top 13 bits: sign, exponent and first mantissa bit.

    Every E2M1 magnitude is the smallest magnitude of one such bucket, so
    a bucket lies within one bracket [lo, hi] of adjacent grid points.  A
    negative bucket holds magnitudes in [|hi|, |lo|), so its one grid
    point, x = hi, gets p_hi = 1 and rounds to itself, as it must.
    Magnitudes of 6 and above get lo = hi = +-6 and 1 / gap = 0, which is
    the clamp.  The gaps are powers of two, so multiplying by 1 / gap
    rounds exactly as dividing by the gap does.
    """
    key = np.arange(1 << 13, dtype=np.uint64)
    bottom = np.abs((key << 51).view(np.float64))
    pos = E2M1_GRID[E2M1_GRID >= 0]
    j = np.searchsorted(pos, bottom, side="right") - 1
    lo_mag, hi_mag = pos[j], pos[np.minimum(j + 1, len(pos) - 1)]
    neg = key >> 12 == 1
    lo = np.where(neg, -hi_mag, lo_mag)
    hi = np.where(neg, -lo_mag, hi_mag) + 0.0  # the grid holds +0.0 only
    gap = hi - lo
    inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
    for t in (lo, hi, inv_gap):
        t.setflags(write=False)
    return lo, hi, inv_gap


_SR_LO, _SR_HI, _SR_INV_GAP = _sr_brackets()


def sr_round(x, stream: Stochastic) -> np.ndarray:
    """Stochastic rounding onto the signed E2M1 grid; returns grid values,
    C-ordered whatever the layout of x.

    Bracket x between adjacent grid points lo <= x <= hi and pick hi with
    probability (x - lo) / (hi - lo), so the expectation equals x.  Exact
    grid points are returned unchanged; magnitudes beyond 6 clamp first.
    The element at row-major position i in x consumes the stream's uniform
    at position i, drawn a chunk of the flat tensor at a time.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    check_finite(x)
    key = stream.key()
    out = np.empty(x.shape)
    flat, rounded = x.reshape(-1), out.reshape(-1)
    for s in _row_chunks(flat):
        xs = flat[s]
        # a logical shift, then int64 so the gathers need no cast
        bucket = (xs.view(np.uint64) >> 51).view(np.int64)
        lo = _SR_LO.take(bucket, mode="clip")
        p_hi = xs - lo
        p_hi *= _SR_INV_GAP.take(bucket, mode="clip")
        u = uniforms_at(key, range(x.size)[s])
        rounded[s] = np.where(u < p_hi, _SR_HI.take(bucket, mode="clip"), lo)
    return out


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
E4M3_MAX = 448.0
E4M3_SMALLEST_POSITIVE = 2.0 ** -9
E4M3_SMALLEST_POSITIVE_CODE = 0x01


# Magnitudes below 2^-10 round to code 0, and from 448 on saturate to 126.
_E4M3_CODES = _bucket_table(E4M3_VALUES[:127], 16, 2.0 ** -11, 2.0 ** 9, 0x80)


def encode_e4m3(x) -> np.ndarray:
    """Round-to-nearest-even onto the E4M3 grid; |x| > 448 saturates to
    +-448 rather than producing the NaN code.  Zero encodes as +0."""
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    return _encode_e4m3(x)


def _encode_e4m3(x: np.ndarray) -> np.ndarray:
    """encode_e4m3 of a float64 array the caller has checked to be finite:
    one gather from the bucket table _E4M3_CODES over buckets of top 16
    bits, at k(b) + k(b - 1), whose tie flag sends a midpoint of two codes
    to its bucket bottom's entry, the even code (module docstring).  The
    codes are C-ordered, whatever the layout of x."""
    return _bucket_codes(_E4M3_CODES, x)


def decode_e4m3(codes) -> np.ndarray:
    """Decode E4M3 codes; a code outside 0..255 raises InvalidCodeError, and
    so do the NaN patterns (0x7F / 0xFF), because a NaN block scale can
    never be produced by the encoder."""
    values = _gather(E4M3_VALUES, codes, "E4M3 codes must be 8-bit patterns")
    if values.size and np.isnan(values.max()):  # a NaN max is a NaN
        raise InvalidCodeError("E4M3 NaN code cannot be decoded as a scale")
    return values


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


_UE8M0_VALUES = np.ldexp(1.0, np.arange(255) - 127)
_UE8M0_VALUES.setflags(write=False)


def decode_ue8m0(codes) -> np.ndarray:
    """Decode UE8M0 codes, 2^(code - 127), by one gather; a code outside
    0..254 raises InvalidCodeError, 0xFF because it is NaN in OCP MX v1.0."""
    return _gather(_UE8M0_VALUES, codes,
                   "UE8M0 codes must be 8-bit patterns other than 0xFF (NaN)")


# The values of the block scale codes the encoders write, by codec: E4M3
# without the sign bit and other than the NaN pattern 0x7F, and UE8M0 other
# than 0xFF.
SCALE_VALUES = {"e4m3": E4M3_VALUES[:0x7F], "ue8m0": _UE8M0_VALUES}
