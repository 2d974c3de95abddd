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


# Elements per chunk of the element-wise codecs: the chunk and its
# temporaries stay in a core's L2 cache.
_CHUNK = 1 << 15


def _chunks(operands: list, dtypes: list):
    """Iterator over 1-D chunks of at most _CHUNK elements, in the memory
    order of the inputs; a None operand is an output that numpy allocates
    with the layout an element-wise ufunc over the inputs would give.

    C-contiguous inputs of one shape and of the given dtypes that fit in
    one chunk are that chunk: their outputs are C-ordered, as the nditer
    would allocate them, and the nditer's set-up cost is skipped."""
    inputs = [(op, dt) for op, dt in zip(operands, dtypes) if op is not None]
    shape = inputs[0][0].shape
    if all(op.shape == shape and op.dtype == dt and op.flags.c_contiguous
           for op, dt in inputs) and inputs[0][0].size <= _CHUNK:
        return _OneChunk([op if op is not None else np.empty(shape, dt)
                          for op, dt in zip(operands, dtypes)])
    flags = [["readonly"] if op is not None else ["writeonly", "allocate"]
             for op in operands]
    return np.nditer(operands, flags=["external_loop", "buffered", "zerosize_ok"],
                     op_flags=flags, op_dtypes=dtypes, order="K",
                     buffersize=_CHUNK)


class _OneChunk:
    """The part of the nditer interface that _chunks' callers use, for
    operands that are one chunk."""

    def __init__(self, operands: list):
        self.operands = operands

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def __iter__(self):
        yield tuple(op.reshape(-1) for op in self.operands)


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
    only sr_round checks again.  The codes keep x's memory layout.

    sr_round returns E2M1 grid values, and each grid value is the smallest
    magnitude of its bucket of top 13 bits (as in _sr_brackets), so their
    codes are one gather from a table keyed by those bits."""
    stochastic = isinstance(mode, Stochastic)
    if stochastic:
        x = sr_round(x, mode, counters=counters)
    with _chunks([x, None], [np.float64, np.uint8]) as it:
        for xs, codes in it:
            if stochastic:
                key = (xs.view(np.uint64) >> 51).view(np.int64)
                np.take(_GRID_CODES, key, out=codes, mode="clip")
            else:
                _e2m1_walk(xs, codes)
        out = it.operands[1]
    return out if out.ndim else out[()]


def _e2m1_walk(x: np.ndarray, codes: np.ndarray) -> None:
    """Write the nearest-even codes of the 1-D chunk x into codes."""
    m = np.abs(x)
    # Cumulative threshold walk; the >=/> alternation encodes ties-to-even:
    # 0.25 -> 0.0, 0.75 -> 1.0, 1.25 -> 1.0, 1.75 -> 2.0, 2.5 -> 2.0,
    # 3.5 -> 4.0, 5.0 -> 4.0.
    np.greater(m, 0.25, out=codes)
    codes += m >= 0.75
    codes += m > 1.25
    codes += m >= 1.75
    codes += m > 2.5
    codes += m >= 3.5
    codes += m > 5.0
    neg = np.signbit(x)
    neg &= codes > 0
    codes |= neg.view(np.uint8) << 3


def _grid_codes() -> np.ndarray:
    """The nearest-even code of the smallest magnitude of every bucket of
    top 13 bits (sign, exponent and first mantissa bit), signed zero
    included; read-only."""
    bottom = (np.arange(1 << 13, dtype=np.uint64) << 51).view(np.float64)
    codes = np.empty(bottom.shape, dtype=np.uint8)
    _e2m1_walk(bottom, codes)
    codes.setflags(write=False)
    return codes


_GRID_CODES = _grid_codes()


def decode_e2m1(codes) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > 15):
        raise InvalidCodeError("E2M1 codes must be 4-bit patterns")
    return E2M1_VALUES[codes]


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


def sr_round(x, stream: Stochastic, counters=None) -> np.ndarray:
    """Stochastic rounding onto the signed E2M1 grid; returns grid values.

    Bracket x between adjacent grid points lo <= x <= hi and pick hi with
    probability (x - lo) / (hi - lo), so the expectation equals x.  Exact
    grid points are returned unchanged; magnitudes beyond 6 clamp first.
    The element at counter c consumes the stream uniform at position c.
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    if counters is None:
        counters = np.arange(x.size, dtype=np.int64).reshape(x.shape)
    u = uniforms_at(stream.key(), counters)
    with _chunks([u, x, None], [np.float64] * 3) as it:
        for us, xs, out in it:
            # a logical shift, then int64 so the gathers need no cast
            key = (xs.view(np.uint64) >> 51).view(np.int64)
            lo = _SR_LO[key]
            p_hi = xs - lo
            p_hi *= _SR_INV_GAP[key]
            out[...] = np.where(us < p_hi, _SR_HI[key], lo)
        return it.operands[2]


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
E4M3_MIN_NORMAL = 2.0 ** -6
E4M3_SMALLEST_POSITIVE = 2.0 ** -9
E4M3_SMALLEST_POSITIVE_CODE = 0x01


def _e4m3_thresholds() -> np.ndarray:
    """For k = 0 .. 125, the smallest magnitude whose nearest-even code is
    above k: the midpoint of codes k and k + 1 (exact in binary64), or the
    next double above it when k is even and keeps the tie.  Magnitudes
    past the last one saturate to code 126."""
    mid = (E4M3_VALUES[:126] + E4M3_VALUES[1:127]) / 2
    thresholds = np.where(np.arange(126) % 2 == 0, np.nextafter(mid, np.inf), mid)
    thresholds.setflags(write=False)
    return thresholds


_E4M3_THRESHOLDS = _e4m3_thresholds()
_E4M3_SEARCH_MAX = 512


def encode_e4m3(x) -> np.ndarray:
    """Round-to-nearest-even onto the E4M3 grid; |x| > 448 saturates to
    +-448 rather than producing the NaN code.  Zero encodes as +0."""
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    return _encode_e4m3(x)


def _encode_e4m3(x: np.ndarray) -> np.ndarray:
    """encode_e4m3 of a float64 array the caller has checked to be finite.

    Normal range: round the binary64 bit pattern to nearest-even at mantissa
    bit 3 (a carry moves into the exponent), then rebias the exponent from
    1023 to 7.  Below 2^-6 the codes count multiples of 2^-9, and rint
    rounds those ties to even.  Everything above 448 saturates to code 126.
    The codes are C-ordered, whatever the layout of x.

    Up to _E4M3_SEARCH_MAX values (block-scale grids of small tensors), one
    binary search over the thresholds between codes takes fewer passes and
    gives the same codes.
    """
    mag = np.abs(x, out=np.empty(np.shape(x)))
    if mag.size <= _E4M3_SEARCH_MAX:
        code = np.searchsorted(_E4M3_THRESHOLDS, mag, side="right").astype(np.uint8)
    else:
        bits = mag.view(np.uint64)
        rne = (bits + ((bits >> 49) & 1) + ((1 << 48) - 1)) >> 49
        code = rne.view(np.int64) - ((1023 - 7) << 3)
        sub = np.rint(np.minimum(mag, E4M3_MIN_NORMAL) * 2.0 ** 9)
        code = np.where(mag < E4M3_MIN_NORMAL, sub.astype(np.int64), code)
        code = np.minimum(code, 126).astype(np.uint8)
    neg = np.signbit(x) & (code > 0)
    return code | (neg.view(np.uint8) << 7)


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
