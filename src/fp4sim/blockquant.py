"""Block-scaled 4-bit quantization of 2-D tensors: one pipeline, two formats.

A format is its block length, scale codec, and scale rule.  quantize cuts
the padded tensor into blocks and takes each block's amax_b = max|x_i|; the
scale rule turns these into the stored scale codes, the encode multipliers
s_enc_b and the tensor decode scale; the codes are e2m1(x_i * s_enc_b),
nearest-even or stochastic.  The result holds what a container stores:
codes, scale codes and the tensor decode scale, from which
encode_multipliers recovers each block's multiplier.

* ``NVFP4``: blocks of 16 share an E4M3 (fractional) scale, plus one FP32
  tensor-level scale chosen so the largest block scale lands at the top of
  the E4M3 range.  With amax_x = max|x|, the rule is:

      s_enc      = (6 * 448) / amax_x            tensor encode scale
      s_dec      = 1 / s_enc                     tensor decode scale (FP32 grid)
      s_dec_b    = amax_b / 6                    ideal per-block decode scale
      scale_code = e4m3_rne(s_dec_b * s_enc)     stored per block
      s_enc_b    = 1 / (decode(scale_code) * s_dec)

  and dequantization is code * decode(scale_code) * s_dec.  With
  u_b = decode(scale_code) * s_dec the block's unit, each element decodes to
  within max(u_b, amax_b - 6 * u_b) of its value: half the widest E2M1 gap,
  or the clip of a block whose scale rounded down.  What the stored scale
  guarantees depends on its E4M3 class, set by amax_b / amax_x:

  * normal (scale >= 2^-6; amax_b / amax_x above about 2^-6/448 ~ 3.5e-5):
    the scale is within one E4M3 step of ideal, at most 16/15 of it, so the
    block's largest value lands within one E4M3 step of the top of the 4-bit
    grid and every element is within (16/15)/6 * amax_b of its value;
  * subnormal (below that): rounding the scale can double it or cut it by a
    third, so the block can waste a binade or clip hard; either way an
    element's error can reach a third of amax_b;
  * zero (amax_b / amax_x <= 2^-10/448 ~ 2.2e-6): the scale underflows E4M3
    and the block decodes to zero.

  Precondition: amax_x is zero or at least NVFP4_MIN_AMAX = 2688 * 2^-1013
  (about 3.06e-302), where the smallest scale's decode product
  2^-9 * s_dec is still a normal float64.  A smaller nonzero amax raises
  ScaleRangeError.

* ``MXFP4``: blocks of 32 share a UE8M0 (power-of-two) scale 2^k, no tensor
  scale.  The stored scale is the smallest power of two >= amax_b / 6, which
  makes encoding saturation-free by construction but can leave the top two
  magnitude codes unused when amax_b sits just above a power of two; an
  element's error is at most amax_b / 3.  Scales clamp at the smallest code,
  2^-127, so elements at most 2^-129 round to zero there, and a block whose
  amax is at most 2^-129 flushes to zero: its error bound is
  max(amax_b / 3, 2^-129).  A block amax above 6 * 2^127 raises
  ScaleRangeError.  The encode multiplier s_enc_b = 2^-k is exact, and
  x_i * 2^-k and x_i / 2^k both round the same real number, so the
  multiply gives the bits of a division by the scale, subnormals included.

Scaling layouts tile a (R, C) tensor with (1, L) row segments, (L, 1) column
segments, or 16x16 squares.  Tensors are zero-padded up to block multiples
before encoding and cropped after decoding; block scales are indexed in
row-major order over the block grid.  Blocks are a view of the padded
tensor (BlockMap.view), which is encoded in its own row-major order, so
stochastic rounding gives the element at (r, c) of an (R_p, C_p) padded
tensor the stream's uniform at position r * C_p + c, whatever the layout.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .codecs import (
    E2M1_MAX,
    E4M3_MAX,
    E4M3_SMALLEST_POSITIVE,
    E4M3_SMALLEST_POSITIVE_CODE,
    E4M3_VALUES,
    NEAREST,
    InvalidCodeError,
    QuantizationError,
    RoundingMode,
    ScaleRangeError,
    _encode_e2m1,
    _encode_e4m3,
    check_finite,
    decode_e2m1,
    decode_e4m3,
    decode_ue8m0,
    encode_ue8m0_roundup,
)
from .rng import _CHUNK


class LayoutError(QuantizationError):
    pass


@dataclass(frozen=True)
class FormatSpec:
    """Name, block length, scale codec, whether a tensor-level decode scale
    accompanies the block scales, and the scale rule: finite block amaxes ->
    (scale codes, encode multipliers, tensor decode scale or None).  The
    rule stays out of the repr, which would print its address."""

    name: str
    block_len: int
    scale_codec: str  # "e4m3" | "ue8m0"
    has_tensor_scale: bool
    scale_rule: Callable[[np.ndarray], tuple] = field(repr=False)

    def __post_init__(self):
        if self.scale_codec not in ("e4m3", "ue8m0"):
            raise ValueError(f"unknown scale codec {self.scale_codec!r}")
        if self.block_len < 1:
            raise ValueError("block_len must be positive")


# Smallest nonzero tensor amax nvfp4 encodes.  At it the decode product of
# the smallest positive E4M3 scale, 2^-9 * s_dec, is the smallest normal
# float64; below it that product loses bits, and further down its reciprocal
# (the encode multiplier of an all-zero block) or s_enc itself overflows.
NVFP4_MIN_AMAX = (E2M1_MAX * E4M3_MAX * np.finfo(np.float64).tiny
                  / E4M3_SMALLEST_POSITIVE)


def global_encode_scale(amax_tensor: float) -> tuple[float, float]:
    """Tensor-level (encode, decode) scale pair for nvfp4.

    s_enc maps the tensor amax to E2M1_MAX * E4M3_MAX so the largest block
    scale uses the full E4M3 range; s_dec is its reciprocal (kept in wide
    precision; the FP32 grid is coarser, and rounding there would only
    shift both levels by the same factor).  A nonzero amax below
    NVFP4_MIN_AMAX raises ScaleRangeError.
    """
    if not math.isfinite(amax_tensor) or amax_tensor < 0:
        raise QuantizationError("amax must be finite and non-negative")
    if amax_tensor == 0:
        return 1.0, 1.0
    if amax_tensor < NVFP4_MIN_AMAX:
        raise ScaleRangeError(
            f"tensor amax {float(amax_tensor)!r} is outside the nvfp4 scale "
            f"range: a nonzero amax must be at least {NVFP4_MIN_AMAX!r}")
    s_enc = (E2M1_MAX * E4M3_MAX) / amax_tensor
    return s_enc, 1.0 / s_enc


def nvfp4_block_scales(amax_blocks: np.ndarray, s_enc: float,
                       s_dec: float) -> tuple[np.ndarray, np.ndarray]:
    """Stored E4M3 scale codes and per-block encode multipliers.

    The ideal decode scale amax_b / 6 is pre-multiplied by s_enc, rounded to
    E4M3, and inverted against s_dec so encode * decode is exactly the
    stored-scale product.  All-zero blocks store the smallest positive scale
    code (a zero code would make the encode multiplier undefined); blocks
    whose scale underflows E4M3 to zero get a zero multiplier, which zeroes
    their codes.  amax_blocks must be finite; it is not checked again.
    """
    ideal = amax_blocks / E2M1_MAX
    ideal *= s_enc
    codes = _encode_e4m3(ideal)
    np.copyto(codes, E4M3_SMALLEST_POSITIVE_CODE, where=amax_blocks == 0)
    return codes, _multipliers(E4M3_VALUES.take(codes), s_dec)  # never a NaN code


def _multipliers(decoded: np.ndarray, s_dec: float) -> np.ndarray:
    """1 / (decoded block scale * s_dec), and 0 for a zero scale."""
    product = decoded * s_dec
    return np.divide(1.0, product, out=np.zeros(product.shape), where=decoded > 0)


def _nvfp4_scale_rule(amax_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    s_enc, s_dec = global_encode_scale(float(amax_b.max()))
    return (*nvfp4_block_scales(amax_b, s_enc, s_dec), s_dec)


def _mxfp4_scale_rule(amax_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
    # Round the ideal scale UP to a power of two: the scaled amax then never
    # exceeds 6, so encoding cannot saturate.  Scales below 2^-127 clamp to
    # it, including an ideal scale that underflows to zero (amax_b of a few
    # subnormals) and the zero scale of an all-zero block: both get code 0.
    codes = encode_ue8m0_roundup(np.maximum(amax_b / E2M1_MAX, 2.0 ** -127))
    return codes, 1.0 / decode_ue8m0(codes), None


NVFP4 = FormatSpec("nvfp4", 16, "e4m3", True, _nvfp4_scale_rule)
MXFP4 = FormatSpec("mxfp4", 32, "ue8m0", False, _mxfp4_scale_rule)

FORMATS = {f.name: f for f in (NVFP4, MXFP4)}

# The block scale codes the encoders write are those below the limit of
# their codec: E4M3 without the sign bit and other than the NaN pattern
# 0x7F, and UE8M0 other than 0xFF (NaN, which would decode to 2^128).
SCALE_CODE_LIMIT = {"e4m3": 0x7F, "ue8m0": 0xFF}
_BAD_SCALE_CODE = {"e4m3": "E4M3 scale code with the sign bit set or the NaN pattern",
                   "ue8m0": "UE8M0 scale code 0xFF (NaN)"}


class ScaleCodeError(InvalidCodeError):
    """A block scale code the encoders never write; index is its row-major
    flat index in the scale grid, and what names the code."""

    def __init__(self, what: str, index: int):
        super().__init__(f"{what} at flat index {index}")
        self.what, self.index = what, index


def check_tensor_scale(fmt: FormatSpec, s: float | None) -> None:
    """The tensor-level decode scale rule: fmt carries one exactly when
    fmt.has_tensor_scale, and it is positive with the largest decoded value,
    6 * 448 * s, finite (as global_encode_scale keeps it).  Raises
    QuantizationError, ScaleRangeError for a scale out of range."""
    if not fmt.has_tensor_scale:
        if s is not None:
            raise QuantizationError(f"{fmt.name} does not carry a tensor-level scale")
    elif s is None:
        raise QuantizationError(f"{fmt.name} requires a tensor-level scale")
    elif not (s > 0.0 and math.isfinite(s * (E2M1_MAX * E4M3_MAX))):
        raise ScaleRangeError(f"{fmt.name} tensor-level decode scale must be "
                              f"positive with 6 * 448 * scale finite, got {s!r}")


def _check_scale_codes(scale_codes: np.ndarray, fmt: FormatSpec) -> None:
    """Raise ScaleCodeError naming the first block scale code outside
    [0, SCALE_CODE_LIMIT) of its codec (a negative one can only come from
    a signed integer array)."""
    limit = SCALE_CODE_LIMIT[fmt.scale_codec]
    if scale_codes.max() >= limit or scale_codes.min() < 0:
        flat = scale_codes.reshape(-1)
        i = int(np.argmax((flat >= limit) | (flat < 0)))
        raise ScaleCodeError(f"{_BAD_SCALE_CODE[fmt.scale_codec]} 0x{int(flat[i]):02X}", i)


@dataclass(frozen=True)
class ScalingLayout:
    """How scale blocks tile a 2-D tensor, named by kind and block length
    alike in configs, containers and on the command line.

    kind "rows": (1, block_len) segments along each row (shared scale along
    the second axis); "cols": (block_len, 1) segments down each column;
    "square": 16x16 tiles (one scale per tile, shared by both axes), so a
    square layout's block_len is 16.  A LayoutError names each wrong part
    ("kind: ..." or "block_len: ...").
    """

    kind: str
    block_len: int

    def __post_init__(self):
        errs = []
        if self.kind not in ("rows", "cols", "square"):
            errs.append(f"kind: must be rows, cols, or square (got {self.kind!r})")
        if type(self.block_len) is not int or self.block_len < 1:
            errs.append(f"block_len: must be a positive integer (got {self.block_len!r})")
        elif self.kind == "square" and self.block_len != 16:
            errs.append(f"block_len: must be 16 for square tiles (got {self.block_len})")
        if errs:
            raise LayoutError("\n".join(errs))

    @property
    def block_shape(self) -> tuple[int, int]:
        n = self.block_len
        return (1, n) if self.kind == "rows" else (n, 1) if self.kind == "cols" else (n, n)


def rows1d(n: int = 16) -> ScalingLayout:
    return ScalingLayout("rows", n)


def cols1d(n: int = 16) -> ScalingLayout:
    return ScalingLayout("cols", n)


def square2d() -> ScalingLayout:
    return ScalingLayout("square", 16)


# Every layout some format admits, by the names the command line uses.
LAYOUTS = {f"{layout.kind}{layout.block_len}": layout
           for layout in (rows1d(16), cols1d(16), square2d(), rows1d(32), cols1d(32))}


def check_layout(fmt: FormatSpec, layout: ScalingLayout, name: str = "layout") -> None:
    """The layout/format rule: a 1-D block is as long as the format's
    block, and square tiles are 16x16 on a block-16 format.  Raises
    LayoutError naming name.kind or name.block_len."""
    if layout.kind == "square" and fmt.block_len != 16:
        raise LayoutError(f"{name}.kind: square tiles require a block-16 format "
                          f"(got {fmt.name}, block length {fmt.block_len})")
    if layout.kind != "square" and layout.block_len != fmt.block_len:
        raise LayoutError(f"{name}.block_len: must equal the {fmt.name} block "
                          f"length {fmt.block_len} (got {layout.block_len})")


@dataclass(frozen=True)
class BlockMap:
    """Geometry of the block decomposition of one tensor under one layout."""

    shape: tuple[int, int]
    padded_shape: tuple[int, int]
    block_shape: tuple[int, int]
    grid_shape: tuple[int, int]

    @property
    def n_blocks(self) -> int:
        return self.grid_shape[0] * self.grid_shape[1]

    def view(self, a: np.ndarray) -> np.ndarray:
        """An array of the padded shape as a (grid rows, block rows, grid
        cols, block cols) view: block (i, j) is [i, :, j, :], and an array g
        over the block grid broadcasts over the blocks as g[:, None, :, None].
        Splitting each axis in two needs no copy, whatever a's strides."""
        (br, bc), (gr, gc) = self.block_shape, self.grid_shape
        return a.reshape(gr, br, gc, bc)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = np.asarray(a).view()
    view.setflags(write=False)
    return view


def _ceil_to(n: int, m: int) -> int:
    return -(-n // m) * m


def block_decompose(shape: tuple[int, int], layout: ScalingLayout) -> BlockMap:
    r, c = shape
    if r < 1 or c < 1:
        raise LayoutError("tensor must have at least one row and column")
    br, bc = layout.block_shape
    padded = (_ceil_to(r, br), _ceil_to(c, bc))
    grid = (padded[0] // br, padded[1] // bc)
    return BlockMap(tuple(shape), padded, layout.block_shape, grid)


@functools.lru_cache(maxsize=256)
def _block_map(shape: tuple[int, int], layout: ScalingLayout) -> BlockMap:
    """block_decompose of a (shape, layout) pair, built once."""
    return block_decompose(shape, layout)


def _pad(x: np.ndarray, bm: BlockMap) -> np.ndarray:
    """x zero-padded to the padded shape: x itself when it needs no
    padding, otherwise a new C-ordered array."""
    if x.shape == bm.padded_shape:
        return x
    xp = np.zeros(bm.padded_shape)
    xp[:x.shape[0], :x.shape[1]] = x
    return xp


def _check_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise LayoutError("block quantization expects a 2-D tensor")
    return x


def _row_chunks(a: np.ndarray) -> list[slice]:
    """Slices of a's first axis, each about _CHUNK elements (at least one
    index), so a chunk and its temporaries stay in a core's L2 cache."""
    if a.size <= _CHUNK:
        return [slice(None)]
    step = max(1, _CHUNK // max(1, a[:1].size))
    return [slice(i, i + step) for i in range(0, a.shape[0], step)]


def _block_amax(x: np.ndarray, xp: np.ndarray, bm: BlockMap) -> np.ndarray:
    """Per-block max |x| over the block grid, from xp, x padded by _pad.
    It also checks x: a NaN or infinity anywhere makes its block's amax
    non-finite, and then check_finite(x) names it.  This is the quantizers'
    one finiteness check; the encoders they call do not check again
    (except sr_round, which is public).

    A max along rows of 16 or 32 runs one short row at a time, so row
    blocks are reduced transposed: |x| of a chunk of blocks goes into an
    (L, chunk) buffer, whose max down the columns runs along contiguous
    rows.  Column blocks and square tiles are reduced down their block rows
    first, which also runs along contiguous rows, a chunk of block rows at
    a time.  A max is exact, so the order does not matter.
    """
    amax_b = np.empty(bm.grid_shape)
    br, bc = bm.block_shape
    if br == 1:
        blocks, out = xp.reshape(-1, bc), amax_b.reshape(-1)  # views
        buf = np.empty((bc, min(len(blocks), _CHUNK // bc)))
        for s in _row_chunks(blocks):
            chunk = blocks[s].T
            mag = np.abs(chunk, out=buf[:, :chunk.shape[1]])
            np.maximum.reduce(mag, axis=0, out=out[s])
    else:
        blocks = bm.view(xp)
        for s in _row_chunks(blocks):
            np.abs(blocks[s]).max(axis=1).max(axis=-1, out=amax_b[s])
    if not math.isfinite(amax_b.max()):  # a NaN max is a NaN
        check_finite(x)
    return amax_b


@dataclass(eq=False)
class QuantizedTensor:
    """Codes, block scale codes, and enough metadata to dequantize: what a
    container stores, and nothing else.

    codes cover the zero-padded shape; scale_codes are uint8 over the block
    grid.  global_decode_scale is the tensor-level decode scale (required
    for nvfp4, absent for mxfp4).  codes and scale_codes are held as
    read-only views, so the block map, the decoded block scales and the
    decoded values derived from them, each a function of the stored
    fields, are computed once.

    Every tensor, whether quantize, a transpose view or a container made
    it, is checked the same way.  Construction checks the shapes against
    the block map, the tensor-level scale (check_tensor_scale) and the
    layout (check_layout), and the first decode of the scale codes checks
    them: a code the encoders never write raises ScaleCodeError instead of
    decoding to a NaN, a negative or a 2^128 scale.  Two tensors are equal
    only when they are the same object.
    """

    shape: tuple[int, int]
    codes: np.ndarray        # uint8, padded shape, values 0..15
    scale_codes: np.ndarray  # uint8, grid shape
    layout: ScalingLayout
    fmt: FormatSpec
    global_decode_scale: float | None
    _block_map: BlockMap = field(init=False, repr=False)
    _scales: np.ndarray | None = field(default=None, init=False, repr=False)
    _unscaled: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.codes = _read_only(self.codes)
        self.scale_codes = _read_only(self.scale_codes)
        self._block_map = bm = _block_map(tuple(self.shape), self.layout)
        if tuple(self.codes.shape) != bm.padded_shape:
            raise LayoutError("code array does not match padded shape")
        if tuple(self.scale_codes.shape) != bm.grid_shape:
            raise LayoutError("scale grid does not match block decomposition")
        check_tensor_scale(self.fmt, self.global_decode_scale)
        check_layout(self.fmt, self.layout)

    @property
    def block_map(self) -> BlockMap:
        return self._block_map

    def scale_values(self) -> np.ndarray:
        """Per-block decode scales (before the tensor-level scale) over the
        block grid; read-only, computed on first use."""
        if self._scales is None:
            _check_scale_codes(self.scale_codes, self.fmt)
            decode = decode_e4m3 if self.fmt.scale_codec == "e4m3" else decode_ue8m0
            self._scales = _read_only(decode(self.scale_codes))
        return self._scales

    def unscaled_values(self) -> np.ndarray:
        """Code values times their block decode scales over the padded
        shape, before the tensor-level scale; read-only, computed on first
        use.  Every product is exact: a code value has at most two
        significant bits and a block scale at most four, and neither
        product nor scale leaves the normal binary64 range."""
        if self._unscaled is None:
            vals = decode_e2m1(self.codes)
            blocks = self._block_map.view(vals)  # a view of vals
            blocks *= self.scale_values()[:, None, :, None]
            self._unscaled = _read_only(vals)
        return self._unscaled

    def dequantize(self) -> np.ndarray:
        return dequantize(self)


def quantize(x, fmt: FormatSpec, layout: ScalingLayout | None = None,
             mode: RoundingMode = NEAREST) -> QuantizedTensor:
    """Encode a 2-D tensor in fmt under layout (default: rows of the format's
    block length); only the format's scale rule differs between formats.
    Raises ScaleRangeError, before any encoding, for an nvfp4 tensor amax
    that is nonzero but below NVFP4_MIN_AMAX, or an mxfp4 block amax above
    6 * 2^127."""
    x = _check_input(x)
    if layout is None:
        layout = rows1d(fmt.block_len)
    check_layout(fmt, layout)
    bm = _block_map(x.shape, layout)
    xp = np.ascontiguousarray(_pad(x, bm))
    amax_b = _block_amax(x, xp, bm)
    scale_codes, enc, s_dec = fmt.scale_rule(amax_b)  # elementwise over the grid
    # a copy of x is scaled in place instead of making a second full-size array
    scaled = xp if xp is not x else np.empty(bm.padded_shape)
    np.multiply(bm.view(xp), enc[:, None, :, None], out=bm.view(scaled))
    codes = _encode_e2m1(scaled, mode)
    return QuantizedTensor(x.shape, codes, scale_codes, layout, fmt, s_dec)


def encode_multipliers(q: QuantizedTensor) -> np.ndarray:
    """Per-block encode multipliers over the block grid, recovered from the
    stored scale codes and tensor decode scale; what reads a tensor's
    multipliers reads them here.

    They are bit for bit the multipliers the scale rule gave quantize, so
    multiplying the original values by these reproduces exactly what the
    encoder saw before E2M1 rounding.
    """
    return _multipliers(q.scale_values(),
                        q.global_decode_scale if q.fmt.has_tensor_scale else 1.0)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Decode to binary64 and crop the zero padding."""
    vals = q.unscaled_values()
    vals = vals * q.global_decode_scale if q.fmt.has_tensor_scale else vals.copy()
    r, c = q.shape
    return vals[:r, :c]
