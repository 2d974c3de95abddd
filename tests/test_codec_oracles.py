"""The table-driven and chunked codecs against the whole-array codecs they
replaced, kept here as oracles (as test_hadamard keeps _loop_rht).

Equal values are not enough: codes and rounded values must also keep the
memory layout the oracles gave, because quantization_stats sums in memory
order and an F-ordered code array changes its last bits.  So every
comparison is by tobytes() and strides, and the stats by repr.
"""

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fp4sim import blockquant, codecs, tensorfile
from fp4sim.blockquant import (
    MXFP4,
    NVFP4,
    _pad,
    cols1d,
    dequantize,
    encode_multipliers,
    quantize,
    rows1d,
    square2d,
)
from fp4sim.codecs import (
    E2M1_GRID,
    E2M1_MAX,
    E2M1_VALUES,
    E4M3_MAX,
    E4M3_VALUES,
    NEAREST,
    ScaleRangeError,
    Stochastic,
)
from fp4sim.gemm import transpose_quantized_view
from fp4sim.reports import TensorReport, quantization_stats, tensor_report
from fp4sim.rng import _CHUNK, uniforms

# --- the oracles ---------------------------------------------------------------


def _oracle_encode_e2m1(x, mode):
    if isinstance(mode, Stochastic):
        x = _oracle_sr_round(x, mode)
    m = np.abs(x)
    idx = (m > 0.25).astype(np.uint8)
    idx += m >= 0.75
    idx += m > 1.25
    idx += m >= 1.75
    idx += m > 2.5
    idx += m >= 3.5
    idx += m > 5.0
    idx |= (np.signbit(x) & (idx > 0)).astype(np.uint8) << 3
    return idx


def _oracle_sr_round(x, stream):
    # the element at row-major position i takes the stream's uniform i
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, -E2M1_MAX, E2M1_MAX)
    j = (xc >= E2M1_GRID[0]).astype(np.uint8)
    for point in E2M1_GRID[1:]:
        j += xc >= point
    lo = E2M1_GRID[j - 1]
    hi = E2M1_GRID[np.minimum(j, len(E2M1_GRID) - 1)]
    width = hi - lo
    p_hi = np.where(width > 0, (xc - lo) / np.where(width > 0, width, 1.0), 0.0)
    u = uniforms(stream.key(), x.size).reshape(x.shape)
    return np.where(u < p_hi, hi, lo)


_E4M3_POS_GRID = E4M3_VALUES[:127]


def _oracle_encode_e4m3(x):
    mag = np.abs(x)
    j = np.searchsorted(_E4M3_POS_GRID, mag)
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


def _to_blocks(xp, bm):
    """Padded tensor -> (n_blocks, block_size) rows in grid row-major order."""
    br, bc = bm.block_shape
    gr, gc = bm.grid_shape
    return (xp.reshape(gr, br, gc, bc)
              .transpose(0, 2, 1, 3)
              .reshape(bm.n_blocks, br * bc))


def _oracle_sums(x, err, total):
    """total(x) and total(err), sums of squares.  Where either is not a
    finite normal number, both are taken again of x and err times the
    power of two that brings max|x| into [0.5, 1), at most 2^1023."""
    sums = total(x), total(err)
    if all(np.finfo(np.float64).tiny <= v <= np.finfo(np.float64).max for v in sums):
        return sums
    s = np.ldexp(1.0, min(-int(np.frexp(np.abs(x).max())[1]), 1023))
    return total(x * s), total(err * s)


def _oracle_stats(x, q):
    """quantization_stats as it was: every field from full-size passes,
    with sums of squares out of the normal range taken again of scaled
    operands (_oracle_sums)."""
    x = np.asarray(x, dtype=np.float64)
    deq = dequantize(q)
    err = x - deq
    sig, noise = _oracle_sums(x, err, lambda a: float(np.sum(a * a)))
    sqnr = (None if sig == 0.0 else float("inf") if noise == 0.0
            else float(10.0 * np.log10(sig / noise)))
    nz = x != 0
    rel = np.divide(err, x, out=np.zeros_like(x), where=nz)
    max_rel = float(np.abs(rel, out=rel).max())
    # the squared np.linalg.norm before its root: a dot product in memory order
    sq_x, sq_err = _oracle_sums(x, err, lambda a: np.dot(a.ravel("K"), a.ravel("K")))
    rel_fro = float(np.sqrt(sq_err) / np.sqrt(sq_x)) if sq_x else 0.0
    bm = q.block_map
    blocks = _to_blocks(_pad(x, bm), bm)
    scaled = blocks * encode_multipliers(q).reshape(-1)[:, None]
    saturated = int(np.count_nonzero(np.abs(scaled) > E2M1_MAX))
    underflow = int(np.count_nonzero(nz & (deq == 0.0)))
    amax = float(np.abs(x).max())
    amax_rel = abs(float(np.abs(deq).max()) - amax) / amax if amax else 0.0
    block_max = E2M1_VALUES[_to_blocks(q.codes & 7, bm).max(axis=1)]
    active = block_max > 0
    if active.any():
        util = np.log2(block_max[active] / 0.5)
        util_mean, util_min = float(util.mean()), float(util.min())
    else:
        util_mean = util_min = 0.0
    return dict(fmt=q.fmt.name, layout=q.layout.kind, sqnr_db=sqnr,
                max_rel_error=max_rel, rel_fro_error=rel_fro,
                saturated=saturated, underflow_to_zero=underflow,
                amax_rel_error=amax_rel, binade_utilization_mean=util_mean,
                binade_utilization_min=util_min, n_blocks=bm.n_blocks)


# --- inputs --------------------------------------------------------------------

# signed zeros, float64 subnormals, every E2M1 point and tie, E4M3
# subnormal points and ties, and values around the E4M3 top of 448
_SPECIAL = sorted({v * s for s in (1.0, -1.0) for v in (
    0.0, 5e-324, 2.0 ** -1030, 2.2250738585072014e-308,
    *E2M1_GRID[E2M1_GRID > 0], 0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0, 6.5,
    2.0 ** -10, 3 * 2.0 ** -10, 2.0 ** -9, 15 * 2.0 ** -10, 2.0 ** -6,
    17 * 2.0 ** -10, 2.0 ** -6 * (1 + 2.0 ** -4), 2.0 ** -6 * (1 + 3 * 2.0 ** -4),
    416.0, 440.0, 447.0, 448.0, np.nextafter(448.0, 0.0),
    np.nextafter(448.0, np.inf), 464.0, 480.0, 1e300)})

_LAYOUTS = ("C", "F", "strided", "reversed", "strided_T")


def _with_layout(a, layout):
    """The values of the 2-D array a, held in the named memory layout."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "reversed":
        return np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]
    r, c = a.shape
    if layout == "strided":
        base = np.full((2 * r, 2 * c + 1), np.nan)
        view = base[::2, 1::2]
    else:
        base = np.full((2 * c + 1, 2 * r), np.nan)
        view = base[1::2, ::2].T
    view[...] = a
    return view


def _arrays(elements, max_rows=6, max_cols=40):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(elements, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda vals: np.array(vals, dtype=np.float64).reshape(shape)))


_codec_values = st.one_of(st.sampled_from(_SPECIAL),
                          st.floats(-500.0, 500.0, allow_subnormal=True))


def _same(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).strides == np.asarray(want).strides
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# --- codecs --------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_arrays(_codec_values), st.sampled_from(_LAYOUTS))
def test_encoders_match_oracles_in_bytes_and_layout(a, layout):
    x = _with_layout(a, layout)
    _same(codecs._encode_e2m1(x, NEAREST), _oracle_encode_e2m1(x, NEAREST))
    _same(codecs.encode_e2m1(x), _oracle_encode_e2m1(x, NEAREST))
    _same(codecs._encode_e4m3(x), _oracle_encode_e4m3(x))
    _same(codecs.encode_e4m3(x), _oracle_encode_e4m3(x))


@settings(max_examples=200, deadline=None)
@given(_arrays(_codec_values), st.sampled_from(_LAYOUTS),
       st.integers(0, 3))
def test_sr_round_matches_oracle_in_bytes_and_layout(a, layout, seed):
    x = _with_layout(a, layout)
    stream = Stochastic(("sr-oracle", seed))
    _same(codecs.sr_round(x, stream), _oracle_sr_round(x, stream))
    _same(codecs._encode_e2m1(x, stream), _oracle_encode_e2m1(x, stream))


def test_codecs_keep_scalar_and_empty_results():
    stream = Stochastic(("sr-oracle-0d",))
    for x in (np.float64(-2.75), np.array(0.3), np.zeros((0, 3)), np.zeros(0)):
        _same(codecs.encode_e2m1(x), _oracle_encode_e2m1(np.asarray(x), NEAREST))
        _same(codecs.encode_e4m3(x), _oracle_encode_e4m3(np.asarray(x)))
        _same(codecs.sr_round(x, stream), _oracle_sr_round(x, stream))


def test_codecs_span_many_chunks():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((300, 257)) * rng.lognormal(0.0, 3.0, (300, 1))
    stream = Stochastic(("sr-oracle-chunks",))
    for x in (a, np.asfortranarray(a), a[::-1, 1::2]):
        _same(codecs._encode_e2m1(x, NEAREST), _oracle_encode_e2m1(x, NEAREST))
        _same(codecs._encode_e4m3(x), _oracle_encode_e4m3(x))
        _same(codecs.sr_round(x, stream), _oracle_sr_round(x, stream))


def test_sr_codes_of_every_grid_value():
    # _encode_e2m1 reads the codes of sr_round's output, which holds only
    # grid values, from a table; they must be the walk's codes, -0.0's too
    grid = np.append(E2M1_GRID, -0.0)
    want = _oracle_encode_e2m1(grid, NEAREST)
    _same(codecs._GRID_CODES[(grid.view(np.uint64) >> 51).astype(np.intp)], want)
    _same(codecs._encode_e2m1(grid, Stochastic(("grid-codes",))), want)


def test_e4m3_every_code_and_midpoint():
    finite = E4M3_VALUES[:127]
    mids = (finite[:-1] + finite[1:]) / 2  # every tie, exact in binary64
    x = np.concatenate([finite, mids, np.nextafter(mids, 0.0),
                        np.nextafter(mids, np.inf)])
    for v in (x, -x):
        _same(codecs.encode_e4m3(v), _oracle_encode_e4m3(v))


def test_e4m3_every_code_and_midpoint_on_both_paths():
    # small arrays take a binary search over the code thresholds, large
    # ones the bit arithmetic; both must give the oracle's codes
    finite = E4M3_VALUES[:127]
    mids = (finite[:-1] + finite[1:]) / 2
    x = np.concatenate([finite, mids, np.nextafter(mids, 0.0),
                        np.nextafter(mids, np.inf), [448.5, 480.0, 1e300]])
    for v in (x, -x):
        for size in (512, 2048):
            w = np.resize(v, size)
            _same(codecs._encode_e4m3(w), _oracle_encode_e4m3(w))


# --- quantize and stats --------------------------------------------------------

_PAIRS = {"nv_rows": (NVFP4, rows1d(16)), "nv_cols": (NVFP4, cols1d(16)),
          "nv_square": (NVFP4, square2d()), "mx_rows": (MXFP4, rows1d(32)),
          "mx_cols": (MXFP4, cols1d(32))}

_stats_values = st.one_of(st.sampled_from([v for v in _SPECIAL if abs(v) < 1e3]),
                          st.floats(-1e6, 1e6, allow_subnormal=True))


def _quantize_with_oracles(x, fmt, layout, mode):
    with mock.patch.object(blockquant, "_encode_e2m1", _oracle_encode_e2m1), \
            mock.patch.object(blockquant, "_encode_e4m3", _oracle_encode_e4m3):
        return quantize(x, fmt, layout, mode)


# F-ordered nvfp4 rows input whose blocks span its only block column: the
# codes come out F-ordered, and C-ordered codes of the same values move
# rel_fro_error in the last bit.  The benchmark's fingerprints do not cover
# this case.
@example(a=np.array([[0.1, -2.3, 7.7, 0.0, 1e-3, 3.0, -0.6, 5.5, 1.1, -9.0,
                      0.2, 4.4, -0.05, 8.0, 2.2, -3.3]] * 3)
         * np.array([[1.0], [3.7], [-0.011]]),
         layout="F", pair="nv_rows", sr=False)
# the smallest normal flushes to zero in mxfp4: its sums of squares
# underflow and are taken again of scaled operands
@example(a=np.array([[-2.2250738585072014e-308]]), layout="C", pair="mx_cols", sr=False)
@settings(max_examples=200, deadline=None)
@given(_arrays(_stats_values, max_rows=40, max_cols=70), st.sampled_from(_LAYOUTS),
       st.sampled_from(sorted(_PAIRS)), st.booleans())
def test_quantize_and_stats_match_oracles(a, layout, pair, sr):
    fmt, scale_layout = _PAIRS[pair]
    x = _with_layout(a, layout)
    mode = Stochastic(("stats-oracle", pair)) if sr else NEAREST
    try:
        want = _quantize_with_oracles(x, fmt, scale_layout, mode)
    except ScaleRangeError:
        with pytest.raises(ScaleRangeError):
            quantize(x, fmt, scale_layout, mode)
        return
    got = quantize(x, fmt, scale_layout, mode)
    _same(got.codes, want.codes)
    _same(got.scale_codes, want.scale_codes)
    assert repr(got.global_decode_scale) == repr(want.global_decode_scale)
    report = tensor_report(x, got).to_dict()
    assert {k: repr(v) for k, v in report.items()} == \
        {k: repr(v) for k, v in _oracle_stats(x, want).items()}


# --- stats for every source of a tensor ---------------------------------------

_FIELDS = [f.name for f in dataclasses.fields(TensorReport)]


def _read_back(q):
    """q written to a container and read back."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "q.fp4t")
        tensorfile.write_tensor(path, q)
        return tensorfile.read_tensor(path)


def _source(x, fmt, layout, mode, source):
    """(the array quantized, q) for q straight from quantize, a transpose
    view of a square-tiled encoding, or a container read back."""
    q = quantize(x, fmt, layout, mode)
    if source == "transpose":
        return x.T, transpose_quantized_view(q)
    if source == "container":
        return x, _read_back(q)
    return x, q


def _stats_match_oracle(x, q, order=_FIELDS):
    """tensor_report(x, q) equals the oracle by repr when its fields
    are read in `order` after x was overwritten."""
    want = {k: repr(v) for k, v in _oracle_stats(x, q).items()}
    report = tensor_report(x, q)
    x[...] = np.nan
    got = {name: repr(getattr(report, name)) for name in order}
    assert got == want
    assert {k: repr(v) for k, v in report.to_dict().items()} == want
    assert list(report.to_dict()) == _FIELDS


@settings(max_examples=200, deadline=None)
@given(_arrays(_stats_values, max_rows=40, max_cols=70), st.sampled_from(_LAYOUTS),
       st.sampled_from(sorted(_PAIRS)), st.booleans(),
       st.sampled_from(["quantize", "transpose", "container"]),
       st.permutations(_FIELDS))
def test_stats_match_oracle_for_every_source_and_read_order(a, layout, pair, sr,
                                                             source, order):
    fmt, scale_layout = _PAIRS["nv_square"] if source == "transpose" else _PAIRS[pair]
    x = _with_layout(a, layout)
    mode = Stochastic(("stats-source", pair)) if sr else NEAREST
    try:
        x, q = _source(x, fmt, scale_layout, mode, source)
    except ScaleRangeError:
        return
    _stats_match_oracle(x, q, order)


@pytest.mark.parametrize("layout, source", [
    ("rows", "quantize"), ("rows", "container"), ("cols", "quantize"),
    ("cols", "container"), ("square", "quantize"), ("square", "container"),
    ("square", "transpose")])
def test_stats_count_saturation_where_the_scale_rounds_down(layout, source):
    # The tensor amax 2688 makes s_enc = 1.  The second block's ideal scale
    # 6.36 / 6 = 1.06 rounds down to the E4M3 1.0, so its 6.36 and -6.1
    # scale past 6; the first block's 2688 scales to exactly 6.
    row = np.zeros(32)
    row[0], row[16:20] = 2688.0, [6.36, -6.1, 5.9, 0.3]
    x = np.ascontiguousarray(row[:, None]) if layout == "cols" else row[None, :].copy()
    scale_layout = {"rows": rows1d(16), "cols": cols1d(16), "square": square2d()}[layout]
    x, q = _source(x, NVFP4, scale_layout, NEAREST, source)
    assert quantization_stats(x, q).saturated == 2
    _stats_match_oracle(x, q)


@pytest.mark.parametrize("pair", sorted(_PAIRS))
@pytest.mark.parametrize("sr", [False, True])
def test_stats_span_many_chunks(pair, sr):
    fmt, scale_layout = _PAIRS[pair]
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 257)) * rng.lognormal(0.0, 3.0, (300, 1))
    assert a.size > _CHUNK
    mode = Stochastic(("stats-chunks", pair)) if sr else NEAREST
    sources = ["quantize", "container"] + (["transpose"] if pair == "nv_square" else [])
    for source in sources:
        for x in (a.copy(), np.asfortranarray(a)):
            _stats_match_oracle(*_source(x, fmt, scale_layout, mode, source))
