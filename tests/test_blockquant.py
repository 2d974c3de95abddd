import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fp4sim import blockquant, codecs
from fp4sim.blockquant import (
    FORMATS,
    LayoutError,
    MXFP4,
    NVFP4,
    NVFP4_MIN_AMAX,
    QuantizedTensor,
    block_decompose,
    cols1d,
    dequantize,
    encode_multipliers,
    global_encode_scale,
    nvfp4_block_scales,
    quantize,
    rows1d,
    square2d,
)
from fp4sim.codecs import (
    E2M1_GRID,
    E4M3_SMALLEST_POSITIVE_CODE,
    NEAREST,
    NonFiniteInputError,
    QuantizationError,
    ScaleRangeError,
    Stochastic,
    decode_e2m1,
    decode_e4m3,
    decode_ue8m0,
)
from fp4sim.linear import PrecisionPolicy

E4M3_EPS = 2.0 ** -9


# --- formats and layouts -----------------------------------------------------

def test_format_specs():
    assert NVFP4.block_len == 16 and NVFP4.scale_codec == "e4m3"
    assert NVFP4.has_tensor_scale
    assert MXFP4.block_len == 32 and MXFP4.scale_codec == "ue8m0"
    assert not MXFP4.has_tensor_scale
    assert set(FORMATS) == {"nvfp4", "mxfp4"}


def test_layout_shapes():
    assert rows1d(16).block_shape == (1, 16)
    assert cols1d(16).block_shape == (16, 1)
    assert square2d().block_shape == (16, 16)
    with pytest.raises(ValueError):
        from fp4sim.blockquant import ScalingLayout
        ScalingLayout("diag", (1, 16))


def test_block_decompose_counts():
    bm = block_decompose((16, 32), rows1d(16))
    assert bm.n_blocks == 32 and bm.padded_shape == (16, 32)
    bm = block_decompose((32, 32), square2d())
    assert bm.n_blocks == 4
    bm = block_decompose((16, 17), rows1d(16))
    assert bm.padded_shape == (16, 32) and bm.n_blocks == 32


def test_block_decompose_rejects_empty():
    with pytest.raises(ValueError):
        block_decompose((0, 16), rows1d(16))


# --- global scale ------------------------------------------------------------

def test_global_encode_scale_values():
    assert global_encode_scale(2688.0) == (1.0, 1.0)
    assert global_encode_scale(6.0)[0] == 448.0
    assert global_encode_scale(5376.0)[0] == 0.5
    # degenerate all-zero tensor
    assert global_encode_scale(0.0) == (1.0, 1.0)
    with pytest.raises(QuantizationError):
        global_encode_scale(-1.0)


def test_nvfp4_block_scales_full_range_block():
    # block amax == tensor amax: the stored scale hits the E4M3 maximum
    s_enc, s_dec = global_encode_scale(6.0)
    codes, enc = nvfp4_block_scales(np.array([6.0]), s_enc, s_dec)
    assert decode_e4m3(codes)[0] == 448.0
    assert enc[0] == pytest.approx(1.0, rel=1e-12)


def test_nvfp4_hand_block():
    x = np.array([[6.0, 3.0, 1.5, 0.75] + [0.0] * 12])
    q = quantize(x, NVFP4, rows1d(16))
    # 0.75 ties between 0.5 and 1.0; nearest-even takes 1.0
    assert list(q.codes[0, :4]) == [7, 5, 3, 2]
    assert not q.codes[0, 4:].any()
    deq = dequantize(q)
    assert deq[0, 0] == 6.0
    assert deq[0, 3] == 1.0


def test_all_zero_tensor():
    for fmt in (NVFP4, MXFP4):
        q = quantize(np.zeros((4, 64)), fmt)
        assert not q.codes.any()
        assert np.array_equal(dequantize(q), np.zeros((4, 64)))


def test_zero_block_inside_nonzero_tensor():
    x = np.zeros((1, 32))
    x[0, :16] = [1.0] * 16
    q = quantize(x, NVFP4, rows1d(16))
    # all-zero block stores the smallest positive scale code, codes stay zero
    assert q.scale_codes[0, 1] == E4M3_SMALLEST_POSITIVE_CODE
    assert not q.codes[0, 16:].any()
    assert np.array_equal(dequantize(q), x)


def test_scale_underflow_zeroes_block():
    # a block so far below the tensor amax that its E4M3 scale underflows
    x = np.ones((1, 32))
    x[0, 16:] = 1e-12
    q = quantize(x, NVFP4, rows1d(16))
    assert not q.codes[0, 16:].any()
    assert np.array_equal(dequantize(q)[0, 16:], np.zeros(16))


def test_two_level_scale_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 64)) * np.exp(rng.normal(0, 2, (64, 1)))
    q = quantize(x, NVFP4, rows1d(16))
    enc = encode_multipliers(q)
    nz = q.scale_values() > 0
    product = enc[nz] * q.global_decode_scale * q.scale_values()[nz]
    lo, hi = 1 - E4M3_EPS * 1.01, 1 + E4M3_EPS * 1.01
    assert product.min() >= lo and product.max() <= hi


def test_nvfp4_amax_fidelity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal((32, 32)) * 10 ** rng.uniform(-3, 3)
        q = quantize(x, NVFP4, rows1d(16))
        amax = np.abs(x).max()
        deq_amax = np.abs(dequantize(q)).max()
        assert abs(deq_amax - amax) / amax <= E4M3_EPS * 1.01


# --- MXFP4 -------------------------------------------------------------------

def test_mxfp4_binade_loss_fixture():
    x = np.zeros((1, 32))
    x[0, 0] = 3.01
    x[0, 1:4] = [0.5, 1.0, 2.0]
    q = quantize(x, MXFP4, rows1d(32))
    # round-up scale is 1.0; the amax lands on 3 and ±4/±6 are unreachable
    assert q.scale_values()[0] == 1.0
    assert dequantize(q)[0, 0] == 3.0
    mags = set(np.abs(dequantize(q)[0]))
    assert not ({4.0, 6.0} & mags)
    assert np.array_equal(dequantize(q)[0, 1:4], [0.5, 1.0, 2.0])


def test_mxfp4_power_of_two_amax_survives():
    x = np.zeros((1, 32))
    x[0, 5] = 6.0
    q = quantize(x, MXFP4, rows1d(32))
    assert q.scale_values()[0] == 1.0
    assert dequantize(q)[0, 5] == 6.0


def _to_blocks(xp, bm):
    """Padded tensor -> (n_blocks, block_size) rows in grid row-major order."""
    br, bc = bm.block_shape
    gr, gc = bm.grid_shape
    return (xp.reshape(gr, br, gc, bc)
              .transpose(0, 2, 1, 3)
              .reshape(bm.n_blocks, br * bc))


def test_mxfp4_never_saturates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal((32, 64)) * np.exp(rng.normal(0, 4, (32, 1)))
        q = quantize(x, MXFP4, rows1d(32))
        enc = encode_multipliers(q)
        bm = q.block_map
        from fp4sim.blockquant import _pad
        blocks = _to_blocks(_pad(x, bm), bm)
        scaled = np.abs(blocks) * enc.reshape(-1)[:, None]
        assert scaled.max() <= 6.0


def test_mxfp4_rejects_wrong_layouts():
    with pytest.raises(LayoutError):
        quantize(np.ones((4, 32)), MXFP4, rows1d(16))
    with pytest.raises(LayoutError):
        quantize(np.ones((32, 32)), MXFP4, square2d())


def test_nvfp4_rejects_wrong_block_length():
    with pytest.raises(LayoutError):
        quantize(np.ones((4, 32)), NVFP4, rows1d(32))


# --- round trips -------------------------------------------------------------

def _representable(rng, shape, block, scales):
    # codebook values times a per-block power-of-two scale; every block gets
    # a full-range element so its stored scale inverts exactly
    vals = rng.choice(E2M1_GRID, size=shape)
    vals[:, ::block] = 6.0
    cols = np.repeat(rng.choice(scales, size=shape[1] // block), block)
    return vals * cols


def test_representable_round_trip_nvfp4():
    rng = np.random.default_rng(6)
    x = _representable(rng, (16, 64), 16, [0.25, 0.5, 1.0, 2.0])
    q = quantize(x, NVFP4, rows1d(16))
    assert np.array_equal(dequantize(q), x)


def test_representable_round_trip_mxfp4():
    rng = np.random.default_rng(7)
    x = _representable(rng, (8, 64), 32, [0.5, 1.0, 4.0])
    q = quantize(x, MXFP4, rows1d(32))
    assert np.array_equal(dequantize(q), x)


def test_square2d_one_scale_per_tile():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((32, 32))
    q = quantize(x, NVFP4, square2d())
    assert q.scale_codes.shape == (2, 2)
    # every element of a tile shares the tile scale: dequantized column reads
    # equal dequantized row reads of the same data
    deq = dequantize(q)
    assert deq.shape == x.shape


def test_cols_layout_matches_transposed_rows():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 48))
    qc = quantize(x, NVFP4, cols1d(16))
    qr = quantize(x.T, NVFP4, rows1d(16))
    assert np.array_equal(dequantize(qc), dequantize(qr).T)


def test_padding_round_trip():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 23))
    for fmt in (NVFP4, MXFP4):
        q = quantize(x, fmt)
        assert dequantize(q).shape == x.shape


# 2688 * 2^-1013: 2^-9 * s_dec is the smallest normal float64
MIN_AMAX = 6 * 448 * 2.0 ** -1013


def _nvfp4_case(entries, fill=0.0):
    x = np.full((4, 32), fill)
    for (r, c), v in entries.items():
        x[r, c] = v
    return x


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (4, 32),
              elements=st.floats(min_value=-100, max_value=100, width=64)))
# zero scale: block (0, 1) is 1e-8 of the tensor amax and decodes to zero
@example(_nvfp4_case({(0, 0): 1.0}, fill=1e-8))
# subnormal scale rounded down by a third: hard clip of 0.329 amax_b
@example(_nvfp4_case({(0, 0): 448.0, (0, 16): 1.49 * 2.0 ** -9}))
# normal scale rounded up by 18/17, then the E2M1 tie 5.0 goes to 4
@example(_nvfp4_case({(0, 0): 448.0, (0, 16): 1.0625 + 1e-9,
                      (0, 17): 0.9375}))
# scale rounded up from the subnormal range to 2^-6 by 16/15, then a tie
@example(_nvfp4_case({(0, 0): 448.0, (0, 16): 15 * 2.0 ** -10 + 2.0 ** -30,
                      (0, 17): 5 / 6 * 2.0 ** -6}))
# tensor amax below the nvfp4 minimum
@example(np.full((4, 32), 2.225e-308))
def test_nvfp4_elementwise_error_bound(x):
    # Per 16-block with amax b and unit u = stored scale * s_dec: a zero
    # scale decodes to zero; otherwise |err| <= max(u, b - 6u) (half the
    # widest E2M1 gap, or the clip); a normal scale (>= 2^-6) is at most
    # 16/15 of ideal, so |err| <= (16/15)/6 * b.
    amax = np.abs(x).max()
    if 0 < amax < MIN_AMAX:
        with pytest.raises(ScaleRangeError):
            quantize(x, NVFP4, rows1d(16))
        return
    q = quantize(x, NVFP4, rows1d(16))
    deq = dequantize(q).reshape(4, 2, 16)
    err = np.abs(deq - x.reshape(4, 2, 16)).max(axis=2)
    b = np.abs(x.reshape(4, 2, 16)).max(axis=2)
    scale = q.scale_values()
    u = scale * q.global_decode_scale
    ulps = 4 * np.finfo(np.float64).eps * b
    assert not deq[scale == 0].any()
    assert np.all(err <= np.maximum(u, b - 6 * u) + ulps)
    normal = scale >= 2.0 ** -6
    assert np.all(err[normal] <= 16 / 15 / 6 * b[normal] + ulps[normal])


def test_nvfp4_min_amax_precondition():
    assert NVFP4_MIN_AMAX == MIN_AMAX
    x = np.array([[3e-303] + [0.0] * 31])
    with pytest.raises(ScaleRangeError, match="scale range"):
        quantize(x, NVFP4, rows1d(16))
    # at the minimum an all-zero block still encodes
    x[0, 0] = MIN_AMAX
    q = quantize(x, NVFP4, rows1d(16))
    assert dequantize(q)[0, 0] == MIN_AMAX and not dequantize(q)[0, 1:].any()


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (2, 32),
              elements=st.floats(min_value=-100, max_value=100, width=64)))
@example(np.full((2, 32), 1e-40))  # flushes to zero: an error of 1.0 * amax_b
def test_mxfp4_elementwise_error_bound(x):
    q = quantize(x, MXFP4, rows1d(32))
    deq = dequantize(q)
    amax_b = np.abs(x).max(axis=1, keepdims=True)
    # round-up scaling can waste a binade: gaps up to amax/3; under the
    # clamped scale 2^-127 a block whose amax is at most 2^-129 flushes to 0
    bound = np.maximum(amax_b / 3, 2.0 ** -129)
    assert np.all(np.abs(deq - x) <= bound * (1 + 4 * np.finfo(np.float64).eps))


def test_mxfp4_subnormal_block_flushes_to_zero():
    # amax_b / 6 underflows to zero here; the scale still clamps to 2^-127
    x = np.full((2, 32), 5e-324)
    x[1] = 1.0
    q = quantize(x, MXFP4, rows1d(32))
    assert q.scale_codes[0, 0] == 0
    deq = dequantize(q)
    assert not deq[0].any() and np.array_equal(deq[1], x[1])


@st.composite
def _extreme_rows(draw):
    """Rows of 32 whose magnitudes spread from 2^-1074 up to a per-row top:
    below 2^-127 (a clamped mxfp4 scale), up to 2^128 (the largest mxfp4
    scale; small elements scale to subnormals), or up to 2^1000 (nvfp4
    only) when hi is 1000."""
    n = draw(st.integers(1, 4))
    hi = draw(st.sampled_from([128, 1000]))
    tops = draw(arrays(np.int64, (n, 1), elements=st.one_of(
        st.integers(-1074, -128), st.integers(-127, hi), st.just(128))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exps = rng.integers(-1074, tops, endpoint=True, size=(n, 32))
    exps[:, 0] = tops[:, 0]
    mant = rng.uniform(1.0, 2.0, (n, 32)) * rng.choice([-1.0, 1.0], (n, 32))
    return np.ldexp(mant, exps)


@settings(max_examples=50, deadline=None)
@given(_extreme_rows())
@example(np.ldexp(1.0, np.array([[128] + [-1074] * 31, [-200] * 31 + [-1074]])))
def test_single_multiply_at_extreme_magnitudes(x):
    # mxfp4 scales by multiplying with 2^-k.  Dividing by 2^k rounds the same
    # real number, so the division is the oracle, subnormal results included.
    # For both formats, the multipliers rebuilt from the stored scales are
    # the ones the encoder applied: x times them encodes to q's codes.
    amax = np.abs(x).max()
    for mode in (NEAREST, Stochastic(("extreme-magnitudes",))):
        if amax / 6 > 2.0 ** 127:
            with pytest.raises(ScaleRangeError):
                quantize(x, MXFP4, rows1d(32), mode)
        else:
            q = quantize(x, MXFP4, rows1d(32), mode)
            want = codecs._encode_e2m1(x / decode_ue8m0(q.scale_codes), mode)
            assert np.array_equal(q.codes, want)
            assert _encodes_with_its_multipliers(x, q, mode)
        if amax < NVFP4_MIN_AMAX:
            with pytest.raises(ScaleRangeError):
                quantize(x, NVFP4, rows1d(16), mode)
        else:
            q = quantize(x, NVFP4, rows1d(16), mode)
            assert _encodes_with_its_multipliers(x, q, mode)


def _encodes_with_its_multipliers(x, q, mode):
    """x times encode_multipliers(q), each row block's multiplier repeated
    over its block, encodes in mode to q's codes bit for bit."""
    enc = np.repeat(encode_multipliers(q), q.layout.block_len, axis=1)
    return np.array_equal(codecs._encode_e2m1(x * enc, mode), q.codes)


def test_format_repr_has_no_function_address():
    # the scale rule is a function; its repr would carry a memory address
    assert "0x" not in repr(PrecisionPolicy())
    assert "scale_rule" not in repr(MXFP4)


def test_quantize_rejects_nonfinite():
    bad = np.ones((2, 16))
    bad[1, 3] = np.inf
    with pytest.raises(NonFiniteInputError):
        quantize(bad, NVFP4)


def test_quantize_nonfinite_message_names_flat_index():
    bad = np.ones((2, 16))
    bad[1, 3] = -np.inf
    with pytest.raises(NonFiniteInputError,
                       match="^non-finite value at flat index 19: -inf$"):
        quantize(bad, NVFP4)
    with pytest.raises(NonFiniteInputError, match="flat index 35: -inf$"):
        quantize(np.pad(bad, ((0, 0), (0, 16))), MXFP4)


@pytest.mark.parametrize("fmt, layout", [(NVFP4, cols1d(16)), (NVFP4, square2d()),
                                         (MXFP4, rows1d(32))])
def test_quantize_makes_one_finiteness_pass(monkeypatch, fmt, layout):
    # The block amax checks the input; only sr_round, being public, checks
    # its operand again.  Before, an SR quantize made five full passes.
    checked = []
    real = codecs.check_finite

    def counting(x, where=""):
        checked.append(np.size(x))
        return real(x, where)

    monkeypatch.setattr(codecs, "check_finite", counting)
    monkeypatch.setattr(blockquant, "check_finite", counting)
    x = np.random.default_rng(4).standard_normal((40, 64))
    quantize(x, fmt, layout)
    assert checked == []
    q = quantize(x, fmt, layout, Stochastic(("finite-once",)))
    assert checked == [q.codes.size]  # the padded blocks sr_round rounds
    x[17, 5] = np.nan
    with pytest.raises(NonFiniteInputError, match="flat index 1093: nan$"):
        quantize(x, fmt, layout)


# --- decoded values ------------------------------------------------------------

@pytest.mark.parametrize("fmt, layout", [
    (NVFP4, rows1d(16)), (NVFP4, cols1d(16)), (NVFP4, square2d()),
    (MXFP4, rows1d(32)), (MXFP4, cols1d(32))])
def test_unscaled_values_cached_read_only_and_exact(fmt, layout):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((37, 45)) * rng.lognormal(0.0, 2.0, (37, 1))
    q = quantize(x, fmt, layout)
    br, bc = q.block_map.block_shape
    scales = np.repeat(np.repeat(q.scale_values(), br, axis=0), bc, axis=1)
    want = decode_e2m1(q.codes) * scales
    u = q.unscaled_values()
    assert np.array_equal(u, want) and q.unscaled_values() is u
    for arr in (u, q.codes, q.scale_codes):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    deq = dequantize(q)
    deq += 1.0  # dequantize returns a fresh array, never the cache
    assert np.array_equal(q.unscaled_values(), want)


# --- QuantizedTensor validation ------------------------------------------------

def _valid_q():
    return quantize(np.random.default_rng(0).standard_normal((16, 16)), NVFP4,
                    rows1d(16))


def test_quantized_tensor_shape_checks():
    q = _valid_q()
    with pytest.raises(LayoutError):
        QuantizedTensor(q.shape, q.codes[:, :8], q.scale_codes, q.layout,
                        q.fmt, q.global_decode_scale)
    with pytest.raises(LayoutError):
        QuantizedTensor(q.shape, q.codes, q.scale_codes[:, :0], q.layout,
                        q.fmt, q.global_decode_scale)


def test_quantized_tensor_scale_presence():
    q = _valid_q()
    with pytest.raises(QuantizationError):
        QuantizedTensor(q.shape, q.codes, q.scale_codes, q.layout, NVFP4, None)
    qm = quantize(np.ones((2, 32)), MXFP4, rows1d(32))
    with pytest.raises(QuantizationError):
        QuantizedTensor(qm.shape, qm.codes, qm.scale_codes, qm.layout,
                        MXFP4, 1.0)


def test_quantized_tensor_layout_format_coupling():
    qm = quantize(np.ones((2, 32)), MXFP4, rows1d(32))
    with pytest.raises(LayoutError):
        QuantizedTensor(qm.shape, qm.codes, qm.scale_codes, rows1d(16),
                        MXFP4, None)


def test_quantized_tensors_compare_by_identity():
    # Comparing the arrays field by field would raise on their truth value;
    # a tensor equals itself only, and hashes.
    x = np.random.default_rng(6).standard_normal((16, 32))
    q, again = quantize(x, NVFP4), quantize(x, NVFP4)
    assert q == q and not (q == again) and q != again
    assert len({hash(q), hash(again)}) == 2 and {q: 1}[q] == 1
