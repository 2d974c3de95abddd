import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fp4sim import blockquant, codecs, gemm
from fp4sim.blockquant import (
    MXFP4,
    NVFP4,
    QuantizedTensor,
    cols1d,
    dequantize,
    quantize,
    rows1d,
    square2d,
)
from fp4sim.codecs import E2M1_GRID
from fp4sim.gemm import (
    GemmError,
    NotTransposableError,
    dequant_matmul,
    scaled_gemm,
    transpose_quantized_view,
)


def _rel_fro(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _pair(rng, fmt, m=64, k=64, n=64, square_weight=False):
    a = rng.standard_normal((m, k)) * np.exp(rng.normal(0, 1.5, (m, 1)))
    b = rng.standard_normal((k, n))
    qa = quantize(a, fmt, rows1d(fmt.block_len))
    wl = square2d() if square_weight else cols1d(fmt.block_len)
    qb = quantize(b, fmt, wl)
    return qa, qb


@pytest.mark.parametrize("fmt", [NVFP4, MXFP4])
def test_oracle_equivalence(fmt):
    rng = np.random.default_rng(0)
    for _ in range(10):
        qa, qb = _pair(rng, fmt)
        assert _rel_fro(scaled_gemm(qa, qb), dequant_matmul(qa, qb)) <= 1e-10


def test_oracle_equivalence_square_weights():
    rng = np.random.default_rng(1)
    for _ in range(5):
        qa, qb = _pair(rng, NVFP4, square_weight=True)
        assert _rel_fro(scaled_gemm(qa, qb), dequant_matmul(qa, qb)) <= 1e-10


def test_oracle_equivalence_ragged_shapes():
    rng = np.random.default_rng(2)
    qa, qb = _pair(rng, NVFP4, m=7, k=48, n=19)
    got = scaled_gemm(qa, qb)
    assert got.shape == (7, 19)
    assert _rel_fro(got, dequant_matmul(qa, qb)) <= 1e-10


def test_identity_operand_passthrough():
    rng = np.random.default_rng(3)
    qi = quantize(np.eye(16), NVFP4, rows1d(16))
    assert np.array_equal(dequantize(qi), np.eye(16))
    qb = quantize(rng.standard_normal((16, 16)), NVFP4, cols1d(16))
    got = scaled_gemm(qi, qb)
    assert np.allclose(got, dequantize(qb), rtol=0, atol=1e-15)


def test_zero_operand_annihilates():
    rng = np.random.default_rng(4)
    qa = quantize(np.zeros((16, 32)), NVFP4, rows1d(16))
    qb = quantize(rng.standard_normal((32, 16)), NVFP4, cols1d(16))
    assert np.array_equal(scaled_gemm(qa, qb), np.zeros((16, 16)))


def test_square_scale_replication_is_bitwise():
    # a square-tiled left operand must equal its rows-replicated 1D image
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 32))
    qs = quantize(x, NVFP4, square2d())
    q1 = QuantizedTensor(
        shape=qs.shape,
        codes=qs.codes,
        scale_codes=np.repeat(qs.scale_codes, 16, axis=0),
        layout=rows1d(16),
        fmt=NVFP4,
        global_decode_scale=qs.global_decode_scale,
    )
    qb = quantize(rng.standard_normal((32, 32)), NVFP4, cols1d(16))
    assert np.array_equal(scaled_gemm(qs, qb), scaled_gemm(q1, qb))


def test_gemm_operand_validation():
    rng = np.random.default_rng(7)
    qa = quantize(rng.standard_normal((16, 16)), NVFP4, rows1d(16))
    qb = quantize(rng.standard_normal((16, 16)), NVFP4, cols1d(16))
    qm = quantize(rng.standard_normal((16, 32)), MXFP4, cols1d(32))
    with pytest.raises(GemmError):
        scaled_gemm(qa, qm)  # format mismatch
    with pytest.raises(GemmError):
        scaled_gemm(qa, qa)  # right operand scaled along rows
    with pytest.raises(GemmError):
        scaled_gemm(qb, qb)  # left operand scaled along columns
    qwide = quantize(rng.standard_normal((16, 32)), NVFP4, rows1d(16))
    with pytest.raises(GemmError):
        scaled_gemm(qwide, qb)  # inner dimensions differ


def test_transpose_view_square_exact():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((48, 32))
    q = quantize(x, NVFP4, square2d())
    v = transpose_quantized_view(q)
    assert v.shape == (32, 48)
    assert np.array_equal(dequantize(v), dequantize(q).T)
    # involution
    assert np.array_equal(dequantize(transpose_quantized_view(v)),
                          dequantize(q))


def test_transpose_view_reuses_decoded_values(monkeypatch):
    rng = np.random.default_rng(14)
    q = quantize(rng.standard_normal((48, 32)), NVFP4, square2d())
    fresh = transpose_quantized_view(q).unscaled_values()  # from the view's codes
    q.unscaled_values()
    decodes = []
    real = blockquant.decode_e2m1

    def counting(codes):
        decodes.append(codes.shape)
        return real(codes)

    monkeypatch.setattr(blockquant, "decode_e2m1", counting)
    u = transpose_quantized_view(q).unscaled_values()
    assert decodes == []
    assert u.flags.c_contiguous and not u.flags.writeable
    assert u.tobytes() == fresh.tobytes()


def test_transpose_view_refused_for_1d():
    q = quantize(np.ones((16, 16)), NVFP4, rows1d(16))
    with pytest.raises(NotTransposableError):
        transpose_quantized_view(q)


def test_requantization_changes_generic_values():
    # the two orientations of a 1D layout generally disagree off the grid
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 32))
    qr = quantize(x, NVFP4, rows1d(16))
    qc = quantize(x, NVFP4, cols1d(16))
    assert not np.array_equal(dequantize(qr), dequantize(qc))


def test_requantization_agrees_on_representable_values():
    # every 16-block in both orientations carries a full-range element, so
    # the stored scales invert exactly and both layouts recover the input
    rng = np.random.default_rng(10)
    vals = rng.choice(E2M1_GRID, size=(32, 32))
    vals[::16, :] = 6.0
    vals[:, ::16] = 6.0
    qr = quantize(vals, NVFP4, rows1d(16))
    qc = quantize(vals, NVFP4, cols1d(16))
    assert np.array_equal(dequantize(qr), vals)
    assert np.array_equal(dequantize(qc), vals)


# --- the certified one-matmul path against the block loop ----------------------

_LAYOUT_PAIRS = {
    "nvfp4 rows/cols": (NVFP4, rows1d(16), cols1d(16)),
    "nvfp4 square": (NVFP4, square2d(), square2d()),
    "nvfp4 rows/square": (NVFP4, rows1d(16), square2d()),
    "mxfp4 rows/cols": (MXFP4, rows1d(32), cols1d(32)),
}


def _lognormal_pair(pair, m, k, n, sigma, seed):
    fmt, layout_a, layout_b = _LAYOUT_PAIRS[pair]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) * rng.lognormal(0.0, sigma, (m, 1))
    b = rng.standard_normal((k, n))
    return quantize(a, fmt, layout_a), quantize(b, fmt, layout_b)


def _loop_gemm(qa, qb):
    """The block loop with the tensor-level scales applied."""
    block_k = 16 if qa.layout.kind == "square" else qa.layout.block_shape[1]
    out = gemm._block_loop(qa, qb, block_k)[:qa.shape[0], :qb.shape[1]]
    if qa.fmt.has_tensor_scale:
        out = out * (qa.global_decode_scale * qb.global_decode_scale)
    return out


def _lowest_bit(q):
    """Smallest lowest set bit of the nonzero block scales, in exact rationals."""
    bits = []
    for s in np.unique(q.scale_values()):
        if s > 0:
            f = Fraction(float(s))
            bits.append(Fraction(f.numerator & -f.numerator, f.denominator))
    return min(bits)


def _bound_ratio(qa, qb):
    """The certificate's bound over its limit 2^52 * g."""
    ua = qa.unscaled_values()[:qa.shape[0]]
    ub = qb.unscaled_values()[:, :qb.shape[1]]
    bound = (Fraction(float(np.abs(ua).sum(axis=1).max()))
             * Fraction(float(np.abs(ub).max())))
    grid = Fraction(1, 4) * _lowest_bit(qa) * _lowest_bit(qb)
    return float(bound / (2 ** 52 * grid))


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(sorted(_LAYOUT_PAIRS)), m=st.integers(1, 70),
       k=st.integers(1, 70), n=st.integers(1, 70),
       sigma=st.floats(0.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
@example(pair="mxfp4 rows/cols", m=5, k=40, n=7, sigma=7.69, seed=10)
@example(pair="mxfp4 rows/cols", m=5, k=40, n=7, sigma=7.88, seed=106)
def test_certified_gemm_is_bitwise_block_loop(pair, m, k, n, sigma, seed):
    qa, qb = _lognormal_pair(pair, m, k, n, sigma, seed)
    assert scaled_gemm(qa, qb).tobytes() == _loop_gemm(qa, qb).tobytes()


@pytest.mark.parametrize("sigma, seed, certified", [(7.69, 10, True),
                                                    (7.88, 106, False)])
def test_certificate_examples_straddle_the_bound(sigma, seed, certified):
    # the two pinned examples above sit within a factor of 2 of the bound
    qa, qb = _lognormal_pair("mxfp4 rows/cols", 5, 40, 7, sigma, seed)
    ratio = _bound_ratio(qa, qb)
    assert 0.5 <= ratio < 2 and (ratio < 1) == certified
    assert gemm._certified_exact(qa, qb, 5, 7) == certified


def test_uncertified_product_reuses_decoded_values(monkeypatch):
    # the block loop multiplies the cached unscaled values; it decodes no
    # codes and expands no scales a second time
    qa, qb = _lognormal_pair("mxfp4 rows/cols", 5, 40, 7, 7.88, 106)
    assert not gemm._certified_exact(qa, qb, 5, 7)
    qa.unscaled_values(), qb.unscaled_values()
    decodes = []
    real = codecs.decode_e2m1

    def counting(codes):
        decodes.append(codes.shape)
        return real(codes)

    for module in (codecs, blockquant, gemm):
        monkeypatch.setattr(module, "decode_e2m1", counting, raising=False)
    scaled_gemm(qa, qb)
    assert decodes == []


def test_exact_zero_entries_are_positive_zero():
    rng = np.random.default_rng(12)
    a = -np.abs(rng.standard_normal((16, 32)))
    b = rng.standard_normal((32, 16))
    b[:, 3] = 0.0
    qa, qb = quantize(a, NVFP4, rows1d(16)), quantize(b, NVFP4, cols1d(16))
    assert gemm._certified_exact(qa, qb, 16, 16)
    col = scaled_gemm(qa, qb)[:, 3]
    assert (col == 0).all() and not np.signbit(col).any()


def _digest(out):
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


def test_outputs_match_pinned_block_loop_digests():
    # digests of the block loop's outputs, taken before the certified path
    # existed
    rng = np.random.default_rng(12)
    a = rng.standard_normal((40, 200)) * np.exp(rng.normal(0, 3.0, (40, 200)))
    b = rng.standard_normal((200, 24))
    qa, qb = quantize(a, NVFP4, rows1d(16)), quantize(b, NVFP4, cols1d(16))
    assert _digest(scaled_gemm(qa, qb)) == (
        "39f3efc021bfe6be0c451739b58a524b13270bed98a77a3b944e37c90213e1a8")
    for fmt, square, want in (
            (NVFP4, True, "b53608f1bdaee9e34287c0cb593005922259d771213af28afbfd0def34a538d0"),
            (MXFP4, False, "9b9b41637ff040373ea2ad207efd0c95fb6f20997dc13ad23b3e6cbeb2674757")):
        qa, qb = _pair(np.random.default_rng(11), fmt, m=40, k=72, n=24,
                       square_weight=square)
        assert _digest(scaled_gemm(qa, qb)) == want


@pytest.mark.parametrize("fmt", [NVFP4, MXFP4])
def test_block_scales_decoded_once(monkeypatch, fmt):
    # scale_values() caches the decoded scales; the certificate, the
    # multipliers, the unscaled values and a transposed view all read it
    rng = np.random.default_rng(13)
    qa, qb = _pair(rng, fmt, m=48, k=96, n=40)
    qs = quantize(rng.standard_normal((32, 48)), NVFP4, square2d())
    decodes = []
    real = blockquant._gather  # the scale decode's one gather

    def counting(table, codes, what):
        decodes.append(codes.shape)
        return real(table, codes, what)

    monkeypatch.setattr(blockquant, "_gather", counting)
    scaled_gemm(qa, qb)
    scaled_gemm(qa, qb)
    blockquant.encode_multipliers(qa)
    assert decodes == [qa.scale_codes.shape, qb.scale_codes.shape]
    v = transpose_quantized_view(qs)
    assert len(decodes) == 3  # qs's scales, not the view's
    s = v.scale_values()
    assert s.flags.c_contiguous and not s.flags.writeable
    want = codecs.decode_e4m3(v.scale_codes)
    assert s.tobytes() == want.tobytes() and v.scale_values() is s
    assert np.array_equal(dequantize(v), dequantize(qs).T)
    assert len(decodes) == 3
    with pytest.raises(ValueError):
        qa.scale_values()[0, 0] = 1.0
