import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fp4sim.hadamard import (
    DimensionError,
    HadamardSpec,
    apply_rht_tiled,
    build_hadamard,
    rht_pair,
    sign_vector,
)

EPS = np.finfo(np.float64).eps


def test_base_case_matrix():
    h = build_hadamard(HadamardSpec(d=2, randomized=False))
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.allclose(h, want, atol=1e-15)


@pytest.mark.parametrize("d", [2, 4, 16, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orthogonality(d, seed):
    h = build_hadamard(HadamardSpec(d=d, sign_seed=seed))
    err = np.abs(h @ h.T - np.eye(d)).max()
    assert err <= 8 * d * EPS


def test_entries_are_unit_magnitude():
    for d in (4, 16):
        h = build_hadamard(HadamardSpec(d=d, sign_seed=3))
        assert np.allclose(np.abs(h), 1 / np.sqrt(d))


def test_sign_vector_deterministic():
    spec = HadamardSpec(d=16, sign_seed=5)
    s = sign_vector(spec)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    assert np.array_equal(s, sign_vector(spec))
    assert not np.array_equal(s, sign_vector(HadamardSpec(d=16, sign_seed=6)))
    assert np.array_equal(sign_vector(HadamardSpec(d=16, randomized=False)),
                          np.ones(16))


def test_build_rejects_bad_dimension():
    for d in (0, 1, 3, 12):
        with pytest.raises(DimensionError):
            HadamardSpec(d=d)


def test_cached_matrix_is_readonly():
    h = build_hadamard(HadamardSpec(d=4))
    with pytest.raises(ValueError):
        h[0, 0] = 2.0


def test_apply_zeros_and_shape():
    spec = HadamardSpec(d=16)
    assert np.array_equal(apply_rht_tiled(np.zeros((3, 32)), spec),
                          np.zeros((3, 32)))


def test_apply_norm_preserved():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 64))
    y = apply_rht_tiled(x, HadamardSpec(d=16, sign_seed=1))
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


def test_single_spike_spreads_evenly():
    spec = HadamardSpec(d=16, sign_seed=2)
    x = np.zeros((1, 16))
    x[0, 0] = 9.6
    y = apply_rht_tiled(x, spec)
    assert np.allclose(np.abs(y), 9.6 / 4, atol=1e-12)


def test_tiles_transform_independently():
    spec = HadamardSpec(d=16, sign_seed=4)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 16)), rng.standard_normal((3, 16))
    joint = apply_rht_tiled(np.hstack([a, b]), spec)
    assert np.array_equal(joint[:, :16], apply_rht_tiled(a, spec))
    assert np.array_equal(joint[:, 16:], apply_rht_tiled(b, spec))


def test_apply_dimension_errors():
    spec = HadamardSpec(d=16)
    with pytest.raises(DimensionError):
        apply_rht_tiled(np.zeros((2, 17)), spec)
    with pytest.raises(DimensionError):
        apply_rht_tiled(np.zeros(16), spec)


def _pair_deviation(a, b, spec):
    """Max absolute deviation of (A H)(H^T B) from A B, both operands
    transformed by rht_pair."""
    ta, tb = rht_pair(a, b, spec)
    return np.abs(ta @ tb - a @ b).max()


def test_pair_identity_small_and_random():
    spec = HadamardSpec(d=16, sign_seed=0)
    assert _pair_deviation(np.eye(16), np.eye(16), spec) < 1e-10
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    assert _pair_deviation(a, b, spec) < 1e-8


def test_pair_identity_pads_the_contracted_dimension():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((8, 18)), rng.standard_normal((18, 4))
    spec = HadamardSpec(d=16, sign_seed=3)
    assert _pair_deviation(a, b, spec) < 1e-8 * np.linalg.norm(a @ b)


def test_pair_identity_breaks_with_mismatched_signs():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    ta = apply_rht_tiled(a, HadamardSpec(d=16, sign_seed=0))
    tb = apply_rht_tiled(b.T, HadamardSpec(d=16, sign_seed=1)).T
    assert np.abs(ta @ tb - a @ b).max() > 1.0


def test_transform_reduces_outlier_kurtosis():
    # heavy-tailed tile (one entry 100, rest standard normal): the transform
    # must flatten it in at least 99% of seeded trials
    spec = HadamardSpec(d=16, sign_seed=0)

    def kurt(v):
        c = v - v.mean()
        return np.mean(c ** 4) / np.mean(c ** 2) ** 2

    wins = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        tile = rng.standard_normal((1, 16))
        tile[0, rng.integers(16)] = 100.0
        wins += kurt(apply_rht_tiled(tile, spec)[0]) < kurt(tile[0])
    assert wins >= 990


# --- the kernel against the plain loop --------------------------------------

def _loop_rht(x, spec):
    """apply_rht_tiled as a plain loop over the input index: the reference
    the kernel must equal bit for bit, memory layout included."""
    x = np.asarray(x, dtype=np.float64)
    m, k = x.shape
    h = build_hadamard(spec)
    xr = x.reshape(m, k // spec.d, spec.d)
    out = np.zeros_like(xr)
    for i in range(spec.d):
        out += xr[:, :, i, None] * h[i]
    return out.reshape(m, k)


def _layout(x, order, rng):
    if order == "F":
        return np.asfortranarray(x)
    if order == "sliced":
        base = rng.standard_normal((2 * x.shape[0], 3 * x.shape[1]))
        base[::2, 1::3] = x
        return base[::2, 1::3]
    return x


@st.composite
def rht_cases(draw):
    """(x, spec): row scales over many binades, optional zero columns, a
    zero-padded upper half, signed zeros and subnormals, in C order,
    F order or as a strided view."""
    d = 2 ** draw(st.integers(1, 7))
    m, tiles = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.ldexp(rng.standard_normal((m, tiles * d)),
                 rng.integers(-1100, 1000, (m, 1)))
    if draw(st.booleans()):
        x[:, rng.random(x.shape[1]) < 0.4] = 0.0
    if draw(st.booleans()):
        x[:, x.shape[1] // 2:] = 0.0
    special = rng.random(x.shape)
    x[special < 0.1] = -0.0
    tiny = (special >= 0.1) & (special < 0.2)
    x[tiny] = 5e-324 * rng.integers(-4, 5, x.shape)[tiny]
    x = _layout(x, draw(st.sampled_from(["C", "F", "sliced"])), rng)
    spec = HadamardSpec(d=d, sign_seed=draw(st.integers(0, 99)),
                        randomized=draw(st.booleans()))
    return x, spec


@settings(max_examples=200, deadline=None)
@given(case=rht_cases())
def test_apply_matches_loop_bitwise_with_layout(case):
    x, spec = case
    got, want = apply_rht_tiled(x, spec), _loop_rht(x, spec)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@pytest.mark.parametrize("order", ["C", "F", "sliced"])
@pytest.mark.parametrize("d", [2, 16, 128])
def test_apply_non_finite_like_loop(order, d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((7, 2 * d))
    x[:, d + d // 2:] = 0.0
    x[1, 3] = np.inf
    x[2, 0], x[2, 1] = np.inf, -np.inf
    x[4, d] = np.nan
    x[5, 1] = -np.inf
    x = _layout(x, order, rng)
    spec = HadamardSpec(d=d, sign_seed=5)
    with np.errstate(invalid="ignore"):
        got, want = apply_rht_tiled(x, spec), _loop_rht(x, spec)
    nan = np.isnan(want)
    assert nan.any() and np.isinf(want).any()
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert got.strides == want.strides


def _pinned_inputs():
    rng = np.random.default_rng(2024)
    # Wgrad-like: dy.T padded from 64 to 128 along the batch, F-ordered
    wgrad = np.pad(rng.standard_normal((64, 48)).T, ((0, 0), (0, 64)))
    # row scales over many binades, C-ordered, with signed zeros
    rows = rng.standard_normal((6, 96)) * np.ldexp(1.0, rng.integers(-1070, 900, (6, 1)))
    rows[:, ::5] = -0.0
    # a strided view holding subnormals and whole zero columns
    base = np.zeros((24, 3 * 64))
    base[::2, ::3] = rng.standard_normal((12, 64))
    base[1::4, ::3] = 5e-324 * rng.integers(-4, 5, (6, 64))
    base[:, 3 * 7::3 * 8] = 0.0
    sliced = base[1::2, ::3]
    return [(wgrad, HadamardSpec(d=128, sign_seed=7)),
            (rows, HadamardSpec(d=16, randomized=False)),
            (sliced, HadamardSpec(d=32, sign_seed=3))]


def test_apply_matches_pinned_loop_digests():
    # sha256 of the plain loop's outputs and their strides, taken before
    # the kernel replaced it
    want = [((8, 384), "6da5b4b6830c8d7c5db37ea19009d0575db4404b372cc1a2e0a3c390fa9650fd"),
            ((768, 8), "ecd9d68091ebe52a730f279bcb27a60abfc3c0a44825f382492a4aaeb552fcaf"),
            ((512, 8), "23a4083b38548ab0fd9321bb08c99d72cafb5e99c5128e720bddc610d1df9979")]
    for (x, spec), (strides, digest) in zip(_pinned_inputs(), want):
        out = apply_rht_tiled(x, spec)
        assert out.strides == strides
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_apply_spans_chunks_like_loop():
    # more tiles than one chunk holds, in both directions of the tile grid
    rng = np.random.default_rng(8)
    for shape, d in (((3, 2 ** 14), 128), ((2 ** 12, 32), 16)):
        x = rng.standard_normal(shape)
        for xs in (x, np.asfortranarray(x)):
            spec = HadamardSpec(d=d, sign_seed=1)
            got, want = apply_rht_tiled(xs, spec), _loop_rht(xs, spec)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
