import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fp4sim.codecs import (
    E2M1_GRID,
    E2M1_MAX,
    E2M1_VALUES,
    E4M3_MAX,
    E4M3_SMALLEST_POSITIVE,
    E4M3_VALUES,
    InvalidCodeError,
    NEAREST,
    NonFiniteInputError,
    ScaleRangeError,
    Stochastic,
    decode_e2m1,
    decode_e4m3,
    decode_ue8m0,
    encode_e2m1,
    encode_e4m3,
    encode_ue8m0_roundup,
    sr_round,
)

CODEBOOK = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


# --- E2M1 --------------------------------------------------------------------

def test_e2m1_codebook_exact():
    got = decode_e2m1(np.arange(16))
    want = np.array(CODEBOOK + [0.0] + [-v for v in CODEBOOK[1:]])
    assert np.array_equal(got, want)
    # both zero codes decode to a positive zero
    assert not np.signbit(decode_e2m1(np.array([0])))[0]
    assert not np.signbit(decode_e2m1(np.array([8])))[0]


def test_e2m1_grid_is_sorted_signed_codebook():
    assert len(E2M1_GRID) == 15
    assert np.array_equal(E2M1_GRID, np.sort(E2M1_GRID))
    assert set(E2M1_GRID) == {v for v in E2M1_VALUES}


def test_e2m1_round_trip_on_grid():
    codes = encode_e2m1(E2M1_GRID)
    assert np.array_equal(decode_e2m1(codes), E2M1_GRID)


@pytest.mark.parametrize("x,val", [
    (0.25, 0.0), (0.75, 1.0), (1.25, 1.0), (1.75, 2.0),
    (2.5, 2.0), (3.5, 4.0), (5.0, 4.0),
])
def test_e2m1_ties_to_even(x, val):
    assert decode_e2m1(encode_e2m1(np.array([x])))[0] == val
    assert decode_e2m1(encode_e2m1(np.array([-x])))[0] == -val


def test_e2m1_saturates():
    big = np.array([6.0, 6.5, 1e12, -7.0, -1e300])
    assert np.array_equal(decode_e2m1(encode_e2m1(big)),
                          [6.0, 6.0, 6.0, -6.0, -6.0])


def test_e2m1_rejects_nonfinite():
    with pytest.raises(NonFiniteInputError):
        encode_e2m1(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteInputError):
        encode_e2m1(np.array([np.inf]))


def test_nonfinite_message_names_flat_index_and_value():
    with pytest.raises(NonFiniteInputError,
                       match=r"^non-finite value at flat index 1: nan$"):
        encode_e2m1([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NonFiniteInputError, match=r"flat index 3: -inf$"):
        encode_e4m3(np.array([[0.0, 1.0], [2.0, -np.inf]]))


def test_decode_e2m1_rejects_wide_codes():
    with pytest.raises(InvalidCodeError):
        decode_e2m1(np.array([16]))


@given(st.floats(min_value=-10, max_value=10))
def test_e2m1_encode_is_nearest(x):
    got = decode_e2m1(encode_e2m1(np.array([x])))[0]
    best = min(abs(np.clip(x, -6, 6) - g) for g in E2M1_GRID)
    assert abs(np.clip(x, -6, 6) - got) == pytest.approx(best, abs=0)


def test_e2m1_encode_monotone():
    xs = np.sort(np.random.default_rng(0).uniform(-8, 8, 4000))
    dec = decode_e2m1(encode_e2m1(xs))
    assert np.all(np.diff(dec) >= 0)


# --- stochastic rounding -----------------------------------------------------

def test_sr_exact_grid_values_unchanged():
    s = Stochastic(key_parts=("sr-grid",))
    assert np.array_equal(sr_round(E2M1_GRID, s), E2M1_GRID)


def test_sr_snaps_to_bracketing_neighbors():
    rng = np.random.default_rng(1)
    x = rng.uniform(-7, 7, 3000)
    out = sr_round(x, Stochastic(key_parts=("sr-snap",)))
    xc = np.clip(x, -6, 6)
    j = np.searchsorted(E2M1_GRID, xc, side="right")
    lo = E2M1_GRID[j - 1]
    hi = E2M1_GRID[np.minimum(j, len(E2M1_GRID) - 1)]
    assert np.all((out == lo) | (out == hi))


def test_sr_deterministic_per_stream_and_counter():
    x = np.full(256, 0.3)
    s = Stochastic(key_parts=("sr-det", 0))
    a = sr_round(x, s)
    assert np.array_equal(a, sr_round(x, s))
    b = sr_round(x, Stochastic(key_parts=("sr-det", 1)))
    assert not np.array_equal(a, b)


def test_sr_mean_tracks_input():
    # unbiasedness smoke test; the tight bound lives in the acceptance suite
    x = np.full(200_000, 0.8)
    out = sr_round(x, Stochastic(key_parts=("sr-mean",)))
    assert abs(out.mean() - 0.8) < 3 * 0.5 / (2 * np.sqrt(x.size))


def test_sr_clamps_out_of_range():
    s = Stochastic(key_parts=("sr-clamp",))
    out = sr_round(np.array([9.0, -120.0]), s)
    assert np.array_equal(out, [6.0, -6.0])


# --- E4M3 --------------------------------------------------------------------

def test_e4m3_spot_values():
    assert decode_e4m3(np.array([0]))[0] == 0.0
    assert decode_e4m3(np.array([0x01]))[0] == E4M3_SMALLEST_POSITIVE == 2.0 ** -9
    assert decode_e4m3(np.array([126]))[0] == 448.0
    assert decode_e4m3(np.array([0x80 | 126]))[0] == -448.0
    # subnormal band: e=0 steps of 2^-9
    assert decode_e4m3(np.array([0x07]))[0] == 7 * 2.0 ** -9
    # first normal
    assert decode_e4m3(np.array([0x08]))[0] == 2.0 ** -6


def test_e4m3_nan_codes_rejected():
    for c in (0x7F, 0xFF):
        with pytest.raises(InvalidCodeError):
            decode_e4m3(np.array([c]))
    assert np.isnan(E4M3_VALUES[0x7F]) and np.isnan(E4M3_VALUES[0xFF])


def test_e4m3_round_trip_all_finite_codes():
    codes = np.array([c for c in range(256) if (c & 0x7F) != 0x7F])
    vals = E4M3_VALUES[codes]
    back = encode_e4m3(vals)
    # -0 canonicalizes to +0; everything else round-trips exactly
    want = codes.copy()
    want[want == 0x80] = 0
    assert np.array_equal(back, want.astype(np.uint8))


def test_e4m3_saturates_past_max():
    out = decode_e4m3(encode_e4m3(np.array([449.0, 1e30, -9999.0])))
    assert np.array_equal(out, [448.0, 448.0, -448.0])


def test_e4m3_zero_and_sign():
    assert encode_e4m3(np.array([0.0]))[0] == 0
    assert encode_e4m3(np.array([-0.0]))[0] == 0


@given(st.floats(min_value=-500, max_value=500))
def test_e4m3_encode_is_nearest(x):
    grid = E4M3_VALUES[:127]
    got = decode_e4m3(encode_e4m3(np.array([x])))[0]
    target = np.clip(abs(x), 0, E4M3_MAX)
    best = np.min(np.abs(grid - target))
    assert abs(abs(got) - target) == pytest.approx(best, abs=0)


def test_e4m3_ties_to_even_mantissa():
    grid = E4M3_VALUES[:127]
    # midpoints between adjacent normal grid values must land on the even
    # code of the pair
    for lo in (20, 57, 100, 121):
        mid = (grid[lo] + grid[lo + 1]) / 2
        got = encode_e4m3(np.array([mid]))[0]
        assert got == (lo if lo % 2 == 0 else lo + 1)


def test_e4m3_rejects_nonfinite():
    with pytest.raises(NonFiniteInputError):
        encode_e4m3(np.array([np.nan]))


# --- UE8M0 -------------------------------------------------------------------

def test_ue8m0_exact_powers_fixed():
    x = np.array([1.0, 2.0, 0.5, 2.0 ** 40, 2.0 ** -60])
    assert np.array_equal(decode_ue8m0(encode_ue8m0_roundup(x)), x)


def test_ue8m0_rounds_up():
    out = decode_ue8m0(encode_ue8m0_roundup(np.array([1.1, 0.9, 3.0, 5.0])))
    assert np.array_equal(out, [2.0, 1.0, 4.0, 8.0])


def test_ue8m0_clamps_below_range():
    assert encode_ue8m0_roundup(np.array([2.0 ** -200]))[0] == 0
    assert decode_ue8m0(np.array([0]))[0] == 2.0 ** -127


def test_ue8m0_range_errors():
    with pytest.raises(ScaleRangeError):
        encode_ue8m0_roundup(np.array([0.0]))
    with pytest.raises(ScaleRangeError):
        encode_ue8m0_roundup(np.array([-1.0]))
    with pytest.raises(ScaleRangeError):
        encode_ue8m0_roundup(np.array([2.0 ** 128]))
    with pytest.raises(ScaleRangeError):
        encode_ue8m0_roundup(np.array([np.nan]))


@settings(max_examples=200)
@given(st.floats(min_value=1e-30, max_value=1e30))
def test_ue8m0_is_smallest_covering_power(x):
    s = decode_ue8m0(encode_ue8m0_roundup(np.array([x])))[0]
    assert s >= x
    assert s / 2 < x
