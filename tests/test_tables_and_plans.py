"""The bucket code tables, the reused Philox generator and the cached block
plans, each against the computation it stands in for."""

import sys
import threading

import numpy as np
import pytest
from test_codec_oracles import _oracle_encode_e2m1, _oracle_encode_e4m3, _same

from fp4sim import blockquant, codecs, rng
from fp4sim.blockquant import NVFP4, cols1d, encode_multipliers, quantize, rows1d, square2d
from fp4sim.codecs import NEAREST, Stochastic

# --- bucket tables ---------------------------------------------------------------


def _bucket_edges(w):
    """The bottom of every finite bucket of top w bits (+0.0 and -0.0
    among them), and the next double away from zero, inside the bucket."""
    keys = np.arange(1 << w, dtype=np.uint64)
    bottom = (keys << np.uint64(64 - w)).view(np.float64)
    bottom = bottom[np.isfinite(bottom)]
    return bottom, np.nextafter(bottom, np.copysign(np.inf, bottom))


def test_e2m1_table_matches_the_walk_at_every_key():
    bottom, away = _bucket_edges(14)
    zeros = bottom[bottom == 0]
    assert len(zeros) == 2 and np.signbit(zeros).tolist() == [False, True]
    for x in (bottom, away):
        _same(codecs._encode_e2m1(x, NEAREST),
              _oracle_encode_e2m1(x, NEAREST, None))


def test_e4m3_table_matches_the_oracle_at_every_key():
    for x in _bucket_edges(16):
        _same(codecs._encode_e4m3(x), _oracle_encode_e4m3(x))


def test_e2m1_decode_rejects_codes_outside_four_bits():
    for codes in (np.array([16], np.uint8), np.array([-1]), np.array([3, 99])):
        with pytest.raises(codecs.InvalidCodeError):
            codecs.decode_e2m1(codes)
    assert codecs.decode_e2m1(np.arange(16, dtype=np.uint8)).tobytes() == \
        codecs.E2M1_VALUES.tobytes()


# --- one reused Philox generator -----------------------------------------------------


def _fresh_uniforms(key, count, start):
    bg = np.random.Philox(key=key)
    bg.advance(start // 4)
    return np.random.Generator(bg).random(start % 4 + count)[start % 4:]


def test_uniforms_equal_a_fresh_philox_over_interleaved_keys_and_starts():
    keys = [rng.stream_key("reuse", i) for i in range(3)]
    for start in (0, 1, 2, 3, 5, 6, 7, 13, 4097):
        for key in keys:  # each call follows one on another key
            assert rng.uniforms(key, 37, start).tobytes() == \
                _fresh_uniforms(key, 37, start).tobytes()


def test_reused_generator_keeps_nothing_from_earlier_draws():
    key = rng.stream_key("after")
    # leave the generator mid-block, with a spare 32-bit half
    gen = rng._generator(rng.stream_key("before"), 3)
    gen.bit_generator.random_raw(3)
    gen.integers(0, 10, size=3, dtype=np.uint32)
    assert rng.uniforms(key, 9, 6).tobytes() == _fresh_uniforms(key, 9, 6).tobytes()
    gen.integers(0, 10, size=1, dtype=np.uint32)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal((7, 3))
    assert rng.normals(key, (7, 3)).tobytes() == want.tobytes()


def test_threads_draw_their_own_streams():
    # more threads than cores, switching often, each drawing its own
    # streams through its own generator
    keys = [rng.stream_key("thread", i) for i in range(6)]
    want = {i: _fresh_uniforms(k, 5000, 0).tobytes() for i, k in enumerate(keys)}
    got, errors = {}, []

    def draw(i):
        try:
            for _ in range(20):
                u = rng.uniforms_at(keys[i], range(5000))
                got[i] = u.tobytes()
        except Exception as e:  # reported below
            errors.append(e)

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and got == want


# --- block plans and SR positions ----------------------------------------------------

_PLAN_CASES = [
    ((64, 64), rows1d(16)),
    ((37, 45), rows1d(16)),    # padded
    ((40, 16), cols1d(16)),    # one column of blocks
    ((48, 32), cols1d(16)),
    ((37, 45), cols1d(16)),    # padded
    ((20, 16), square2d()),    # one column of tiles, padded
    ((32, 48), square2d()),
    ((300, 257), rows1d(16)),  # past one chunk
]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape, layout", _PLAN_CASES)
def test_block_positions_draw_the_uniforms_of_the_gathered_arange(shape, layout, order):
    # Whatever the layout and memory order, stochastic rounding gives the
    # element at (r, c) of the padded tensor the uniform at r * C_p + c: the
    # uniforms of the arange over the padded shape, which the oracle gathers.
    x = np.asarray(np.random.default_rng(7).standard_normal(shape) * 3, order=order)
    mode = Stochastic(("plan", *shape))
    q = quantize(x, NVFP4, layout, mode)
    (rp, cp), (br, bc), (gr, gc) = (q.block_map.padded_shape, q.block_map.block_shape,
                                    q.block_map.grid_shape)
    xp = np.zeros((rp, cp))
    xp[:shape[0], :shape[1]] = x
    enc = encode_multipliers(q)
    scaled = (xp.reshape(gr, br, gc, bc) * enc[:, None, :, None]).reshape(rp, cp)
    positions = np.arange(rp)[:, None] * cp + np.arange(cp)
    want = _oracle_encode_e2m1(scaled, mode, positions)
    assert q.codes.tobytes() == want.tobytes()


def _quantize_sr_recording(monkeypatch, x, layout):
    """quantize(x) stochastically, and the positions it asked uniforms_at for."""
    seen = []
    real = codecs.uniforms_at

    def recording(key, positions):
        seen.append(positions)
        return real(key, positions)

    monkeypatch.setattr(codecs, "uniforms_at", recording)
    return quantize(x, NVFP4, layout, Stochastic(("in-order",))), seen


@pytest.mark.parametrize("layout", [rows1d(16), cols1d(16), square2d()])
def test_sr_quantize_draws_at_in_order_positions(monkeypatch, layout):
    x = np.random.default_rng(8).standard_normal((37, 45))
    q, seen = _quantize_sr_recording(monkeypatch, x, layout)
    rp, cp = q.block_map.padded_shape
    # stretches of the stream that cover the padded positions in order
    assert all(isinstance(r, range) and r.step == 1 for r in seen)
    assert [i for r in seen for i in r] == list(range(rp * cp))


def test_sr_quantize_draws_a_chunk_of_positions_at_a_time(monkeypatch):
    x = np.random.default_rng(9).standard_normal((300, 257))
    q, seen = _quantize_sr_recording(monkeypatch, x, rows1d(16))
    n = q.codes.size
    assert n > rng._CHUNK and len(seen) > 1
    assert all(isinstance(r, range) and r.step == 1 and len(r) <= rng._CHUNK
               for r in seen)
    # the ranges tile 0 .. n - 1 in order
    assert seen[0].start == 0 and seen[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))


def test_position_arrays_gather_the_prefix():
    key = rng.stream_key("views")
    p = np.arange(96).reshape(8, 12)
    prefix = rng.uniforms(key, 96)
    for view in (p, p[::-1], p[:, ::-1], p.T, p[:, :6], p[2:], p.reshape(12, 8)[:, 1:]):
        assert rng.uniforms_at(key, view).tobytes() == prefix[view].tobytes()
    assert rng.uniforms_at(key, range(6, 15)).tobytes() == rng.uniforms(key, 9, 6).tobytes()
    assert rng.uniforms_at(key, range(7, 7)).shape == (0,)
    with pytest.raises(ValueError):
        rng.uniforms_at(key, range(-2, 5))
    assert rng.uniforms_at(key, range(0, 96, 2)).tobytes() == prefix[::2].tobytes()


def test_block_map_built_once_per_shape_and_layout(monkeypatch):
    calls = []
    real = blockquant.block_decompose

    def counting(shape, layout):
        calls.append((shape, layout))
        return real(shape, layout)

    monkeypatch.setattr(blockquant, "block_decompose", counting)
    blockquant._block_map.cache_clear()
    x = np.random.default_rng(5).standard_normal((24, 40))
    first = quantize(x, NVFP4, rows1d(16))
    for mode in (NEAREST, Stochastic(("plan-once",))):
        assert quantize(x, NVFP4, rows1d(16), mode).block_map is first.block_map
    quantize(x, NVFP4, cols1d(16))
    assert calls == [((24, 40), rows1d(16)), ((24, 40), cols1d(16))]
