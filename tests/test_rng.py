import numpy as np
import pytest

from fp4sim.rng import normals, stream_key, uniforms


def test_stream_key_shape_and_determinism():
    k = stream_key("grad", 0, 3)
    assert k.dtype == np.uint64 and k.shape == (2,)
    assert np.array_equal(k, stream_key("grad", 0, 3))


def test_stream_key_separates_parts():
    # joined reprs must not collide across part boundaries
    assert not np.array_equal(stream_key("a", 1), stream_key("a1"))
    assert not np.array_equal(stream_key("a", 1), stream_key("a", 11))
    assert not np.array_equal(stream_key(1, 2), stream_key(12))


def test_uniforms_deterministic_and_in_range():
    k = stream_key("u", 7)
    a = uniforms(k, 1000)
    assert np.array_equal(a, uniforms(k, 1000))
    assert a.min() >= 0.0 and a.max() < 1.0


@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 8, 17, 1001])
def test_uniforms_offset_consistency(start):
    # position addressing: a draw's value is independent of where the
    # generated range starts (offsets cross the 4-draw Philox block)
    k = stream_key("offsets")
    whole = uniforms(k, start + 50)
    assert np.array_equal(uniforms(k, 50, start=start), whole[start:])


def test_uniforms_rejects_negative():
    k = stream_key("neg")
    with pytest.raises(ValueError):
        uniforms(k, -1)
    with pytest.raises(ValueError):
        uniforms(k, 1, start=-2)


def test_normals_deterministic_with_sane_moments():
    k = stream_key("gauss", 1)
    a = normals(k, (200, 50))
    assert np.array_equal(a, normals(k, (200, 50)))
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05


def test_distinct_keys_give_distinct_streams():
    a = uniforms(stream_key("s", 0), 100)
    b = uniforms(stream_key("s", 1), 100)
    assert not np.array_equal(a, b)
