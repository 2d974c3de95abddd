"""A QuantizedTensor built directly obeys the scale rules read_tensor
applies: no scale code or tensor scale decodes to a sign-flipped, NaN or
2^128 value."""

import re

import numpy as np
import pytest

from fp4sim.blockquant import (
    MXFP4,
    NVFP4,
    QuantizedTensor,
    ScaleCodeError,
    cols1d,
    dequantize,
    quantize,
    rows1d,
)
from fp4sim.codecs import InvalidCodeError, ScaleRangeError, decode_e4m3, decode_ue8m0
from fp4sim.gemm import scaled_gemm
from fp4sim.tensorfile import TensorFileError, read_tensor, write_tensor


def _ones(fmt):
    return quantize(np.ones((4, fmt.block_len)), fmt, rows1d(fmt.block_len))


def _rebuilt(q, scale_codes=None, global_decode_scale="same"):
    return QuantizedTensor(
        q.shape, q.codes, q.scale_codes if scale_codes is None else scale_codes,
        q.layout, q.fmt,
        q.global_decode_scale if global_decode_scale == "same" else global_decode_scale)


@pytest.mark.parametrize("fmt, code, what", [
    (NVFP4, 0x80 | 56, "sign bit"),   # decoded to -1 before
    (NVFP4, 0x7F, "NaN pattern"),
    (NVFP4, 0xFF, "NaN pattern"),
    (MXFP4, 0xFF, "0xFF"),            # decoded to 2^128 before
    (NVFP4, -72, "sign bit"),         # a signed array: 0xB8, -1 before
    (MXFP4, -1, "0xFF"),              # a signed array: decoded to 2^-128 before
])
def test_invalid_scale_code_raises_on_first_decode(fmt, code, what):
    q = _ones(fmt)
    scales = np.array(q.scale_codes, dtype=np.int64 if code < 0 else np.uint8)
    scales[2, 0] = code
    bad = _rebuilt(q, scales)  # construction reads no scale
    with pytest.raises(ScaleCodeError, match=what) as e:
        dequantize(bad)
    assert e.value.index == 2 and isinstance(e.value, InvalidCodeError)
    with pytest.raises(ScaleCodeError):
        bad.scale_values()


def test_invalid_ue8m0_code_fails_the_product_instead_of_overflowing():
    # scaled_gemm returned 3.7e78 for this operand before
    qa = _ones(MXFP4)
    scales = np.array(qa.scale_codes)
    scales[0, 0] = 0xFF
    qb = quantize(np.ones((32, 3)), MXFP4, cols1d(32))
    with pytest.raises(ScaleCodeError, match="0xFF"):
        scaled_gemm(_rebuilt(qa, scales), qb)


@pytest.mark.parametrize("s_dec", [np.nan, -2.0, 0.0, -0.0, np.inf, 1e305])
def test_invalid_tensor_scale_raises_at_construction(s_dec):
    q = _ones(NVFP4)
    with pytest.raises(ScaleRangeError, match="tensor-level decode scale"):
        _rebuilt(q, global_decode_scale=s_dec)


@pytest.mark.parametrize("fmt, decode, legal, what", [
    # E4M3 scales are the positive non-NaN codes; UE8M0 scales all but 0xFF
    (NVFP4, decode_e4m3, range(0x7F), "E4M3 scale code with the sign bit set or "
                                      "the NaN pattern"),
    (MXFP4, decode_ue8m0, range(0xFF), "UE8M0 scale code 0xFF (NaN)"),
])
def test_every_scale_code_decodes_or_is_named(tmp_path, fmt, decode, legal, what):
    q = quantize(np.ones((4, 2 * fmt.block_len)), fmt, rows1d(fmt.block_len))
    path = str(tmp_path / "q.fp4t")
    write_tensor(path, q)
    with open(path, "rb") as f:
        good = f.read()
    at = 5  # flat index in the (4, 2) scale grid
    offset = 36 + (q.codes.size + 1) // 2 + at  # after the header and codes
    for code in [*range(256), -1]:
        scales = np.array(q.scale_codes, dtype=np.int64 if code < 0 else np.uint8)
        scales.reshape(-1)[at] = code
        t = _rebuilt(q, scales)
        if code in legal:
            want = decode(np.array(scales, dtype=np.uint8))
            assert t.scale_values().tobytes() == want.tobytes(), code
            continue
        with pytest.raises(ScaleCodeError) as e:
            t.scale_values()
        assert (e.value.what, e.value.index) == (f"{what} 0x{code:02X}", at)
        if code < 0:
            continue  # a container holds bytes
        with open(path, "wb") as f:
            f.write(good[:offset] + bytes([code]) + good[offset + 1:])
        message = f"{what} 0x{code:02X} at byte offset {offset}"
        with pytest.raises(TensorFileError, match=re.escape(message) + "$"):
            read_tensor(path)
