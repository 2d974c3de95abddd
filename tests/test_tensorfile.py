"""Binary tensor container: bitwise round trips, atomicity, and rejection
of malformed files."""

import os
import re
import struct
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fp4sim import blockquant
from fp4sim.blockquant import MXFP4, NVFP4, cols1d, dequantize, quantize, rows1d, square2d
from fp4sim.tensorfile import MAGIC, TensorFileError, read_tensor, write_tensor


def test_wide_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 13))
    x[0, 0] = -0.0
    x[1, 2] = np.inf
    x[2, 3] = -np.inf
    x[3, 4] = np.nan
    x[4, 5] = 5e-324  # smallest subnormal
    p = str(tmp_path / "wide.fp4t")
    write_tensor(p, x)
    back = read_tensor(p)
    assert isinstance(back, np.ndarray)
    assert back.tobytes() == x.tobytes()  # bit-identical, NaN included


def test_reading_a_container_builds_no_block_map(tmp_path, monkeypatch):
    # The reader sizes the payload from the cached block map that the
    # tensor it returns looks up again; quantize has cached this one.
    # block_decompose is counted wherever a module binds that name.
    q = quantize(np.random.default_rng(0).standard_normal((40, 72)), NVFP4, cols1d(16))
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    original, calls = blockquant.block_decompose, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "fp4sim" or name.startswith("fp4sim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    back = read_tensor(p)
    assert calls == []
    assert np.array_equal(back.codes, q.codes)
    assert back.block_map is q.block_map


@pytest.mark.parametrize("fmt,layout", [
    (NVFP4, rows1d(16)),
    (NVFP4, cols1d(16)),
    (NVFP4, square2d()),
    (MXFP4, rows1d(32)),
    (MXFP4, cols1d(32)),
])
def test_quantized_round_trip(tmp_path, fmt, layout):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((48, 48)) * np.exp(rng.standard_normal((48, 1)))
    q = quantize(x, fmt, layout)
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    back = read_tensor(p)
    assert back.shape == q.shape
    assert back.fmt.name == q.fmt.name
    assert back.layout == q.layout
    assert np.array_equal(back.codes, q.codes)
    assert np.array_equal(back.scale_codes, q.scale_codes)
    assert back.global_decode_scale == q.global_decode_scale
    assert np.array_equal(dequantize(back), dequantize(q))


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    q = quantize(rng.standard_normal((16, 32)), NVFP4, rows1d(16))
    p1 = str(tmp_path / "a.fp4t")
    p2 = str(tmp_path / "b.fp4t")
    write_tensor(p1, q)
    write_tensor(p2, read_tensor(p1))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_padded_shape_round_trip(tmp_path):
    # ragged shape: codes stored over the padded grid, shape restored exactly
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 23))
    q = quantize(x, NVFP4, rows1d(16))
    p = str(tmp_path / "ragged.fp4t")
    write_tensor(p, q)
    back = read_tensor(p)
    assert back.shape == (5, 23)
    assert np.array_equal(dequantize(back), dequantize(q))


def test_wide_rejects_non_2d(tmp_path):
    with pytest.raises(TensorFileError):
        write_tensor(str(tmp_path / "x.fp4t"), np.zeros(8))


def test_missing_file():
    with pytest.raises(OSError):
        read_tensor("/nonexistent/dir/x.fp4t")


def _valid_wide_blob():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    hdr = struct.Struct("<4sBBBBHHQQd").pack(MAGIC, 1, 0, 0, 0, 0, 0, 2, 3, 0.0)
    return hdr + x.tobytes()


@pytest.mark.parametrize("mutate,desc", [
    (lambda b: b"JUNK" + b[4:], "bad magic"),
    (lambda b: b[:4] + bytes([9]) + b[5:], "bad version"),
    (lambda b: b[:5] + bytes([7]) + b[6:], "unknown dtype"),
    (lambda b: b[:10] + b"\x01\x00" + b[12:], "nonzero reserved"),
    (lambda b: b[:-8], "truncated payload"),
    (lambda b: b + b"\x00" * 8, "oversized payload"),
    (lambda b: b[:20], "shorter than header"),
])
def test_malformed_wide_rejected(tmp_path, mutate, desc):
    p = str(tmp_path / "bad.fp4t")
    with open(p, "wb") as f:
        f.write(mutate(_valid_wide_blob()))
    with pytest.raises(TensorFileError):
        read_tensor(p)


def test_malformed_quantized_rejected(tmp_path):
    rng = np.random.default_rng(4)
    q = quantize(rng.standard_normal((16, 16)), NVFP4, rows1d(16))
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    with open(p, "rb") as f:
        blob = f.read()
    bad_fmt = blob[:6] + bytes([9]) + blob[7:]
    bad_kind = blob[:7] + bytes([8]) + blob[8:]
    short = blob[:-1]
    for variant in (bad_fmt, bad_kind, short):
        with open(p, "wb") as f:
            f.write(variant)
        with pytest.raises(TensorFileError):
            read_tensor(p)


def test_write_leaves_no_temp_files(tmp_path):
    rng = np.random.default_rng(5)
    p = str(tmp_path / "x.fp4t")
    write_tensor(p, rng.standard_normal((4, 4)))
    write_tensor(p, rng.standard_normal((4, 4)))  # overwrite
    assert sorted(os.listdir(tmp_path)) == ["x.fp4t"]


# --- zero-copy writer and reader -------------------------------------------------

_HDR = struct.Struct("<4sBBBBHHQQd")


def _parent_wide_bytes(x):
    """The container bytes of a wide array as the copying writer built them."""
    x = np.asarray(x, dtype=np.float64)
    return (_HDR.pack(MAGIC, 1, 0, 0, 0, 0, 0, x.shape[0], x.shape[1], 0.0)
            + np.ascontiguousarray(x).tobytes())


def _parent_quantized_bytes(q):
    """The container bytes of a quantized tensor as the copying writer
    built them."""
    flat = q.codes.astype(np.uint8).reshape(-1)
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, np.uint8)])
    pairs = flat.reshape(-1, 2)
    codes = (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8).tobytes()
    kind = {"rows": 1, "cols": 2, "square": 3}[q.layout.kind]
    fmt = {"nvfp4": 1, "mxfp4": 2}[q.fmt.name]
    s_dec = 0.0 if q.global_decode_scale is None else q.global_decode_scale
    header = _HDR.pack(MAGIC, 1, 1, fmt, kind, q.layout.block_len, 0,
                       q.shape[0], q.shape[1], s_dec)
    return header + codes + q.scale_codes.astype(np.uint8).tobytes()


def _wide_layouts():
    a = np.random.default_rng(6).standard_normal((9, 14))
    a[0, 0], a[1, 1], a[2, 2] = -0.0, np.nan, 5e-324
    strided = np.zeros((18, 29))[::2, 1::2]
    strided[...] = a
    return {"C": a, "F": np.asfortranarray(a), "strided": strided,
            "reversed": np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
            "transposed": a.T, "1x1": np.array([[-2.5]]),
            "row": a[3:4], "column": a[:, 5:6]}


@pytest.mark.parametrize("name", sorted(_wide_layouts()))
def test_wide_writer_matches_copying_writer(tmp_path, name):
    x = _wide_layouts()[name]
    p = str(tmp_path / "w.fp4t")
    write_tensor(p, x)
    with open(p, "rb") as f:
        assert f.read() == _parent_wide_bytes(x)
    back = read_tensor(p)
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (5, 23), (17, 33), (31, 47)])
@pytest.mark.parametrize("fmt,layout", [
    (NVFP4, rows1d(16)), (NVFP4, cols1d(16)), (NVFP4, square2d()),
    (MXFP4, rows1d(32)), (MXFP4, cols1d(32))])
@pytest.mark.parametrize("order", ["C", "F"])
def test_quantized_writer_matches_copying_writer(tmp_path, shape, fmt, layout, order):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape) * rng.lognormal(0.0, 2.0, (shape[0], 1))
    q = quantize(np.asarray(x, order=order), fmt, layout)
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    with open(p, "rb") as f:
        assert f.read() == _parent_quantized_bytes(q)
    back = read_tensor(p)
    assert np.array_equal(back.codes, q.codes)
    assert np.array_equal(back.scale_codes, q.scale_codes)
    assert np.array_equal(dequantize(back), dequantize(q))


def _fifo_read(tmp_path, blob):
    """read_tensor of blob streamed through a named pipe, which has no
    length for the reader to check before it reads."""
    p = str(tmp_path / "pipe.fp4t")
    os.mkfifo(p)

    def feed():
        with open(p, "wb") as f:
            f.write(blob)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_tensor(p)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_pipe_round_trip(tmp_path):
    blob = _valid_wide_blob()
    back = _fifo_read(tmp_path, blob)
    assert back.tobytes() == blob[36:]


@pytest.mark.parametrize("cut", [1, 8, 40])
def test_truncated_wide_payload_in_pipe_rejected(tmp_path, cut):
    blob = _parent_wide_bytes(np.arange(12.0).reshape(3, 4))
    with pytest.raises(TensorFileError, match="payload ends at byte"):
        _fifo_read(tmp_path, blob[:-cut])


def test_oversized_payload_in_pipe_rejected(tmp_path):
    with pytest.raises(TensorFileError, match="continues past its end"):
        _fifo_read(tmp_path, _valid_wide_blob() + b"\x00")


def test_pipe_header_asking_for_too_much_rejected(tmp_path):
    header = _HDR.pack(MAGIC, 1, 0, 0, 0, 0, 0, 2 ** 40, 2 ** 30, 0.0)
    with pytest.raises(TensorFileError, match="cannot be allocated"):
        _fifo_read(tmp_path, header + bytes(16))


def test_truncated_quantized_payload_rejected(tmp_path):
    q = quantize(np.random.default_rng(8).standard_normal((16, 48)), NVFP4, rows1d(16))
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    with open(p, "rb") as f:
        blob = f.read()
    for cut in (1, q.scale_codes.size, q.scale_codes.size + 3):
        with open(p, "wb") as f:
            f.write(blob[:-cut])
        with pytest.raises(TensorFileError, match="payload length"):
            read_tensor(p)
        pipe_dir = tmp_path / f"cut{cut}"
        pipe_dir.mkdir()
        with pytest.raises(TensorFileError, match="payload ends at byte"):
            _fifo_read(pipe_dir, blob[:-cut])


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    q = quantize(np.random.default_rng(9).standard_normal((16, 16)), NVFP4, rows1d(16))
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    with open(p, "rb") as f:
        before = f.read()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    for t in (q, np.ones((3, 5))):
        with pytest.raises(OSError, match="rename refused"):
            write_tensor(p, t)
    assert sorted(os.listdir(tmp_path)) == ["q.fp4t"]
    with open(p, "rb") as f:
        assert f.read() == before


def test_quantized_write_leaves_no_temp_files(tmp_path):
    rng = np.random.default_rng(10)
    p = str(tmp_path / "q.fp4t")
    for shape in ((16, 16), (5, 23)):
        write_tensor(p, quantize(rng.standard_normal(shape), MXFP4, rows1d(32)))
    assert sorted(os.listdir(tmp_path)) == ["q.fp4t"]


# --- validation on read ------------------------------------------------------------

def _container(fmt=NVFP4, layout=None, shape=(16, 32)):
    layout = layout or rows1d(fmt.block_len)
    x = np.random.default_rng(11).standard_normal(shape)
    q = quantize(x, fmt, layout)
    return bytearray(_parent_quantized_bytes(q)), q


def _scale_offset(q):
    return 36 + (q.codes.size + 1) // 2


def _corrupt_cases():
    """(name, container bytes, what the message must name)."""
    cases = []
    blob, q = _container(NVFP4)
    off = _scale_offset(q)
    for code in (0x80 | 0x38, 0x7F, 0xFF):
        b = bytearray(blob)
        b[off + 3] = code
        cases.append((f"e4m3 code 0x{code:02X}", b, f"byte offset {off + 3}"))
    for s_dec in (np.nan, np.inf, -1.0, 0.0, -0.0, 1e305):
        b = bytearray(blob)
        b[28:36] = struct.pack("<d", s_dec)
        cases.append((f"nvfp4 tensor scale {s_dec!r}", b, "offset 28"))
    blob_mx, q_mx = _container(MXFP4)
    b = bytearray(blob_mx)
    b[_scale_offset(q_mx)] = 0xFF
    cases.append(("ue8m0 code 0xFF", b, f"byte offset {_scale_offset(q_mx)}"))
    b = bytearray(blob_mx)
    b[28:36] = struct.pack("<d", 2.0)
    cases.append(("mxfp4 tensor scale", b, "offset 28"))
    for field, off in (("rows", 12), ("cols", 20)):
        b = bytearray(blob)
        b[off:off + 8] = bytes(8)
        cases.append((f"{field}=0", b, f"offset {off}"))
        b = bytearray(_valid_wide_blob())
        b[off:off + 8] = bytes(8)
        cases.append((f"wide {field}=0", b, f"offset {off}"))
    for block_len in (0, 8, 32):
        b = bytearray(blob)
        b[8:10] = struct.pack("<H", block_len)
        cases.append((f"block_len {block_len}", b, "offset 8"))
    b = bytearray(blob_mx)
    b[7] = 3
    cases.append(("mxfp4 square", b, "offset 8"))
    b = bytearray(_valid_wide_blob())
    b[6] = 1
    cases.append(("wide with a format byte", b, "offsets 6-9, 28"))
    return cases


@pytest.mark.parametrize("name,blob,names", _corrupt_cases(),
                         ids=[c[0] for c in _corrupt_cases()])
def test_corrupt_container_rejected_naming_field(tmp_path, name, blob, names):
    p = str(tmp_path / "bad.fp4t")
    with open(p, "wb") as f:
        f.write(blob)
    with pytest.raises(TensorFileError, match=re.escape(names)):
        read_tensor(p)


def _poke_code(blob, index, code):
    """blob with the code at row-major flat index of the padded code array
    replaced (two codes per byte, low nibble first)."""
    b = bytearray(blob)
    off = 36 + index // 2
    b[off] = (b[off] & 0xF0 | code) if index % 2 == 0 else (b[off] & 0x0F | code << 4)
    return b


@pytest.mark.parametrize("layout,shape,pokes,first", [
    # 4x20 rows16 pads to 4x32: (0, 25) is right of the tensor
    (rows1d(16), (4, 20), [(0, 25)], 25),
    # 20x3 cols16 pads to 32x3: (25, 0) is below it
    (cols1d(16), (20, 3), [(25, 0)], 75),
    # the first in row-major order is named, right of the tensor or below it
    (rows1d(16), (20, 20), [(19, 31), (3, 20), (17, 4)], 3 * 32 + 20),
])
def test_nonzero_padding_code_rejected(tmp_path, layout, shape, pokes, first):
    # such a container used to read cleanly and dequantize to its values,
    # while scaled_gemm, which contracts over the padded blocks, was off
    blob, q = _container(NVFP4, layout, shape)
    width = q.codes.shape[1]
    for r, c in pokes:
        blob = _poke_code(blob, r * width + c, 7)
    p = str(tmp_path / "pad.fp4t")
    with open(p, "wb") as f:
        f.write(blob)
    with pytest.raises(TensorFileError, match=re.escape(
            f"zero padding at byte offset {36 + first // 2}")):
        read_tensor(p)


def test_largest_encoded_tensor_scale_reads_back(tmp_path):
    # amax = the largest float64 gives the largest tensor scale the encoder
    # writes; its 6 * 448 * s_dec is still finite, so the reader accepts it
    x = np.full((1, 16), np.finfo(np.float64).max)
    q = quantize(x, NVFP4, rows1d(16))
    p = str(tmp_path / "q.fp4t")
    write_tensor(p, q)
    assert np.array_equal(dequantize(read_tensor(p)), dequantize(q))


_FUZZ_BASES = {"nvfp4": _container(NVFP4, shape=(16, 32)),
               "nvfp4_square": _container(NVFP4, square2d(), shape=(16, 32)),
               "mxfp4": _container(MXFP4, cols1d(32), shape=(32, 16))}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_BASES)),
       st.lists(st.tuples(st.integers(0, 35), st.integers(0, 255)), max_size=4),
       st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 255)), max_size=4))
def test_fuzzed_header_and_scales_never_decode_silently(base, header_edits,
                                                        scale_edits):
    blob, q = _FUZZ_BASES[base]
    blob = bytearray(blob)
    for off, value in header_edits:
        blob[off] = value
    off = _scale_offset(q)
    for i, value in scale_edits:
        blob[off + i % q.scale_codes.size] = value
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "fuzz.fp4t")
        with open(p, "wb") as f:
            f.write(blob)
        try:
            t = read_tensor(p)
        except TensorFileError:
            return
    if isinstance(t, np.ndarray):
        assert t.shape == struct.unpack_from("<QQ", blob, 12)
        return
    scales = t.scale_values()
    assert np.all(scales >= 0) and not np.any(np.signbit(scales))
    assert np.all(np.isfinite(dequantize(t)))
