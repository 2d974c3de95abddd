"""Binary container for wide and quantized 2-D tensors.

Single little-endian layout with a version byte, so golden fixtures can be
shared across languages and checked bitwise.  Header (36 bytes):

    offset  size  field
    0       4     magic b"FP4T"
    4       1     version (1)
    5       1     dtype: 0 = wide binary64, 1 = quantized
    6       1     format: 0 = none, 1 = nvfp4, 2 = mxfp4
    7       1     layout kind: 0 = none, 1 = rows, 2 = cols, 3 = square
    8       2     block_len (uint16; 0 when wide)
    10      2     reserved (0)
    12      8     rows (uint64)
    20      8     cols (uint64)
    28      8     tensor-level decode scale (float64; 0.0 when absent)

Payload for wide files is rows*cols float64 values, row-major.  Payload for
quantized files is the code array over the zero-padded shape packed two
codes per byte (low nibble first, row-major), followed by the scale-code
grid as raw uint8, row-major.  The header fully determines the payload
length; a length mismatch is a format error.  Writes go through a temp
file and os.replace so readers never observe partial files.

The reader also rejects, naming the field or byte offset: zero rows or
cols, header fields that contradict the format, a nonzero code in the
zero padding (scaled_gemm contracts over padded blocks, so it would change
products that dequantize does not show), an nvfp4 tensor scale that is
not positive or would decode past the float64 range, and block scale
codes the encoders never write (E4M3 with the sign bit set or the NaN
pattern, UE8M0 0xFF).  The last two are QuantizedTensor's own rules
(blockquant.check_tensor_scale, and the check at the first decode of the
scale codes), which the reader applies on read and locates in the file.
"""

from __future__ import annotations

import os
import stat
import struct
import tempfile

import numpy as np

from .blockquant import (
    FORMATS,
    LayoutError,
    QuantizedTensor,
    ScaleCodeError,
    ScalingLayout,
    _block_map,
    check_layout,
    check_tensor_scale,
)
from .codecs import QuantizationError

MAGIC = b"FP4T"
VERSION = 1
_HEADER = struct.Struct("<4sBBBBHHQQd")

_FMT_BYTE = {"nvfp4": 1, "mxfp4": 2}
_FMT_NAME = {v: k for k, v in _FMT_BYTE.items()}
_KIND_BYTE = {"rows": 1, "cols": 2, "square": 3}
_KIND_NAME = {v: k for k, v in _KIND_BYTE.items()}


class TensorFileError(ValueError):
    """Malformed container: bad magic, version, header fields, or length."""


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Codes packed two per byte, low nibble first, in row-major order."""
    flat = codes.reshape(-1)
    packed = flat[0::2].astype(np.uint8)
    packed[:flat.size // 2] |= flat[1::2].astype(np.uint8) << 4
    return packed


def _unpack_codes(raw: np.ndarray, padded_shape: tuple[int, int]) -> np.ndarray:
    lo = raw & 0x0F
    hi = raw >> 4
    flat = np.empty(raw.size * 2, np.uint8)
    flat[0::2] = lo
    flat[1::2] = hi
    n = padded_shape[0] * padded_shape[1]
    return flat[:n].reshape(padded_shape)


def atomic_write(path: str, buffers) -> None:
    """Write the buffers one after another to a temp file, then rename it
    over path, so readers never observe a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for buf in buffers:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _bytes_of(a: np.ndarray) -> memoryview:
    """The C-contiguous array a as a flat byte buffer, without a copy."""
    return memoryview(a).cast("B")


def write_tensor(path: str, t: np.ndarray | QuantizedTensor) -> None:
    if isinstance(t, QuantizedTensor):
        header = _HEADER.pack(
            MAGIC, VERSION, 1, _FMT_BYTE[t.fmt.name],
            _KIND_BYTE[t.layout.kind], t.layout.block_len, 0,
            t.shape[0], t.shape[1],
            0.0 if t.global_decode_scale is None else t.global_decode_scale)
        scales = np.ascontiguousarray(t.scale_codes, dtype=np.uint8)
        payload = [_bytes_of(_pack_codes(t.codes)), _bytes_of(scales)]
    else:
        x = np.asarray(t, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise TensorFileError(
                "wide tensors must be 2-D with at least one row and column")
        header = _HEADER.pack(MAGIC, VERSION, 0, 0, 0, 0, 0,
                              x.shape[0], x.shape[1], 0.0)
        payload = [_bytes_of(np.ascontiguousarray(x))]
    atomic_write(path, [header, *payload])


def _read_exact(f, a: np.ndarray, offset: int) -> None:
    """Fill the C-contiguous array a from f, which is at byte offset."""
    got = f.readinto(_bytes_of(a))
    if got != a.nbytes:
        raise TensorFileError(
            f"payload ends at byte {offset + got}, expected {a.nbytes} bytes "
            f"from offset {offset}")


def _check_payload_length(f, expected: int, kind: str) -> None:
    """Compare a regular file's payload length with the header's before
    the payload is allocated.  A pipe has no length to compare; its
    payload is checked as it is read."""
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size - _HEADER.size != expected:
        raise TensorFileError(f"{kind} payload length "
                              f"{st.st_size - _HEADER.size} != expected {expected}")


def _payload_array(shape, dtype) -> np.ndarray:
    """Room for a payload.  A pipe's payload size comes from the header
    alone, and a corrupt header can ask for more than can be allocated."""
    try:
        return np.empty(shape, dtype)
    except (ValueError, MemoryError) as e:
        raise TensorFileError(f"payload of shape {shape} cannot be "
                              f"allocated: {e}") from None


def _check_end(f, offset: int) -> None:
    if f.read(1):
        raise TensorFileError(f"payload continues past its end at byte {offset}")


def read_tensor(path: str) -> np.ndarray | QuantizedTensor:
    """Read a container, validating its header before it allocates the
    payload and its scale codes before it returns; any defect raises
    TensorFileError naming the field or byte offset."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TensorFileError("file shorter than header")
        (magic, version, dtype, fmt_byte, kind_byte, block_len, reserved,
         rows, cols, s_dec) = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TensorFileError("bad magic (not a tensor container)")
        if version != VERSION:
            raise TensorFileError(f"unsupported version {version}")
        if reserved != 0:
            raise TensorFileError("reserved header bytes must be zero")
        if rows == 0 or cols == 0:
            raise TensorFileError(
                f"rows (offset 12) and cols (offset 20) must be positive, "
                f"got {rows}x{cols}")
        if dtype == 0:
            if (fmt_byte, kind_byte, block_len, s_dec) != (0, 0, 0, 0.0):
                raise TensorFileError(
                    "wide header must have format, layout, block_len and "
                    "tensor scale (offsets 6-9, 28) zero")
            _check_payload_length(f, rows * cols * 8, "wide")
            x = _payload_array((rows, cols), np.float64)
            _read_exact(f, x, _HEADER.size)
            _check_end(f, _HEADER.size + x.nbytes)
            return x

        if dtype != 1:
            raise TensorFileError(f"unknown dtype byte {dtype} at offset 5")
        fmt_name = _FMT_NAME.get(fmt_byte)
        if fmt_name is None:
            raise TensorFileError(f"unknown format byte {fmt_byte} at offset 6")
        fmt = FORMATS[fmt_name]
        kind = _KIND_NAME.get(kind_byte)
        if kind is None:
            raise TensorFileError(f"unknown layout kind byte {kind_byte} at offset 7")
        try:
            layout = ScalingLayout(kind, block_len)
            check_layout(fmt, layout)
        except LayoutError as e:
            raise TensorFileError(f"block_len at offset 8 is {block_len}, which a "
                                  f"{kind} layout of {fmt.name} does not allow: {e}") from None
        if fmt.has_tensor_scale:
            try:
                check_tensor_scale(fmt, s_dec)
            except QuantizationError as e:
                raise TensorFileError(f"offset 28: {e}") from None
        elif s_dec != 0.0:
            raise TensorFileError(
                f"{fmt.name} carries no tensor-level scale; offset 28 holds "
                f"{s_dec!r}")
        bm = _block_map((rows, cols), layout)
        n_codes = (bm.padded_shape[0] * bm.padded_shape[1] + 1) // 2
        _check_payload_length(f, n_codes + bm.n_blocks, "quantized")
        packed = _payload_array(n_codes, np.uint8)
        _read_exact(f, packed, _HEADER.size)
        scales = _payload_array(bm.grid_shape, np.uint8)
        _read_exact(f, scales, _HEADER.size + n_codes)
        _check_end(f, _HEADER.size + n_codes + scales.nbytes)
    codes = _unpack_codes(packed, bm.padded_shape)
    # only the padding is read: right of the tensor, then below it
    pad = [*np.argwhere(codes[:rows, cols:]) + (0, cols),
           *np.argwhere(codes[rows:]) + (rows, 0)]
    if pad:  # the first in row-major order
        (i, j), width = pad[0], codes.shape[1]
        raise TensorFileError(f"nonzero code in the zero padding at byte "
                              f"offset {_HEADER.size + (i * width + j) // 2}")
    q = QuantizedTensor(
        shape=(rows, cols), codes=codes,
        scale_codes=scales, layout=layout, fmt=fmt,
        global_decode_scale=s_dec if fmt.has_tensor_scale else None)
    try:
        q.scale_values()  # decodes the scale codes once, checking them
    except ScaleCodeError as e:
        raise TensorFileError(f"{e.what} at byte offset "
                              f"{_HEADER.size + n_codes + e.index}") from None
    return q
