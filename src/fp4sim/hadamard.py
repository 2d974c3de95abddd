"""Tiled random Hadamard transforms for spreading outliers before encoding.

A d x d orthonormal Hadamard matrix (Sylvester construction, every entry
+-1/sqrt(d)), optionally with sign-randomized rows, is applied to each
d-length segment along the dot-product dimension of a GEMM operand.  Because
H @ H.T = I, applying H to the K-segments of A and H.T to the matching
K-segments of B leaves A @ B unchanged in exact arithmetic while making the
individual operand entries closer to Gaussian, which is what the block
encoders prefer.

apply_rht_tiled promises the rounding of the plain product loop: every
product rounded on its own and summed from +0.0 in ascending input index.
Its kernel keeps that order while sharing the partial sums that the
Sylvester sign pattern makes equal; a fast Walsh-Hadamard butterfly would
add in another order and change the bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import _CHUNK, stream_key, uniforms
from .schema import check_fields, raise_errors


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class HadamardSpec:
    """Transform size and sign-randomization identity.

    d must be a power of two >= 2.  When randomized, the row-sign vector is
    drawn from a stream keyed by sign_seed, so equal specs build identical
    transforms in every process.
    """

    d: int = 16
    sign_seed: int = 0
    randomized: bool = True

    def __post_init__(self):
        power_of_two = (lambda d: d >= 2 and not d & (d - 1)), "must be a power of two >= 2"
        raise_errors(check_fields(self, d=power_of_two), DimensionError)


def sign_vector(spec: HadamardSpec) -> np.ndarray:
    """Row signs in {-1, +1}; all ones when randomization is off."""
    if not spec.randomized:
        return np.ones(spec.d)
    u = uniforms(stream_key("rht-sign", spec.sign_seed, spec.d), spec.d)
    return np.where(u < 0.5, -1.0, 1.0)


@functools.lru_cache(maxsize=64)
def build_hadamard(spec: HadamardSpec) -> np.ndarray:
    """Orthonormal (sign-randomized) Hadamard matrix for the spec.

    Sylvester doubling from [[1]]; each entry is +-1/sqrt(d), and rows are
    flipped by the spec's sign vector.  Deterministic in the spec alone
    (and cached on it; the returned array is read-only).
    """
    h = np.array([[1.0]])
    size = 1
    while size < spec.d:
        h = np.block([[h, h], [h, -h]])
        size *= 2
    h = h / np.sqrt(spec.d)
    h = sign_vector(spec)[:, None] * h
    h.setflags(write=False)
    return h


def apply_rht_tiled(x, spec: HadamardSpec) -> np.ndarray:
    """Multiply every d-length segment along the last axis by H.

    With h = build_hadamard(spec), each row segment v becomes v @ h, and
    output j of a segment is exactly

        (((+0.0 + v[0] * h[0, j]) + v[1] * h[1, j]) + ...) + v[d-1] * h[d-1, j]

    in binary64: the sum starts at +0.0, runs in ascending input index, and
    rounds every product on its own (no fused multiply-add).  The result is
    therefore bitwise reproducible regardless of tiling or batching.  It has
    the memory layout of np.zeros_like(x.reshape(m, k // d, d)) reshaped to
    (m, k): an F-ordered x gives an F-ordered result.  The last axis must be
    a multiple of d (apply_rht_padded pads first).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError("expected a 2-D operand")
    m, k = x.shape
    d = spec.d
    if k % d:
        raise DimensionError(
            f"last axis {k} is not a multiple of the transform size {d}")
    h = build_hadamard(spec)
    xr = x.reshape(m, k // d, d)
    # zeros_like's layout, as documented: sums downstream run in memory order
    out = np.empty_like(xr)
    tiles = xr.shape[1]
    # tiles per chunk times d is _CHUNK: one chunk's scratch (inputs,
    # partial sums and a product buffer) is about 2.5 * _CHUNK doubles
    per_chunk = max(1, _CHUNK // d)
    ct = max(1, min(tiles, per_chunk))
    cr = per_chunk // ct
    size = d * min(m, cr) * ct
    t_buf, acc_buf, prod_buf = np.empty(size), np.empty(size), np.empty(size // 2)
    for r0 in range(0, m, cr):
        for t0 in range(0, tiles, ct):
            src = xr[r0:r0 + cr, t0:t0 + ct]
            n = src.shape[0] * src.shape[1]
            t = t_buf[:d * n].reshape(d, src.shape[0], src.shape[1])
            np.copyto(t, src.transpose(2, 0, 1))
            acc = acc_buf[:d * n].reshape(d, n)
            _transform_tiles(t.reshape(d, n), h, acc,
                             prod_buf[:d * n // 2].reshape(d // 2, n))
            out[r0:r0 + cr, t0:t0 + ct] = acc.reshape(t.shape).transpose(1, 2, 0)
    return out.reshape(m, k)


def _transform_tiles(t, h, acc, prod) -> None:
    """The sums of apply_rht_tiled for the tiles in the columns of t (d, n),
    written to acc (d, n); prod (d/2, n) is scratch.

    An input that is zero in every tile is skipped: its products are +-0.0,
    the running sum starts at +0.0 and can never become -0.0, and adding
    +-0.0 to it changes nothing.  Over inputs i < 2w (w a power of two),
    h[i, j] depends only on j mod 2w (Sylvester order), and so do the
    partial sums: acc keeps one row per distinct partial sum.  For i in
    [w, 2w) and j < w, h[i, j + w] = -h[i, j] exactly, so output j + w
    subtracts the product that output j adds, which is adding the product
    the plain loop adds.
    """
    d = t.shape[0]
    live = t.any(axis=1)
    acc[0] = 0.0
    if live[0]:
        np.multiply(t[0], h[0, 0], out=prod[0])
        acc[0] += prod[0]
    period, w = 1, 1
    while w < d:
        rows = np.flatnonzero(live[w:2 * w])
        if rows.size:
            # outputs j and j mod period have had the same sums so far
            acc[:2 * w].reshape(2 * w // period, period, -1)[1:] = acc[:period]
            period = 2 * w
            lo, hi, p = acc[:w], acc[w:2 * w], prod[:w]
            stage_h, stage_t = h[w:2 * w, :w, None], t[w:2 * w]
            for i in rows.tolist():
                np.multiply(stage_h[i], stage_t[i], out=p)
                np.add(lo, p, out=lo)
                np.subtract(hi, p, out=hi)
        w *= 2
    if period < d:
        acc.reshape(d // period, period, -1)[1:] = acc[:period]


def apply_rht_padded(x, spec: HadamardSpec) -> np.ndarray:
    """apply_rht_tiled after zero-padding the last axis to a multiple of d.

    np.pad keeps an F-ordered x F-ordered, and the result's memory order
    follows x's (downstream sums run in memory order).
    """
    x = np.asarray(x, dtype=np.float64)
    pad = -x.shape[-1] % spec.d
    if pad:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)])
    return apply_rht_tiled(x, spec)


def rht_pair(a, b, spec: HadamardSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transform both operands of a @ b along the contracted dimension.

    a is (m, k), b is (k, n).  The contracted dimension is zero-padded to a
    transform multiple (padding contributes nothing to the product), then A
    gets H on its row segments and B gets H^T on its column segments, so
    the product is preserved.
    """
    return apply_rht_padded(a, spec), apply_rht_padded(np.asarray(b).T, spec).T

