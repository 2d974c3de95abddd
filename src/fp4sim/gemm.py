"""Matrix products over block-scaled 4-bit operands.

The emulated tensor-core contract: within each K-block, raw code products
accumulate exactly (code values are dyadic rationals no larger than 6, so
every inner product of a block is exact in binary64 in any summation order);
each block's partial sum is descaled by the product of the two stored block
scales; descaled partials accumulate across K-blocks in ascending block
order; finally the tensor-level decode scales multiply once.  Results are
therefore bitwise reproducible and independent of how the inner products
were scheduled.

scaled_gemm computes this contract with one binary64 matmul of the unscaled
decoded operands U_a and U_b (code value times block scale, both exact) when
exact arithmetic certifies that the matmul cannot round.  Every product of
an element of U_a and one of U_b is an integer multiple of the grid
g = 0.25 * g_a * g_b, where g_a is the smallest lowest set bit over the
nonzero block scales of A (code values are multiples of 0.5), and g_b the
same for B.  When max_i sum_k |U_a[i, k]| * max |U_b| < 2^52 * g, every
product and every partial sum is an exactly representable multiple of g, so
the matmul equals the block loop bit for bit in any summation order, fused
multiply-adds included.  The certificate uses 2^52, not 2^53, so that the
bound, itself computed in binary64, cannot round below its true value.  The
block loop runs instead when the bound fails or when an operand has no
nonzero block scale.
"""

from __future__ import annotations

import numpy as np

from .blockquant import SCALE_CODE_LIMIT, QuantizedTensor, _read_only
from .codecs import E4M3_VALUES, decode_ue8m0


class GemmError(ValueError):
    pass


class NotTransposableError(GemmError):
    pass


def scaled_gemm(qa: QuantizedTensor, qb: QuantizedTensor) -> np.ndarray:
    """(m, k) @ (k, n) on quantized operands, descaled per K-block.

    qa must carry scales along its rows ("rows" segments or square tiles)
    and qb along its columns ("cols" or square), so both operands share the
    K-block boundaries of the contracted dimension: check_layout gives each
    layout the block length of its format, and the formats must match.
    """
    if qa.fmt.name != qb.fmt.name:
        raise GemmError(f"operand formats differ: {qa.fmt.name} vs {qb.fmt.name}")
    if qa.layout.kind not in ("rows", "square"):
        raise GemmError("left operand must be scaled along rows (or in squares)")
    if qb.layout.kind not in ("cols", "square"):
        raise GemmError("right operand must be scaled along columns (or in squares)")
    m, ka = qa.shape
    kb, n = qb.shape
    if ka != kb:
        raise GemmError(f"inner dimensions differ: {ka} vs {kb}")

    block_k = qa.layout.block_shape[1]
    if _certified_exact(qa, qb, m, n):
        out = qa.unscaled_values()[:m] @ qb.unscaled_values()[:, :n]
        # BLAS leaves the sign of an exactly-zero sum open; the loop gives +0
        out += 0.0
    else:
        out = _block_loop(qa, qb, block_k)
    if qa.fmt.has_tensor_scale:
        out *= qa.global_decode_scale * qb.global_decode_scale
    return out


def _lowest_bit_table(values: np.ndarray, limit: int) -> np.ndarray:
    """The lowest set bit of every scale code's decoded value, and inf for
    a zero scale or a code at or above limit (one the encoders never
    write); read-only."""
    table = np.full(256, np.inf)
    ok = (np.arange(256) < limit) & (values > 0)
    mant, exp = np.frexp(values[ok])
    ints = (mant * 2.0 ** 53).astype(np.int64)
    table[ok] = np.ldexp(ints & -ints, exp - 53)
    table.setflags(write=False)
    return table


_LOWEST_BIT = {
    "e4m3": _lowest_bit_table(E4M3_VALUES, SCALE_CODE_LIMIT["e4m3"]),
    "ue8m0": _lowest_bit_table(decode_ue8m0(np.arange(256)), SCALE_CODE_LIMIT["ue8m0"]),
}


def _lowest_scale_bit(q: QuantizedTensor) -> float:
    """Smallest lowest set bit over the nonzero block scales of q (0.0 when
    every scale is zero): every scale is an integer multiple of it."""
    low = float(_LOWEST_BIT[q.fmt.scale_codec].take(q.scale_codes).min())
    return low if low < np.inf else 0.0


def _certified_exact(qa: QuantizedTensor, qb: QuantizedTensor,
                     m: int, n: int) -> bool:
    """Whether the first m rows of qa's unscaled values times the first n
    columns of qb's are exact in any summation order (module docstring)."""
    grid = 0.25 * _lowest_scale_bit(qa) * _lowest_scale_bit(qb)
    if grid == 0.0:
        return False
    ua, ub = qa.unscaled_values()[:m], qb.unscaled_values()[:, :n]
    bound = np.abs(ua).sum(axis=1).max() * max(ub.max(), -ub.min())
    return bool(bound < 2.0 ** 52 * grid)


def _block_loop(qa: QuantizedTensor, qb: QuantizedTensor,
                block_k: int) -> np.ndarray:
    """The contract computed literally, block by block, over the output's
    rows and columns: the reference that the certified product must equal.

    Each K-block product of the unscaled values is exactly that block's code
    partial descaled by s_a * s_b: every term is s_a * s_b times a multiple
    of 0.25, and the partial, below 2^11 * s_a * s_b, has at most 21
    significant bits (a scale has at most 4) and stays in the normal range
    even at 2^-127 * 2^-127.
    """
    ua = qa.unscaled_values()[:qa.shape[0]]
    ub = qb.unscaled_values()[:, :qb.shape[1]]
    out = np.zeros((ua.shape[0], ub.shape[1]))
    for k0 in range(0, ua.shape[1], block_k):
        out += ua[:, k0:k0 + block_k] @ ub[k0:k0 + block_k]
    return out


def transpose_quantized_view(q: QuantizedTensor) -> QuantizedTensor:
    """Reinterpret a square-tiled tensor as its transpose without requantizing.

    Square tiles cover both axes symmetrically, so transposing codes and the
    scale grid yields a quantized tensor whose dequantization is exactly the
    transpose of the original: forward and backward passes then see one
    consistent set of weight values.  One-dimensional layouts scale along a
    single axis and cannot be reinterpreted; they raise NotTransposableError
    and the caller must requantize along the new dot-product dimension.
    """
    if q.layout.kind != "square":
        raise NotTransposableError(
            "block scales along one axis do not transpose; requantize along "
            "the new dot-product dimension")
    view = QuantizedTensor(
        (q.shape[1], q.shape[0]), np.ascontiguousarray(q.codes.T),
        np.ascontiguousarray(q.scale_codes.T), q.layout, q.fmt, q.global_decode_scale)
    # the decoded scales and values transpose with their codes; decode them
    # only once
    view._scales = _read_only(np.ascontiguousarray(q.scale_values().T))
    if q._unscaled is not None:
        view._unscaled = _read_only(np.ascontiguousarray(q._unscaled.T))
    return view


def dequant_matmul(qa: QuantizedTensor, qb: QuantizedTensor) -> np.ndarray:
    """Reference product: dequantize both operands fully, then matmul in
    binary64.  scaled_gemm must agree with this up to accumulation-order
    rounding; tests use it as the independent oracle."""
    return qa.dequantize() @ qb.dequantize()
