"""Quality metrics for quantized tensors.

One implementation serves both the per-GEMM traces inside the layer code and
the offline tensor reports printed by the command-line tools, so the two can
never disagree about what "saturation" or "SQNR" means.

With PrecisionPolicy.collect_stats on (the default), every quantized GEMM
operand gets a quantization_stats call, whose OperandStats its GemmTrace
keeps: rel_fro_error, saturated and underflow_to_zero.  It reads x and the
QuantizedTensor alone, so a tensor from quantize, a transpose view or a
container gives the same numbers.
tensor_report, which analyze_tensor returns, takes those three fields from
quantization_stats and computes the rest of a TensorReport in the same call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .blockquant import (
    FormatSpec,
    QuantizedTensor,
    ScalingLayout,
    _pad,
    dequantize,
    encode_multipliers,
    quantize,
)
from .codecs import E2M1_MAX, E2M1_VALUES
from .hadamard import HadamardSpec, apply_rht_padded
from .rng import _row_chunks


@dataclass(frozen=True)
class OperandStats:
    """What a GemmTrace keeps of one quantized operand."""

    rel_fro_error: float
    saturated: int               # elements whose scaled magnitude exceeded 6
    underflow_to_zero: int       # nonzero inputs that decode to exactly zero


@dataclass
class TensorReport:
    """Round-trip quality of one tensor under one format/layout choice."""

    fmt: str
    layout: str
    sqnr_db: float | None        # None for an all-zero tensor; inf if exact
    max_rel_error: float
    rel_fro_error: float
    saturated: int               # elements whose scaled magnitude exceeded 6
    underflow_to_zero: int       # nonzero inputs that decode to exactly zero
    amax_rel_error: float        # tensor-level amax fidelity
    binade_utilization_mean: float   # log2(max|code|/0.5) over active blocks
    binade_utilization_min: float
    n_blocks: int

    def to_dict(self) -> dict:
        return asdict(self)


def quantization_stats(x: np.ndarray, q: QuantizedTensor) -> OperandStats:
    """Compare a tensor with its quantized form.

    Precondition: x is the exact array that was quantized into q (post any
    transform; for a transpose view, the transpose of that array).  The
    saturation count scales x by the encode multipliers of q's stored
    scale codes, which are what the encoder applied, so the stats reflect
    what the encoder actually saw, whichever way q was made.  An x whose
    shape differs from q's raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(q.shape):
        raise ValueError(f"x has shape {x.shape} but the quantized tensor "
                         f"has shape {tuple(q.shape)}")
    err = dequantize(q)
    # x == 0 encodes to a zero code, so nonzero(deq) is a subset of nonzero(x);
    # counting a comparison skips the per-element test of a float count
    underflow = int(np.count_nonzero(x != 0)) - int(np.count_nonzero(err != 0))
    np.subtract(x, err, out=err)  # the decoded values become the error
    sq_x, sq_err = _sums_of_squares(x, err, _dot)
    return OperandStats(
        rel_fro_error=math.sqrt(sq_err) / math.sqrt(sq_x) if sq_x else 0.0,
        saturated=_saturated(x, q),
        underflow_to_zero=underflow,
    )


def tensor_report(x: np.ndarray, q: QuantizedTensor) -> TensorReport:
    """Every field of a TensorReport for x and its quantized form q, under
    quantization_stats's precondition.  The three fields a GemmTrace keeps
    come from quantization_stats; the rest read x, its error and q's codes.
    """
    stats = quantization_stats(x, q)
    x = np.asarray(x, dtype=np.float64)
    err = dequantize(q)
    np.subtract(x, err, out=err)
    sig, noise = _sums_of_squares(x, err, lambda a: float((a * a).sum()))
    if sig == 0.0:
        sqnr = None
    elif noise == 0.0:
        sqnr = float("inf")
    else:
        sqnr = float(10.0 * np.log10(sig / noise))
    amax = float(max(x.max(), -x.min()))
    # a positive decode scale rounds monotonically, so the decoded amax is
    # the amax of the unscaled values times that scale
    unscaled = q.unscaled_values()
    amax_deq = float(max(unscaled.max(), -unscaled.min())) * q.decode_scale
    bm = q.block_map
    # E2M1 magnitudes rise with the low three code bits
    block_max = E2M1_VALUES[bm.view(q.codes & 7).max(axis=(1, 3))]
    active = block_max > 0
    if active.any():
        util = np.log2(block_max[active] / 0.5)
        util_mean, util_min = float(util.mean()), float(util.min())
    else:
        util_mean = util_min = 0.0
    return TensorReport(
        fmt=q.fmt.name,
        layout=q.layout.kind,
        sqnr_db=sqnr,
        max_rel_error=_max_rel_error(x, err),
        rel_fro_error=stats.rel_fro_error,
        saturated=stats.saturated,
        underflow_to_zero=stats.underflow_to_zero,
        amax_rel_error=abs(amax_deq - amax) / amax if amax else 0.0,
        binade_utilization_mean=util_mean,
        binade_utilization_min=util_min,
        n_blocks=bm.n_blocks,
    )


def _dot(a: np.ndarray) -> float:
    """The sum of squares np.linalg.norm(a) takes the root of, by its own
    step (a dot product of the flattened array in memory order), without
    the dispatch around it."""
    flat = a.ravel(order="K")
    return float(flat.dot(flat))


def _sums_of_squares(x, err, total) -> tuple[float, float]:
    """The sums of squares total(x) and total(err).  Where either is not a
    finite normal number, both are taken of x * s and err * s, s the power
    of two that brings max|x| into [0.5, 1) (at most 2^1023): exact for
    elements above 2^-1021 max|x|, so the sums' ratio keeps its bits."""
    with np.errstate(over="ignore"):
        sums = total(x), total(err)
        if not all(sys.float_info.min <= v <= sys.float_info.max for v in sums):
            amax = float(max(x.max(), -x.min()))
            s = math.ldexp(1.0, min(-math.frexp(amax)[1], 1023))
            sums = total(x * s), total(err * s)
    return sums


def _max_rel_error(x: np.ndarray, err: np.ndarray) -> float:
    """max |err / x| over the nonzero x, a chunk of rows at a time.  A zero
    x decodes to zero, so its err is zero too, and fmax skips the 0 / 0
    NaN."""
    best = np.float64(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in _row_chunks(x):
            rel = np.divide(err[s], x[s])
            best = np.fmax.reduce(np.abs(rel, out=rel), axis=None, initial=best)
    return float(best)


def _saturated(x: np.ndarray, q: QuantizedTensor) -> int:
    """Elements whose scaled magnitude |x| * enc_b exceeds E2M1_MAX, with
    enc_b their block's multiplier from encode_multipliers(q).

    Every block is scaled, a chunk of block rows at a time: E4M3 rounds
    about half of the nvfp4 scales down, and gathering just those blocks
    costs more than it skips.  An mxfp4 scale rounds up, so its blocks
    count zero, but x is read for them all the same: a shortcut on the
    block amaxes would need a pass over x of its own.  |x| * enc_b equals
    the encoder's |x * enc_b|, because rounding is symmetric.
    """
    bm = q.block_map
    blocks, enc = bm.view(_pad(x, bm)), encode_multipliers(q)[:, None, :, None]
    if not blocks.flags.c_contiguous:
        # an F-ordered x: its blocks transposed, read in memory order
        blocks, enc = blocks.transpose(2, 3, 0, 1), enc.transpose(2, 3, 0, 1)
    saturated = 0
    for s in _row_chunks(blocks):
        mag = np.abs(blocks[s])
        mag *= enc[s]
        saturated += int(np.count_nonzero(mag > E2M1_MAX))
    return saturated


def analyze_tensor(x, fmt: FormatSpec, layout: ScalingLayout | None = None,
                   rht: HadamardSpec | None = None) -> TensorReport:
    """Quantize nearest-even and report, optionally transforming the rows.

    With rht set, each row is Hadamard-transformed along the last axis
    (zero-padded to a transform multiple) before quantization, mirroring how
    a GEMM operand would be prepared.
    """
    x = np.asarray(x, dtype=np.float64)
    if rht is not None:
        x = apply_rht_padded(x, rht)
    q = quantize(x, fmt, layout)
    name = q.layout.kind + (f"+rht{rht.d}" if rht is not None else "")
    return replace(tensor_report(x, q), layout=name)


def text_table(rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, a rule under the header row."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def format_report_table(reports: list[TensorReport]) -> str:
    """Fixed-width text table, one row per report."""
    cols = ["fmt", "layout", "sqnr_db", "max_rel_error", "saturated",
            "underflow_to_zero", "binade_utilization_mean"]
    rows = [cols]
    for r in reports:
        d = r.to_dict()
        row = []
        for c in cols:
            v = d[c]
            if v is None:
                row.append("n/a")
            elif isinstance(v, float):
                row.append(f"{v:.4g}")
            else:
                row.append(str(v))
        rows.append(row)
    return text_table(rows)
