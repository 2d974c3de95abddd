"""Quality metrics for quantized tensors.

One implementation serves both the per-GEMM traces inside the layer code and
the offline tensor reports printed by the command-line tools, so the two can
never disagree about what "saturation" or "SQNR" means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blockquant import (
    FormatSpec,
    QuantizedTensor,
    ScalingLayout,
    _pad,
    _to_blocks,
    dequantize,
    encode_multipliers,
    quantize,
    rows1d,
)
from .codecs import E2M1_MAX, E2M1_VALUES, NEAREST, RoundingMode, _chunks
from .hadamard import HadamardSpec, apply_rht_tiled


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


def quantization_stats(x: np.ndarray, q: QuantizedTensor) -> TensorReport:
    """Compare a tensor with its quantized form.

    x must be the exact array that was quantized (post any transform); the
    saturation count is reconstructed from the stored scale codes, so the
    report reflects what the encoder actually saw.
    """
    x = np.asarray(x, dtype=np.float64)
    deq = dequantize(q)
    err = x - deq
    sig = float(np.sum(x * x))
    noise = float(np.sum(err * err))
    if sig == 0.0:
        sqnr = None
    elif noise == 0.0:
        sqnr = float("inf")
    else:
        sqnr = 10.0 * np.log10(sig / noise)

    rel_fro = float(np.linalg.norm(err) / np.linalg.norm(x)) if sig else 0.0
    max_rel, underflow, amax_deq = _element_extremes(x, deq, err)

    bm = q.block_map
    amax, saturated = _amax_saturated(_to_blocks(_pad(x, bm), bm),
                                      encode_multipliers(q).reshape(-1))
    amax_rel = abs(amax_deq - amax) / amax if amax else 0.0

    # E2M1 magnitudes rise with the low three code bits
    block_max = E2M1_VALUES[_to_blocks(q.codes & 7, bm).max(axis=1)]
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
        max_rel_error=max_rel,
        rel_fro_error=rel_fro,
        saturated=saturated,
        underflow_to_zero=underflow,
        amax_rel_error=amax_rel,
        binade_utilization_mean=util_mean,
        binade_utilization_min=util_min,
        n_blocks=bm.n_blocks,
    )


def _element_extremes(x: np.ndarray, deq: np.ndarray,
                      err: np.ndarray) -> tuple[float, int, float]:
    """max |err / x| over the nonzero x, the number of nonzero x that
    decode to zero, and max |deq|, over cache-sized chunks.  Maxima and
    counts do not depend on the order the chunks come in."""
    max_rel = amax_deq = np.float64(0.0)
    underflow = 0
    with _chunks([x, deq, err], [np.float64] * 3) as it:
        for xs, ds, es in it:
            zero = xs == 0
            # err / inf is a zero, which leaves the max unchanged
            rel = np.abs(es / np.where(zero, np.inf, xs))
            max_rel = np.maximum(max_rel, rel.max())
            underflow += int(np.count_nonzero(~zero & (ds == 0.0)))
            amax_deq = np.maximum(amax_deq, np.abs(ds).max())
    return float(max_rel), underflow, float(amax_deq)


def _amax_saturated(blocks: np.ndarray, enc: np.ndarray) -> tuple[float, int]:
    """max |x| over the blocks, and the number of elements whose scaled
    magnitude |x * enc_b| exceeds E2M1_MAX, over cache-sized chunks.
    |x| * enc_b equals |x * enc_b|, because enc_b >= 0 and rounding is
    symmetric."""
    amax = np.float64(0.0)
    saturated = 0
    with _chunks([blocks, enc[:, None]], [np.float64] * 2) as it:
        for xs, es in it:
            mag = np.abs(xs)
            amax = np.maximum(amax, mag.max())
            mag *= es
            saturated += int(np.count_nonzero(mag > E2M1_MAX))
    return float(amax), saturated


def analyze_tensor(x, fmt: FormatSpec, layout: ScalingLayout | None = None,
                   mode: RoundingMode = NEAREST,
                   rht: HadamardSpec | None = None) -> TensorReport:
    """Quantize-and-report, optionally transforming the rows first.

    With rht set, each row is Hadamard-transformed along the last axis
    (zero-padded to a transform multiple) before quantization, mirroring how
    a GEMM operand would be prepared.
    """
    x = np.asarray(x, dtype=np.float64)
    if rht is not None:
        k = x.shape[1]
        kp = -(-k // rht.d) * rht.d
        if kp != k:
            x = np.pad(x, ((0, 0), (0, kp - k)))
        x = apply_rht_tiled(x, rht)
    if layout is None:
        layout = rows1d(fmt.block_len)
    q = quantize(x, fmt, layout, mode)
    rep = quantization_stats(x, q)
    if rht is not None:
        rep.layout += f"+rht{rht.d}"
    return rep


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
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)
