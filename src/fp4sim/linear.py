"""A linear layer whose three training GEMMs run on block-scaled 4-bit values.

Weights are stored (out_features, in_features) in binary64 master precision;
the forward product is y = x @ W.T.  Each GEMM quantizes its two operands
along the contracted dimension:

* Fprop   y  = x @ W.T     contracts the input features,
* Dgrad   dx = dy @ W      contracts the output features,
* Wgrad   dW = dy.T @ x    contracts the batch.

A PrecisionPolicy picks the format, the scale layouts, which GEMMs get a
tiled Hadamard transform on both operands, and which tensor roles round
stochastically.  With square weight tiles the backward pass reuses the
forward weight encoding through a transpose view, so the weight values seen
by Fprop and Dgrad are identical; with one-dimensional weight scaling the
backward pass must requantize along the new contracted dimension, and the
two passes see slightly different weights (the chain-rule violation measured
by chain_rule_violation_metric).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .blockquant import (
    FormatSpec,
    LayoutError,
    NVFP4,
    QuantizedTensor,
    ScalingLayout,
    check_layout,
    cols1d,
    dequantize,
    quantize,
    rows1d,
    square2d,
)
from .codecs import NEAREST, Stochastic
from .gemm import scaled_gemm, transpose_quantized_view
from .hadamard import HadamardSpec, rht_pair
from .reports import quantization_stats
from .rng import stream_key
from .schema import check_fields, one_of, raise_errors, subset_of


class GemmKind(enum.Enum):
    FPROP = "fprop"
    DGRAD = "dgrad"
    WGRAD = "wgrad"


_SR_ROLES = subset_of({"gradients", "activations", "weights"})
_SIGN_STRATEGIES = one_of("none", "fixed", "per_instance")


@dataclass(frozen=True)
class PrecisionPolicy:
    """What gets quantized, how, and where randomness enters.

    weight_layout: square tiles keep forward/backward weight values
    identical via transpose views; a 1-D layout forces backward
    requantization.  For 1-D layouts only the block length matters; the
    orientation is chosen per GEMM so scales always run along the contracted
    dimension.  act_grad_layout plays the same role for activations and
    gradients (1-D only).  rht_gemms lists the GEMMs whose operand pairs are
    Hadamard-transformed; sr_roles lists tensor roles ("gradients",
    "activations", "weights") that round stochastically.  quantize_forward /
    quantize_backward allow switching one direction back to wide precision
    mid-run while the other stays quantized.  seed keys the stochastic
    rounding and per-instance Hadamard signs, but a training run replaces
    it with the run's own seed: in a config it changes the digest and
    nothing else.  It stays until the pinned digest is next re-pinned.
    """

    quantize: bool = True
    fmt: FormatSpec = NVFP4
    weight_layout: ScalingLayout = field(default_factory=square2d)
    act_grad_layout: ScalingLayout = field(default_factory=lambda: rows1d(16))
    rht_gemms: frozenset[GemmKind] = frozenset({GemmKind.WGRAD})
    rht_spec: HadamardSpec = HadamardSpec(d=16, sign_seed=0, randomized=True)
    sr_roles: frozenset[str] = frozenset({"gradients"})
    sign_strategy: str = "fixed"
    quantize_forward: bool = True
    quantize_backward: bool = True
    seed: int = 0
    collect_stats: bool = True

    def __post_init__(self):
        errs = check_fields(self, sr_roles=_SR_ROLES, sign_strategy=_SIGN_STRATEGIES)
        if "act_grad_layout" not in errs and self.act_grad_layout.kind == "square":
            errs["act_grad_layout"] = "act_grad_layout.kind: square tiles are for weights only"
        for name in ("weight_layout", "act_grad_layout"):
            if "fmt" not in errs and name not in errs:
                try:
                    check_layout(self.fmt, getattr(self, name), name)
                except LayoutError as e:
                    errs[name] = str(e)
        raise_errors(errs)


@dataclass
class LinearLayerState:
    """Master-precision weights plus the identity used to key RNG streams."""

    weights: np.ndarray  # (out_features, in_features), float64
    layer_index: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (out_features, in_features)")


@dataclass
class GemmTrace:
    """Record of one quantized GEMM, per operand (by trace name): its
    quantization stats, its "format/layout kind" and its rounding mode; and,
    for a Dgrad given the forward weight encoding, whether it multiplied by
    exactly those weight values: True when it reused the encoding, False
    when it transformed both operands (None otherwise)."""

    kind: GemmKind
    stats: dict
    layouts: dict
    rounding: dict
    consistent_weights: bool | None = None


@dataclass
class FwdContext:
    """Everything backward() needs: the saved input, the forward weight
    encoding (when reusable), and the identifiers to rebuild RNG streams."""

    x: np.ndarray
    layer: LinearLayerState
    policy: PrecisionPolicy
    step: int
    qweight: QuantizedTensor | None
    trace: GemmTrace | None

    @property
    def dgrad_consistent(self) -> bool | None:
        """Whether backward()'s Dgrad multiplies by exactly the weight values
        Fprop used, with stats on or off: True when it reads a view of the
        forward encoding, which matches it by construction; False when it
        transforms both operands, since rotated weights never match; None
        without a forward encoding or with a wide backward pass."""
        policy = self.policy
        if self.qweight is None or not (policy.quantize and policy.quantize_backward):
            return None
        return GemmKind.DGRAD not in policy.rht_gemms


# Per GEMM, the (trace name, tensor role, stream tag) of the left and the
# right operand.  The left operand is scaled along its rows and the right one
# along its columns, so scales always run along the contracted dimension.
_OPERANDS = {
    GemmKind.FPROP: (("input", "activations", "x"), ("weight", "weights", "w")),
    GemmKind.DGRAD: (("grad_out", "gradients", "dy"), ("weight", "weights", "w")),
    GemmKind.WGRAD: (("grad_out", "gradients", "dy"), ("input", "activations", "x")),
}


def _as_rows(layout: ScalingLayout) -> ScalingLayout:
    return layout if layout.kind == "square" else rows1d(layout.block_len)


def _as_cols(layout: ScalingLayout) -> ScalingLayout:
    return layout if layout.kind == "square" else cols1d(layout.block_len)


def _instance_spec(policy: PrecisionPolicy, layer_index: int, step: int,
                   kind: GemmKind) -> HadamardSpec:
    if policy.sign_strategy == "none":
        return replace(policy.rht_spec, randomized=False)
    if policy.sign_strategy == "fixed":
        return policy.rht_spec
    derived = int(stream_key("rht-instance", policy.rht_spec.sign_seed,
                             policy.seed, layer_index, step, kind.value)[0])
    return replace(policy.rht_spec, sign_seed=derived)


def _gemm(policy: PrecisionPolicy, kind: GemmKind, layer_index: int, step: int,
          a: np.ndarray, b: np.ndarray, qweight: QuantizedTensor | None = None,
          consistent: bool | None = None):
    """a @ b as one quantized GEMM of the given kind; returns (product,
    trace, the right operand's encoding).  With stats off the trace is None.

    Each operand follows its row of _OPERANDS: a Hadamard pair transform
    first when the policy lists the GEMM, the policy's layout for its role,
    stochastic rounding keyed by (seed, layer, step, "kind/tag") when the
    policy lists its role.  qweight is the forward weight encoding, given
    only to a Dgrad that reuses it: its transpose view stands in for the
    right operand.  consistent is the trace's consistent_weights.
    """
    if kind in policy.rht_gemms:
        a, b = rht_pair(a, b, _instance_spec(policy, layer_index, step, kind))
    trace = (GemmTrace(kind=kind, stats={}, layouts={}, rounding={},
                       consistent_weights=consistent)
             if policy.collect_stats else None)
    qs = []
    for (name, role, tag), values, orient in zip(_OPERANDS[kind], (a, b),
                                                 (_as_rows, _as_cols)):
        # a reused weight encoding was rounded by Fprop, under its stream
        reused = role == "weights" and qweight is not None
        stream = f"{GemmKind.FPROP.value if reused else kind.value}/{tag}"
        mode = (Stochastic((policy.seed, layer_index, step, stream))
                if role in policy.sr_roles else NEAREST)
        if reused:
            q = transpose_quantized_view(qweight)
        else:
            layout = policy.weight_layout if role == "weights" else policy.act_grad_layout
            q = quantize(values, policy.fmt, orient(layout), mode)
        if trace is not None:
            trace.stats[name] = quantization_stats(values, q)
            trace.layouts[name] = f"{q.fmt.name}/{q.layout.kind}"
            trace.rounding[name] = type(mode).__name__
        qs.append(q)
    qa, qb = qs
    return scaled_gemm(qa, qb), trace, qb


def forward(layer: LinearLayerState, x, policy: PrecisionPolicy,
            step: int = 0):
    """y = x @ W.T under the policy; returns (y, context for backward)."""
    x = np.asarray(x, dtype=np.float64)
    if not (policy.quantize and policy.quantize_forward):
        y = x @ layer.weights.T
        return y, FwdContext(x=x, layer=layer, policy=policy, step=step,
                             qweight=None, trace=None)
    y, trace, qw = _gemm(policy, GemmKind.FPROP, layer.layer_index, step,
                         x, layer.weights.T)
    # The forward encoding is reusable by Dgrad only if it encodes the raw
    # weights (no transform) in square tiles.
    reusable = (GemmKind.FPROP not in policy.rht_gemms
                and policy.weight_layout.kind == "square")
    return y, FwdContext(x=x, layer=layer, policy=policy, step=step,
                         qweight=qw if reusable else None, trace=trace)


def backward(ctx: FwdContext, dy, need_dx: bool = True):
    """Gradients (dx, dW, traces) for the saved forward call: the traces
    of Dgrad and Wgrad (None with stats off), or [] when the backward pass
    runs wide.

    Dgrad (dx = dy @ W, contracted over out_features) reuses the forward
    weight encoding through a transpose view when the layout allows it;
    otherwise the weights are requantized along the output dimension.
    Wgrad (dW = dy.T @ x) contracts the batch.  All stochastic streams are
    keyed by (seed, layer, step, operand tag), so recomputing this backward
    gives identical bits.  With need_dx false, Dgrad runs only for the
    trace of a quantized pass with stats on; otherwise dx is None.
    """
    policy, layer, step, x = ctx.policy, ctx.layer, ctx.step, ctx.x
    dy = np.asarray(dy, dtype=np.float64)
    if not (policy.quantize and policy.quantize_backward):
        return dy @ layer.weights if need_dx else None, dy.T @ x, []
    li = layer.layer_index
    consistent = ctx.dgrad_consistent
    dx = dgrad = None
    if need_dx or policy.collect_stats:
        dx, dgrad, _ = _gemm(policy, GemmKind.DGRAD, li, step, dy, layer.weights,
                             ctx.qweight if consistent else None, consistent)
    dW, wgrad, _ = _gemm(policy, GemmKind.WGRAD, li, step, dy.T, x)
    return dx, dW, [dgrad, wgrad]


def chain_rule_violation_metric(weights, policy: PrecisionPolicy) -> float:
    """Relative Frobenius gap between the weight values used by the forward
    and backward GEMMs under the policy's weight layout.

    Square tiles transpose exactly, so the gap is 0; one-dimensional scales
    quantize blocks along different axes in the two passes, which generally
    yields a strictly positive gap (the two passes differentiate slightly
    different functions).
    """
    w = np.asarray(weights, dtype=np.float64)
    fwd = dequantize(quantize(w.T, policy.fmt, _as_cols(policy.weight_layout))).T
    bwd = dequantize(quantize(w, policy.fmt, _as_cols(policy.weight_layout)))
    denom = float(np.linalg.norm(w))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(fwd - bwd) / denom)
