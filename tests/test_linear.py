"""Quantized linear layer: forward/backward plumbing, trace contents,
chain-rule consistency, stochastic-rounding bias, and transform effects."""

from dataclasses import replace

import numpy as np
import pytest

import fp4sim.linear as linear_module
from fp4sim.blockquant import MXFP4, NVFP4, cols1d, quantize, rows1d, square2d
from fp4sim.codecs import E2M1_GRID, Stochastic
from fp4sim.hadamard import HadamardSpec, rht_pair as _rht_pair
from fp4sim.harness import reference_config, run_experiment
from fp4sim.linear import (
    GemmKind,
    LinearLayerState,
    PrecisionPolicy,
    backward,
    chain_rule_violation_metric,
    forward,
)
from fp4sim.reports import quantization_stats


def _layer(rng, nout, nin, scale=1.0):
    return LinearLayerState(weights=scale * rng.standard_normal((nout, nin)))


def test_wide_path_bitwise():
    rng = np.random.default_rng(0)
    layer = _layer(rng, 8, 16)
    x = rng.standard_normal((4, 16))
    dy = rng.standard_normal((4, 8))
    pol = PrecisionPolicy(quantize=False)
    y, ctx = forward(layer, x, pol)
    assert np.array_equal(y, x @ layer.weights.T)
    assert ctx.qweight is None and ctx.trace is None
    dx, dW, traces = backward(ctx, dy)
    assert np.array_equal(dx, dy @ layer.weights)
    assert np.array_equal(dW, dy.T @ x)
    assert traces == []


def test_forward_wide_backward_quantized():
    rng = np.random.default_rng(1)
    layer = _layer(rng, 8, 16)
    x = rng.standard_normal((4, 16))
    pol = PrecisionPolicy(quantize_forward=False, rht_gemms=frozenset())
    y, ctx = forward(layer, x, pol)
    assert np.array_equal(y, x @ layer.weights.T)
    assert ctx.trace is None
    dx, dW, traces = backward(ctx, rng.standard_normal((4, 8)))
    assert len(traces) == 2
    assert traces[0].kind is GemmKind.DGRAD
    assert traces[1].kind is GemmKind.WGRAD


def test_exact_forward_on_representable_values():
    # every block of both operands has amax 6*448, so all stored scales
    # invert exactly and the accumulation is exact dyadic arithmetic
    rng = np.random.default_rng(2)
    xv = rng.choice(E2M1_GRID, size=(16, 32))
    xv[:, ::16] = 6.0
    x = xv * 448.0
    wt = rng.choice(E2M1_GRID, size=(32, 32))
    wt[::16, ::16] = 6.0
    WT = wt * 448.0
    layer = LinearLayerState(weights=WT.T)
    y, _ = forward(layer, x, PrecisionPolicy(rht_gemms=frozenset()))
    assert np.array_equal(y, x @ WT)


def test_default_forward_error_band():
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((64, 32))
        layer = _layer(rng, 16, 32, scale=1.0 / np.sqrt(32))
        y, _ = forward(layer, x, PrecisionPolicy(rht_gemms=frozenset()))
        yw = x @ layer.weights.T
        errs.append(np.linalg.norm(y - yw) / np.linalg.norm(yw))
    assert max(errs) < 0.25
    assert np.mean(errs) < 0.20


def _record_views(monkeypatch):
    """Wrap linear's transpose_quantized_view; the list gets each encoding
    it is given."""
    views = []
    real = linear_module.transpose_quantized_view
    monkeypatch.setattr(linear_module, "transpose_quantized_view",
                        lambda q: views.append(q) or real(q))
    return views


def test_dgrad_reuses_forward_weights_square(monkeypatch):
    views = _record_views(monkeypatch)
    rng = np.random.default_rng(3)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((8, 16))
    pol = PrecisionPolicy(rht_gemms=frozenset())  # square weight tiles
    _, ctx = forward(layer, x, pol)
    assert ctx.qweight is not None
    assert ctx.dgrad_consistent is True
    backward(ctx, rng.standard_normal((8, 16)))
    assert views == [ctx.qweight]


def test_dgrad_rht_breaks_weight_reuse(monkeypatch):
    views = _record_views(monkeypatch)
    rng = np.random.default_rng(4)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((8, 16))
    pol = PrecisionPolicy(rht_gemms=frozenset({GemmKind.DGRAD}))
    _, ctx = forward(layer, x, pol)
    assert ctx.qweight is not None
    assert ctx.dgrad_consistent is False
    backward(ctx, rng.standard_normal((8, 16)))
    assert views == []


def test_rows_layout_has_no_reusable_encoding(monkeypatch):
    views = _record_views(monkeypatch)
    rng = np.random.default_rng(5)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((8, 16))
    pol = PrecisionPolicy(weight_layout=rows1d(16), rht_gemms=frozenset())
    _, ctx = forward(layer, x, pol)
    assert ctx.qweight is None
    assert ctx.dgrad_consistent is None
    backward(ctx, rng.standard_normal((8, 16)))
    assert views == []


def test_chain_rule_metric_square_zero():
    rng = np.random.default_rng(6)
    pol = PrecisionPolicy()
    for _ in range(100):
        w = rng.standard_normal((16, 16)) * rng.lognormal(0, 2)
        assert chain_rule_violation_metric(w, pol) == 0.0


def test_chain_rule_metric_rows_positive():
    rng = np.random.default_rng(7)
    pol = PrecisionPolicy(weight_layout=rows1d(16))
    w = rng.standard_normal((32, 32))
    assert chain_rule_violation_metric(w, pol) > 0.0


def test_chain_rule_metric_rows_zero_on_representable():
    # values exactly representable in both orientations close the gap
    rng = np.random.default_rng(8)
    w = rng.choice(E2M1_GRID, size=(32, 32))
    w[::16, :] = 6.0
    w[:, ::16] = 6.0
    pol = PrecisionPolicy(weight_layout=rows1d(16))
    assert chain_rule_violation_metric(w, pol) == 0.0


def test_chain_rule_metric_zero_weights():
    assert chain_rule_violation_metric(np.zeros((16, 16)), PrecisionPolicy()) == 0.0


def test_sr_mean_beats_nearest_on_small_gradients():
    # gradient entries below half the local quantization step vanish under
    # round-to-nearest but survive on average under stochastic rounding
    x = np.ones((32, 8))
    rng = np.random.default_rng(42)
    dy = rng.uniform(0.05, 0.2, size=(32, 8))
    dy[0, :] = 6.0
    dy[16, :] = 6.0
    true = dy.T @ x
    layer = LinearLayerState(weights=np.zeros((8, 8)))
    p_rne = PrecisionPolicy(rht_gemms=frozenset(), sr_roles=frozenset())
    p_sr = PrecisionPolicy(rht_gemms=frozenset(), sr_roles=frozenset({"gradients"}))
    _, ctx = forward(layer, x, p_rne, step=0)
    _, dW_rne, _ = backward(ctx, dy)
    acc = np.zeros_like(true)
    n = 400
    for step in range(n):
        _, ctx = forward(layer, x, p_sr, step=step)
        _, dW, _ = backward(ctx, dy)
        acc += dW
    err_rne = np.linalg.norm(dW_rne - true)
    err_sr = np.linalg.norm(acc / n - true)
    assert err_rne > 10.0 * err_sr


def test_rht_wgrad_helps_on_clustered_outliers():
    # several comparable spikes per transform tile: mixing spreads them into
    # a near-gaussian profile the 4-bit grid covers better, so the weight
    # gradient lands closer to the wide product for most draws
    def ratio(seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((128, 16))
        dy = 0.5 * rng.standard_normal((128, 32))
        for t in range(8):
            idx = rng.choice(16, size=4, replace=False) + 16 * t
            dy[idx, :] = (24.0 * rng.choice([-1.0, 1.0], size=(4, 32))
                          * rng.uniform(0.7, 1.3, size=(4, 32)))
        layer = LinearLayerState(weights=np.zeros((32, 16)))
        true = dy.T @ x
        errs = {}
        for name, gemms in (("rht", frozenset({GemmKind.WGRAD})),
                            ("plain", frozenset())):
            pol = PrecisionPolicy(
                rht_gemms=gemms, sr_roles=frozenset(),
                rht_spec=HadamardSpec(d=16, sign_seed=0, randomized=True))
            _, ctx = forward(layer, x, pol, step=0)
            _, dW, _ = backward(ctx, dy)
            errs[name] = np.linalg.norm(dW - true)
        return errs["plain"] / errs["rht"]

    ratios = [ratio(2000 + s) for s in range(100)]
    assert sum(r > 1.0 for r in ratios) >= 90
    assert float(np.median(ratios)) > 1.05


def test_rht_policy_is_identity_when_not_quantizing():
    rng = np.random.default_rng(9)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((8, 16))
    dy = rng.standard_normal((8, 16))
    pol = PrecisionPolicy(
        quantize=False,
        rht_gemms=frozenset({GemmKind.FPROP, GemmKind.DGRAD, GemmKind.WGRAD}))
    y, ctx = forward(layer, x, pol)
    dx, dW, _ = backward(ctx, dy)
    assert np.array_equal(y, x @ layer.weights.T)
    assert np.array_equal(dx, dy @ layer.weights)
    assert np.array_equal(dW, dy.T @ x)


def test_rht_pair_preserves_product_with_padding():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 18))  # contracted dim not a tile multiple
    b = rng.standard_normal((18, 4))
    spec = HadamardSpec(d=16, sign_seed=3, randomized=True)
    ta, tb = _rht_pair(a, b, spec)
    assert ta.shape == (8, 32) and tb.shape == (32, 4)
    ref = a @ b
    assert np.linalg.norm(ta @ tb - ref) < 1e-8 * np.linalg.norm(ref)


def test_backward_matches_finite_difference_wide():
    rng = np.random.default_rng(11)
    layer = _layer(rng, 4, 8)
    x = rng.standard_normal((8, 8))
    C = rng.standard_normal((8, 4))
    pol = PrecisionPolicy(quantize=False)
    _, ctx = forward(layer, x, pol)
    _, dW, _ = backward(ctx, C)
    h = 1e-5
    fd = np.zeros_like(layer.weights)
    for i in range(4):
        for j in range(8):
            wp = layer.weights.copy(); wp[i, j] += h
            wm = layer.weights.copy(); wm[i, j] -= h
            up = np.sum((x @ wp.T) * C)
            dn = np.sum((x @ wm.T) * C)
            fd[i, j] = (up - dn) / (2 * h)
    assert np.allclose(dW, fd, rtol=1e-6, atol=1e-8)


def test_backward_determinism_and_step_variation():
    rng = np.random.default_rng(12)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((16, 16))
    dy = rng.standard_normal((16, 16))
    pol = PrecisionPolicy()  # stochastic gradients by default
    _, ctx = forward(layer, x, pol, step=7)
    dx1, dW1, _ = backward(ctx, dy)
    dx2, dW2, _ = backward(ctx, dy)
    assert np.array_equal(dx1, dx2)
    assert np.array_equal(dW1, dW2)
    _, ctx5 = forward(layer, x, pol, step=5)
    _, dW5, _ = backward(ctx5, dy)
    assert not np.array_equal(dW1, dW5)


def test_fixed_signs_stable_per_instance_varies():
    rng = np.random.default_rng(13)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((8, 16))
    base = dict(rht_gemms=frozenset({GemmKind.FPROP}), sr_roles=frozenset())
    fixed = PrecisionPolicy(sign_strategy="fixed", **base)
    y0, _ = forward(layer, x, fixed, step=0)
    y9, _ = forward(layer, x, fixed, step=9)
    assert np.array_equal(y0, y9)
    per = PrecisionPolicy(sign_strategy="per_instance", **base)
    z0, _ = forward(layer, x, per, step=0)
    z9, _ = forward(layer, x, per, step=9)
    assert not np.array_equal(z0, z9)


def _record_operands(monkeypatch):
    """Wrap linear's quantize and scaled_gemm.  The first list gets the
    ("format/layout kind", rounding mode type, stream tag or None) of each
    operand quantize encodes, the second the "format/layout kind" pair of
    each scaled_gemm's operands."""
    quantized, gemms = [], []
    real_quantize, real_gemm = linear_module.quantize, linear_module.scaled_gemm

    def quantize_(x, fmt, layout, mode):
        tag = mode.key_parts[-1] if isinstance(mode, Stochastic) else None
        quantized.append((f"{fmt.name}/{layout.kind}", type(mode).__name__, tag))
        return real_quantize(x, fmt, layout, mode)

    def scaled_gemm_(qa, qb):
        gemms.append(tuple(f"{q.fmt.name}/{q.layout.kind}" for q in (qa, qb)))
        return real_gemm(qa, qb)

    monkeypatch.setattr(linear_module, "quantize", quantize_)
    monkeypatch.setattr(linear_module, "scaled_gemm", scaled_gemm_)
    return quantized, gemms


def test_trace_contents(monkeypatch):
    quantized, gemms = _record_operands(monkeypatch)
    rng = np.random.default_rng(14)
    layer = _layer(rng, 16, 16)
    x = rng.standard_normal((16, 16))
    pol = PrecisionPolicy(rht_gemms=frozenset())
    _, ctx = forward(layer, x, pol, step=0)
    tr = ctx.trace
    assert tr.kind is GemmKind.FPROP
    assert gemms == [("nvfp4/rows", "nvfp4/square")]
    assert quantized == [("nvfp4/rows", "NearestEven", None),
                         ("nvfp4/square", "NearestEven", None)]
    assert tr.stats["activations"].rel_fro_error > 0.0
    _, _, traces = backward(ctx, rng.standard_normal((16, 16)))
    # Dgrad reuses the square weight tiles and encodes only its gradient
    assert quantized[2][1:] == ("Stochastic", "dgrad/dy")
    assert gemms[2] == ("nvfp4/rows", "nvfp4/cols")
    assert traces[1].kind is GemmKind.WGRAD


def test_fprop_trace_keeps_each_operands_stats():
    # the trace keeps quantization_stats of each operand under its layout
    rng = np.random.default_rng(15)
    layer = _layer(rng, 16, 32)
    x = rng.standard_normal((8, 32))
    _, ctx = forward(layer, x, PrecisionPolicy(), step=0)
    w_t = layer.weights.T
    assert ctx.trace.stats == {
        "activations": quantization_stats(x, quantize(x, NVFP4, rows1d(16))),
        "weights": quantization_stats(w_t, quantize(w_t, NVFP4, square2d())),
    }


def test_stats_off_keeps_no_trace(monkeypatch):
    def no_stats(*args):
        raise AssertionError("quantization_stats called with stats off")

    monkeypatch.setattr(linear_module, "quantization_stats", no_stats)
    rng = np.random.default_rng(16)
    layer = _layer(rng, 16, 16)
    for weight_layout in (square2d(), rows1d(16)):
        pol = PrecisionPolicy(collect_stats=False, weight_layout=weight_layout)
        _, ctx = forward(layer, rng.standard_normal((8, 16)), pol)
        assert ctx.trace is None
        _, _, traces = backward(ctx, rng.standard_normal((8, 16)))
        assert traces == [None, None]


@pytest.mark.parametrize("weight_layout", [square2d(), rows1d(16)])
def test_traces_follow_the_operand_table(monkeypatch, weight_layout):
    # Every operand of the three GEMMs, with every role rounding
    # stochastically: its role, its layout (rows on the left, columns on the
    # right, the weight layout for weights) and its stream tag.
    quantized, gemms = _record_operands(monkeypatch)
    views = _record_views(monkeypatch)
    rng = np.random.default_rng(17)
    layer = _layer(rng, 16, 16)
    pol = PrecisionPolicy(rht_gemms=frozenset(), weight_layout=weight_layout,
                          sr_roles=frozenset({"gradients", "activations", "weights"}))
    _, ctx = forward(layer, rng.standard_normal((16, 16)), pol)
    _, _, (dgrad, wgrad) = backward(ctx, rng.standard_normal((16, 16)))
    square = weight_layout.kind == "square"
    w_layout = "nvfp4/square" if square else "nvfp4/cols"
    assert gemms == [("nvfp4/rows", w_layout), ("nvfp4/rows", w_layout),
                     ("nvfp4/rows", "nvfp4/cols")]
    assert set(ctx.trace.stats) == {"activations", "weights"}
    assert set(dgrad.stats) == {"gradients", "weights"}
    assert set(wgrad.stats) == {"gradients", "activations"}
    assert {mode for _, mode, _ in quantized} == {"Stochastic"}
    # square tiles: Dgrad reads a view of the forward encoding, which Fprop
    # rounded stochastically
    assert views == ([ctx.qweight] if square else [])
    assert ctx.dgrad_consistent is (True if square else None)
    tags = [tag for _, _, tag in quantized]
    assert tags == ["fprop/x", "fprop/w", "dgrad/dy",
                    *([] if square else ["dgrad/w"]), "wgrad/dy", "wgrad/x"]


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(sr_roles=frozenset({"biases"}))
    with pytest.raises(ValueError):
        PrecisionPolicy(sign_strategy="alternating")
    with pytest.raises(ValueError):
        PrecisionPolicy(act_grad_layout=square2d())
    with pytest.raises(ValueError):
        PrecisionPolicy(fmt=MXFP4, weight_layout=square2d())


def test_mxfp4_policy_runs(monkeypatch):
    _, gemms = _record_operands(monkeypatch)
    rng = np.random.default_rng(15)
    layer = _layer(rng, 16, 32)
    x = rng.standard_normal((8, 32))
    pol = PrecisionPolicy(fmt=MXFP4, weight_layout=rows1d(32),
                          act_grad_layout=rows1d(32),
                          rht_gemms=frozenset(),
                          rht_spec=HadamardSpec(d=32, sign_seed=0, randomized=True))
    y, ctx = forward(layer, x, pol)
    assert np.isfinite(y).all()
    dx, dW, traces = backward(ctx, rng.standard_normal((8, 16)))
    assert dx.shape == (8, 32) and dW.shape == (16, 32)
    assert traces[0].kind is GemmKind.DGRAD and gemms[1][1] == "mxfp4/cols"


def test_layer_weights_must_be_2d():
    with pytest.raises(ValueError):
        LinearLayerState(weights=np.zeros(8))


def test_policy_applies_the_layout_format_rule():
    # mxfp4 with the default rows16 activation layout used to construct and
    # then run as a divergence at step 0 (final loss inf)
    base = PrecisionPolicy()
    with pytest.raises(ValueError, match=r"^act_grad_layout\.block_len: ") as e:
        replace(base, fmt=MXFP4, weight_layout=rows1d(32))
    assert "weight_layout" not in str(e.value)
    with pytest.raises(ValueError, match=r"^weight_layout\.kind: square tiles"):
        replace(base, fmt=MXFP4, act_grad_layout=rows1d(32))


def test_dgrad_reuse_decodes_nothing_for_the_consistency_check(monkeypatch):
    calls = []
    real = linear_module.dequantize
    monkeypatch.setattr(linear_module, "dequantize",
                        lambda q: calls.append(q) or real(q))
    rng = np.random.default_rng(16)
    layer = _layer(rng, 16, 16)
    _, ctx = forward(layer, rng.standard_normal((8, 16)), PrecisionPolicy())
    assert ctx.qweight is not None
    assert ctx.dgrad_consistent is True
    backward(ctx, rng.standard_normal((8, 16)))
    assert calls == []


def test_dgrad_requantize_still_compares_the_weights():
    # Dgrad-only RHT requantizes the weights, which then differ from the
    # forward encoding on every Dgrad of the three quantized layers
    cfg = reference_config(0)
    cfg = replace(cfg, steps=3, policy=replace(
        cfg.policy, rht_gemms=frozenset({GemmKind.DGRAD})))
    assert run_experiment(cfg).trace_summary["inconsistent_dgrads"] == 9
