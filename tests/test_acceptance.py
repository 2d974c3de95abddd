"""Acceptance gate: one check per shipped guarantee, pinned tolerances,
and one PASS/FAIL line per criterion in the terminal summary so a log
scan shows the complete scorecard even under pytest capture."""

import functools

import numpy as np
import pytest
from dataclasses import replace

from conftest import CRITERION_LINES

from fp4sim.blockquant import (
    MXFP4,
    NVFP4,
    cols1d,
    dequantize,
    encode_multipliers,
    quantize,
    quantize_mxfp4,
    quantize_nvfp4,
    rows1d,
    square2d,
)
from fp4sim.codecs import E2M1_GRID, Stochastic, decode_e2m1, encode_e2m1, sr_round
from fp4sim.gemm import scaled_gemm
from fp4sim.hadamard import HadamardSpec, build_hadamard, rht_pair_identity_check
from fp4sim.harness import (
    VARIANTS,
    config_digest,
    paired_wins,
    reference_config,
    run_experiment,
)
from fp4sim.linear import (
    LinearLayerState,
    PrecisionPolicy,
    backward,
    chain_rule_violation_metric,
    forward,
)

E4M3_EPS = 2.0 ** -9


def _to_blocks(xp, bm):
    """Padded tensor -> (n_blocks, block_size) rows in grid row-major order."""
    br, bc = bm.block_shape
    gr, gc = bm.grid_shape
    return (xp.reshape(gr, br, gc, bc)
              .transpose(0, 2, 1, 3)
              .reshape(bm.n_blocks, br * bc))


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                CRITERION_LINES.append(f"criterion {num:02d} FAIL  {desc}")
                raise
            CRITERION_LINES.append(f"criterion {num:02d} PASS  {desc}")
        return wrapper
    return deco


@criterion(1, "e2m1 codebook and ties-to-even exact")
def test_criterion_01():
    pos = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
    want = np.array(pos + [0.0] + [-v for v in pos[1:]])
    assert np.array_equal(decode_e2m1(np.arange(16)), want)
    assert np.array_equal(decode_e2m1(encode_e2m1(E2M1_GRID)), E2M1_GRID)
    ties = {0.25: 0.0, 0.75: 1.0, 1.25: 1.0, 1.75: 2.0,
            2.5: 2.0, 3.5: 4.0, 5.0: 4.0}
    for x, y in ties.items():
        assert decode_e2m1(encode_e2m1(np.array([x])))[0] == y
        assert decode_e2m1(encode_e2m1(np.array([-x])))[0] == -y


@criterion(2, "two-level nvfp4 scales within one e4m3 step of ideal")
def test_criterion_02():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 160)) * np.exp(rng.normal(0, 2, (1000, 1)))
    q = quantize_nvfp4(x, rows1d(16))
    assert q.block_map.n_blocks == 10000
    enc = encode_multipliers(q)
    nz = q.scale_values() > 0
    product = enc[nz] * q.global_decode_scale * q.scale_values()[nz]
    assert product.min() >= 1 - E4M3_EPS * 1.01
    assert product.max() <= 1 + E4M3_EPS * 1.01
    for _ in range(20):
        t = rng.standard_normal((32, 32)) * 10 ** rng.uniform(-3, 3)
        qt = quantize_nvfp4(t, rows1d(16))
        amax = np.abs(t).max()
        assert abs(np.abs(dequantize(qt)).max() - amax) / amax <= E4M3_EPS * 1.01


@criterion(3, "mxfp4 power-of-two scales never saturate")
def test_criterion_03():
    x = np.zeros((1, 32))
    x[0, 0] = 3.01
    x[0, 1:4] = [0.5, 1.0, 2.0]
    q = quantize_mxfp4(x, rows1d(32))
    deq = dequantize(q)
    assert q.scale_values()[0] == 1.0
    assert deq[0, 0] == 3.0
    assert not ({4.0, 6.0} & set(np.abs(deq[0])))
    assert np.array_equal(deq[0, 1:4], [0.5, 1.0, 2.0])
    rng = np.random.default_rng(1)
    from fp4sim.blockquant import _pad
    for _ in range(20):
        t = rng.standard_normal((32, 64)) * np.exp(rng.normal(0, 4, (32, 1)))
        qt = quantize_mxfp4(t, rows1d(32))
        bm = qt.block_map
        scaled = np.abs(_to_blocks(_pad(t, bm), bm)) \
            * encode_multipliers(qt).reshape(-1)[:, None]
        assert scaled.max() <= 6.0


@criterion(4, "scaled gemm matches the dequantize-then-matmul oracle")
def test_criterion_04():
    rng = np.random.default_rng(2)
    cases = [(NVFP4, rows1d(16), cols1d(16)), (MXFP4, rows1d(32), cols1d(32))]
    for fmt, la, lb in cases:
        for _ in range(100):
            a = rng.standard_normal((64, 64)) * np.exp(rng.normal(0, 1, (64, 1)))
            b = rng.standard_normal((64, 64)) * np.exp(rng.normal(0, 1, (1, 64)))
            qa = quantize(a, fmt, la)
            qb = quantize(b, fmt, lb)
            got = scaled_gemm(qa, qb)
            want = dequantize(qa) @ dequantize(qb)
            denom = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-10 * max(denom, 1e-30)


@criterion(5, "randomized hadamard tiles orthogonal and self-inverting")
def test_criterion_05():
    for d in (2, 4, 16, 128):
        eps = 8 * d * np.finfo(np.float64).eps
        for seed in range(10):
            h = build_hadamard(HadamardSpec(d=d, sign_seed=seed, randomized=True))
            assert np.abs(h @ h.T - np.eye(d)).max() <= eps
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 64))
    spec = HadamardSpec(d=16, sign_seed=0, randomized=True)
    assert rht_pair_identity_check(a, b, spec) < 1e-8


@criterion(6, "square weight tiles close the forward/backward weight gap")
def test_criterion_06():
    rng = np.random.default_rng(4)
    sq = PrecisionPolicy(weight_layout=square2d())
    rows = PrecisionPolicy(weight_layout=rows1d(16))
    gaps = []
    for _ in range(100):
        w = rng.standard_normal((32, 32)) * rng.lognormal(0, 2)
        assert chain_rule_violation_metric(w, sq) == 0.0
        gaps.append(chain_rule_violation_metric(w, rows))
    assert min(gaps) > 0.0


@criterion(7, "stochastic rounding unbiased within three sigma")
def test_criterion_07():
    n = 1_000_000
    for i, v in enumerate(np.linspace(-5.85, 5.85, 20)):
        stream = Stochastic(key_parts=("sr-acceptance", i))
        out = sr_round(np.full(n, v), stream)
        j = np.searchsorted(E2M1_GRID, v, side="right")
        gap = E2M1_GRID[j] - E2M1_GRID[j - 1]
        assert abs(out.mean() - v) <= 3.0 * gap / (2.0 * np.sqrt(n))


@criterion(8, "wide-precision backward matches central finite differences")
def test_criterion_08():
    rng = np.random.default_rng(5)
    layer = LinearLayerState(weights=rng.standard_normal((16, 32)))
    x = rng.standard_normal((16, 32))
    C = rng.standard_normal((16, 16))
    pol = PrecisionPolicy(quantize=False)
    _, ctx = forward(layer, x, pol)
    _, dW, _ = backward(ctx, C)
    h = 1e-5
    fd = np.zeros_like(layer.weights)
    for i in range(16):
        for j in range(32):
            wp = layer.weights.copy(); wp[i, j] += h
            wm = layer.weights.copy(); wm[i, j] -= h
            fd[i, j] = (np.sum((x @ wp.T) * C) - np.sum((x @ wm.T) * C)) / (2 * h)
    assert np.allclose(dW, fd, rtol=1e-6, atol=1e-8)


@criterion(9, "recipe ablations ordered as calibrated over five seeds")
def test_criterion_09():
    seeds = range(5)

    def runs(make):
        recs = []
        for s in seeds:
            cfg = reference_config(s)
            cfg = replace(cfg, policy=replace(cfg.policy, collect_stats=False))
            recs.append(run_experiment(make(cfg)))
        return recs

    base = runs(lambda c: c)
    stripped = runs(VARIANTS["stripped"])
    mx = runs(VARIANTS["mxfp4"])
    switch = runs(VARIANTS["switch_fwd_80"])
    assert all(r.diverged_at is None for r in base + stripped + mx + switch)
    assert paired_wins(base, stripped) >= 4   # full recipe beats none of it
    assert paired_wins(base, mx) >= 4         # fractional scales beat p2-only
    assert paired_wins(switch, base) >= 4     # late wide forward recovers loss


@criterion(10, "experiment reruns byte-identical")
def test_criterion_10():
    cfg = reference_config(0)
    assert config_digest(cfg) == "62f4331d6f827b46"
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert r1.final_loss == pytest.approx(0.005459407513409941, rel=1e-9)
