"""Training harness: config plumbing, schedules, determinism, divergence
containment, and the calibrated loss bands of the reference setup."""

import hashlib
import json
import math
import types

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import fp4sim.harness as harness
import fp4sim.linear as linear
from fp4sim.blockquant import MXFP4, NVFP4, cols1d, rows1d, square2d
from fp4sim.codecs import NonFiniteInputError
from fp4sim.hadamard import HadamardSpec
from fp4sim.harness import (
    ExemptionRule,
    ExperimentConfig,
    LRSchedule,
    SwitchSpec,
    TaskSpec,
    VARIANTS,
    _layer_policies,
    _TeacherStudent,
    config_digest,
    config_to_dict,
    format_suite_table,
    paired_wins,
    reference_config,
    relative_loss_difference,
    run_ablation_suite,
    run_experiment,
)
from fp4sim.linear import GemmKind, PrecisionPolicy
from fp4sim.rng import normals, stream_key
from fp4sim.schema import decode


def _tiny(**kw):
    base = dict(widths=(8, 8), steps=5, batch_size=8, val_every=2, val_batch=16)
    base.update(kw)
    return ExperimentConfig(**base)


def _stats_off(cfg):
    return replace(cfg, policy=replace(cfg.policy, collect_stats=False))


def test_reference_config_digest_frozen():
    assert config_digest(reference_config(0)) == "62f4331d6f827b46"
    assert config_digest(reference_config(1)) != "62f4331d6f827b46"


def test_policy_seed_changes_the_digest_and_nothing_else():
    # The run's layer policies take the run's seed in place of policy.seed.
    base = replace(reference_config(0), steps=3)
    other = replace(base, policy=replace(base.policy, seed=12345))
    a, b = run_experiment(base), run_experiment(other)
    assert a.train_losses == b.train_losses
    assert a.final_loss == b.final_loss
    assert a.config_digest != b.config_digest


def test_config_round_trip():
    cfg = replace(
        reference_config(3),
        switch=SwitchSpec(step=0.8, scope="forward"),
        lr=LRSchedule(kind="wsd", base=0.001, warmup_fraction=0.1,
                      decay_fraction=0.5, floor_ratio=0.02),
        task=TaskSpec(tail=0.5, noise=0.01, loss_weighting="uniform"),
    )
    back, errs = decode(ExperimentConfig, config_to_dict(cfg))
    assert errs == [] and back == cfg
    assert config_digest(back) == config_digest(cfg)
    assert json.loads(json.dumps(config_to_dict(cfg))) == config_to_dict(cfg)


def test_lr_schedule_shapes():
    const = LRSchedule(kind="constant", base=0.01)
    assert const.lr_at(0, 100) == 0.01
    assert const.lr_at(99, 100) == 0.01
    wsd = LRSchedule(kind="wsd", base=0.01, decay_fraction=0.5, floor_ratio=0.1)
    assert wsd.lr_at(0, 100) == 0.01
    assert wsd.lr_at(49, 100) == 0.01  # last stable step
    assert wsd.lr_at(99, 100) == pytest.approx(0.001)  # u=1 at the end
    assert wsd.lr_at(60, 100) < wsd.lr_at(50, 100) < 0.01 + 1e-15
    warm = LRSchedule(kind="wsd", base=0.01, warmup_fraction=0.1,
                      decay_fraction=0.0)
    assert warm.lr_at(0, 100) == pytest.approx(0.001)
    assert warm.lr_at(9, 100) == pytest.approx(0.01)
    assert warm.lr_at(50, 100) == 0.01


def test_lr_schedule_validation():
    with pytest.raises(ValueError):
        LRSchedule(kind="cosine")
    with pytest.raises(ValueError):
        LRSchedule(decay_fraction=1.5)
    with pytest.raises(ValueError):
        LRSchedule(base=0.0)
    with pytest.raises(ValueError):
        LRSchedule(floor_ratio=0.0)


def test_exempt_indices():
    assert ExemptionRule(0.15, "last").exempt_indices(4) == frozenset({3})
    assert ExemptionRule(0.5, "first").exempt_indices(4) == frozenset({0, 1})
    assert ExemptionRule(0.0, "last").exempt_indices(4) == frozenset()
    assert ExemptionRule(0.15, "none").exempt_indices(4) == frozenset()
    assert ExemptionRule(1.0, "last").exempt_indices(3) == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        ExemptionRule(1.5, "last")
    with pytest.raises(ValueError):
        ExemptionRule(0.5, "middle")


def test_switch_spec():
    assert SwitchSpec(step=0.8).resolve_step(1500) == 1200
    assert SwitchSpec(step=5).resolve_step(1500) == 5
    assert SwitchSpec(step=0).resolve_step(1500) == 0
    assert SwitchSpec(step=1).resolve_step(1500) == 1
    with pytest.raises(ValueError):
        SwitchSpec(step=0.5, scope="sideways")
    with pytest.raises(ValueError):
        SwitchSpec(step=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(widths=(8, 8), steps=10, switch=SwitchSpec(step=20))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(widths=(8,))
    with pytest.raises(ValueError):
        ExperimentConfig(steps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(adam_beta2=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(weight_decay=-0.1)


def test_batch_determinism_and_weights():
    cfg = _tiny(seed=4)
    task = _TeacherStudent(cfg)
    x1, (t1, w1) = task.batch("train", 3, 32)
    x2, (t2, w2) = _TeacherStudent(cfg).batch("train", 3, 32)
    assert np.array_equal(x1, x2) and np.array_equal(t1, t2)
    assert np.array_equal(w1, w2)
    assert w1.shape == (32, 1)
    assert not np.allclose(w1, 1.0)  # per-sample weighting active
    x3, _ = task.batch("train", 4, 32)
    assert not np.array_equal(x1, x3)
    xv, _ = task.batch("val", 3, 32)
    assert not np.array_equal(x1, xv)
    uni = _TeacherStudent(replace(cfg, task=TaskSpec(loss_weighting="uniform")))
    _, (_, wu) = uni.batch("train", 3, 32)
    assert np.all(wu == 1.0)
    # with no tails every scale is exactly 1: the inputs are the raw draws
    flat = _TeacherStudent(replace(cfg, task=TaskSpec(tail=0.0, feature_tail=0.0)))
    x0, (_, w0) = flat.batch("train", 3, 32)
    assert np.array_equal(x0, normals(stream_key("data", "train", 4, 3), (32, 8)))
    assert np.all(w0 == 1.0)


def test_loss_grad_is_the_gradient_of_the_loss():
    task = _TeacherStudent(_tiny(seed=4))
    _, (t, w) = task.batch("train", 0, 6)
    y = t + np.random.default_rng(0).standard_normal(t.shape)
    g, h = task.loss_grad(y, t, w), 1e-6
    for i, j in np.ndindex(*y.shape):
        e = np.zeros_like(y)
        e[i, j] = h
        fd = (task.loss(y + e, t, w) - task.loss(y - e, t, w)) / (2 * h)
        assert fd == pytest.approx(g[i, j], rel=1e-5, abs=1e-9)


def test_student_starts_near_the_teacher():
    task = _TeacherStudent(_tiny(task=TaskSpec(init_spread=0.0)))
    assert all(np.array_equal(s.weights, t.weights)
               for s, t in zip(task.student, task.teacher))
    far = _TeacherStudent(_tiny(task=TaskSpec(init_near_teacher=False)))
    assert not np.allclose(far.student[0].weights, far.teacher[0].weights)


def test_exempt_layers_run_wide():
    cfg = ExperimentConfig(widths=(8, 8, 8), exempt=ExemptionRule(0.5, "last"))
    train, val = _layer_policies(cfg, None)(0)
    assert [p.quantize for p in train] == [True, False]
    assert [p.quantize for p in val] == [True, False]
    assert [p.collect_stats for p in val] == [False, False]


def test_layer_policies_are_built_once_per_phase(monkeypatch):
    # a run switched at step 1 has two phases, each with its training and
    # validation policies; rebuilding them per step made 19 or more per layer
    made = []
    real = PrecisionPolicy.__post_init__
    monkeypatch.setattr(PrecisionPolicy, "__post_init__",
                        lambda self: made.append(self) or real(self))
    cfg = replace(reference_config(0), steps=20,
                  switch=SwitchSpec(step=1, scope="forward"))
    made.clear()
    rec = run_experiment(cfg)
    assert rec.switch_step == 1 and rec.diverged_at is None
    assert len(made) <= 4 * (len(cfg.widths) - 1)


def test_tiny_run_determinism():
    cfg = _tiny(seed=2)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert len(r1.train_losses) == cfg.steps
    assert r1.val_curve[-1][0] == cfg.steps
    assert r1.diverged_at is None


def test_validation_cadence():
    rec = run_experiment(_tiny(steps=10, val_every=3))
    assert [s for s, _ in rec.val_curve] == [3, 6, 9, 10]
    rec9 = run_experiment(_tiny(steps=9, val_every=3))
    assert [s for s, _ in rec9.val_curve] == [3, 6, 9]


def test_switch_at_zero_matches_wide():
    cfg = _tiny(steps=8, seed=5, switch=SwitchSpec(step=0, scope="both"))
    wide = VARIANTS["wide"](_tiny(steps=8, seed=5))
    rs = run_experiment(cfg)
    rw = run_experiment(wide)
    assert rs.train_losses == rw.train_losses
    assert rs.final_loss == rw.final_loss
    assert rs.switch_step == 0


def _init_spread(spread):
    return lambda monkeypatch: _tiny(task=TaskSpec(init_spread=spread))


def _nonfinite_grad_at_2(monkeypatch):
    def bwd(ctx, dy, need_dx=True):
        dx, dw, traces = linear.backward(ctx, dy, need_dx)
        return dx, (np.full_like(dw, np.nan) if ctx.step == 2 else dw), traces
    monkeypatch.setattr(harness, "backward", bwd)
    return _tiny(val_every=10)  # no validation pass before the end


def _quantization_error_at_2(monkeypatch):
    def fwd(layer, x, policy, step=0):
        if step == 2:
            raise NonFiniteInputError("non-finite value at flat index 0: nan")
        return linear.forward(layer, x, policy, step=step)
    monkeypatch.setattr(harness, "forward", fwd)
    return _tiny(val_every=10)


# cause: (the diverging run's config, given monkeypatch; the step it
# diverges at; the number of train losses it keeps)
_DIVERGENCE_CAUSES = {
    "loss_above_1e30": (_init_spread(1e20), 0, 1),  # a finite loss near 1e40
    "nonfinite_loss": (_init_spread(1e200), 0, 1),
    "nonfinite_grad": (_nonfinite_grad_at_2, 2, 3),
    "quantization_error": (_quantization_error_at_2, 2, 2),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("cause", sorted(_DIVERGENCE_CAUSES))
def test_divergence_contained(cause, monkeypatch):
    make, step, kept = _DIVERGENCE_CAUSES[cause]
    rec = run_experiment(make(monkeypatch))
    assert rec.diverged_at == step
    assert len(rec.train_losses) == kept
    if cause == "loss_above_1e30":
        assert 1e30 < rec.train_losses[0] < math.inf
    assert all(math.isfinite(v) for v in rec.train_losses[:step])
    assert rec.final_loss == math.inf
    assert rec.val_curve == []
    assert rec.to_json()  # still serializes


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_suite_with_diverged_base_does_not_raise():
    cfg = _tiny(task=TaskSpec(init_spread=1e200))
    rows = run_ablation_suite(cfg, ["no_sr"], seeds=(0,))
    assert rows[0].name == "base"
    assert rows[0].diverged == 1
    assert math.isinf(rows[0].mean_final_loss)


def test_suite_unknown_axis():
    with pytest.raises(KeyError):
        run_ablation_suite(_tiny(), ["no_such_axis"], seeds=(0,))


def test_paired_wins():
    a = [types.SimpleNamespace(final_loss=v) for v in (0.1, 0.2, 0.3)]
    b = [types.SimpleNamespace(final_loss=v) for v in (0.2, 0.1, 0.4)]
    assert paired_wins(a, b) == 2
    with pytest.raises(ValueError):
        paired_wins(a, b[:2])


def test_relative_loss_difference():
    assert relative_loss_difference(0.01, 0.005) == pytest.approx(0.5)
    assert relative_loss_difference(0.01, 0.02) == pytest.approx(-1.0)
    assert relative_loss_difference(0.0, 0.5) == 0.0


def test_variant_builders():
    cfg = reference_config(0)
    stripped = VARIANTS["stripped"](cfg)
    assert stripped.policy.sr_roles == frozenset()
    assert stripped.policy.rht_gemms == frozenset()
    assert stripped.policy.weight_layout.kind == "rows"
    assert stripped.exempt.placement == "none"
    mx = VARIANTS["mxfp4"](cfg)
    assert mx.policy.fmt.name == "mxfp4"
    assert mx.policy.weight_layout.kind == "rows"
    assert mx.policy.weight_layout.block_len == 32
    assert mx.policy.act_grad_layout.block_len == 32
    assert mx.policy.rht_spec.d == 32
    assert VARIANTS["wide"](cfg).policy.quantize is False
    assert VARIANTS["rht_d4"](cfg).policy.rht_spec.d == 4
    assert VARIANTS["sign_none"](cfg).policy.sign_strategy == "none"
    sw = VARIANTS["switch_fwd_80"](cfg)
    assert sw.switch == SwitchSpec(step=0.8, scope="forward")


def test_trace_summary_square_weights_consistent():
    rec = run_experiment(_tiny(widths=(16, 16, 16), steps=4, batch_size=16))
    ts = rec.trace_summary
    assert set(ts) == {"fprop", "dgrad", "wgrad", "inconsistent_dgrads"}
    assert ts["inconsistent_dgrads"] == 0
    assert ts["fprop"]["mean_quant_error"] > 0.0


def test_stats_off_run_keeps_no_trace_summary():
    cfg = replace(reference_config(0), steps=3)
    on, off = run_experiment(cfg), run_experiment(_stats_off(cfg))
    assert off.trace_summary == {"inconsistent_dgrads": 0}
    assert off.train_losses == on.train_losses
    assert set(on.trace_summary) == {"fprop", "dgrad", "wgrad", "inconsistent_dgrads"}


def test_stats_off_run_counts_inconsistent_dgrads():
    # Dgrad-only RHT makes every Dgrad of the three quantized layers
    # requantize the weights; the count does not need the per-GEMM stats
    cfg = reference_config(0)
    cfg = replace(cfg, steps=3, policy=replace(
        cfg.policy, rht_gemms=frozenset({GemmKind.DGRAD})))
    assert run_experiment(cfg).trace_summary["inconsistent_dgrads"] == 9
    assert run_experiment(_stats_off(cfg)).trace_summary == {"inconsistent_dgrads": 9}


def test_stats_off_backward_skips_layer_0_dgrad(monkeypatch):
    # no layer takes layer 0's input gradient: with stats off its Dgrad does
    # not run; with stats on it runs, since its trace enters trace_summary
    kinds = []
    real = linear._gemm

    def gemm(policy, kind, *args, **kw):
        kinds.append(kind)
        return real(policy, kind, *args, **kw)

    monkeypatch.setattr(linear, "_gemm", gemm)
    cfg = replace(reference_config(0), steps=3)
    for run_cfg, dgrads in ((_stats_off(cfg), 6), (cfg, 9)):
        kinds.clear()
        run_experiment(run_cfg)
        assert kinds.count(GemmKind.DGRAD) == dgrads


def test_trace_summary_sums_the_traces(monkeypatch):
    # recompute the per-kind summary from every trace the run made, taken in
    # the run's order: each layer's Dgrad and Wgrad, then its Fprop
    made, traces = [], []

    def fwd(*args, **kw):
        y, ctx = linear.forward(*args, **kw)
        made.append(ctx.trace)
        return y, ctx

    def bwd(ctx, dy, need_dx=True):
        dx, dw, trs = linear.backward(ctx, dy, need_dx)
        traces.extend((*trs, ctx.trace))
        return dx, dw, trs

    monkeypatch.setattr(harness, "forward", fwd)
    monkeypatch.setattr(harness, "backward", bwd)
    rec = run_experiment(replace(reference_config(0), steps=3))
    # the validation passes run with stats off and keep no trace
    traces = [tr for tr in traces if tr is not None]
    assert {id(tr) for tr in made if tr is not None} == {
        id(tr) for tr in traces if tr.kind is GemmKind.FPROP}
    want = {}
    for kind in GemmKind:
        stats = [list(tr.stats.values()) for tr in traces if tr.kind is kind]
        err = 0.0
        for ops in stats:
            err += sum(s.rel_fro_error for s in ops)
        want[kind.value] = {
            "mean_quant_error": err / sum(map(len, stats)),
            "saturated": sum(s.saturated for ops in stats for s in ops),
            "underflow_to_zero": sum(s.underflow_to_zero for ops in stats for s in ops),
        }
    want["inconsistent_dgrads"] = sum(tr.consistent_weights is False for tr in traces)
    assert rec.trace_summary == want


def test_format_suite_table():
    rows = run_ablation_suite(_tiny(steps=3), ["no_sr"], seeds=(0,))
    table = format_suite_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("variant")
    assert "rel_diff_vs_base" in lines[0]
    assert len(lines) == 2 + len(rows)
    assert lines[2].startswith("base")
    assert lines[3].startswith("no_sr")


def _suite_matches_run_experiment(base, names, seeds=(0, 1)):
    """Run the suite; every record must equal an independent run's bytes."""
    rows = run_ablation_suite(base, names, seeds=seeds)
    assert [r.name for r in rows] == ["base", *names]
    for row, cfg in zip(rows, [base, *(VARIANTS[n](base) for n in names)]):
        assert [r.seed for r in row.records] == list(seeds)
        for s, rec in zip(seeds, row.records):
            assert rec.to_json() == run_experiment(replace(cfg, seed=s)).to_json(), (
                row.name, s)
    return rows


def _switch_variant(step, scope="forward"):
    return lambda cfg: replace(cfg, switch=SwitchSpec(step=step, scope=scope))


@pytest.mark.parametrize("stats", [True, False])
def test_suite_forks_match_run_experiment(stats, monkeypatch):
    # the switch falls on a validation step (16 of 20, every 4); fractional
    # and integer switch steps, including 0 and steps, fork in one suite
    for name, step, scope in (("sw_0", 0, "both"), ("sw_7", 7, "backward"),
                              ("sw_half", 0.5, "forward"), ("sw_end", 20, "both")):
        monkeypatch.setitem(VARIANTS, name, _switch_variant(step, scope))
    cfg = replace(reference_config(0), steps=20, val_every=4)
    if not stats:
        cfg = _stats_off(cfg)
    rows = _suite_matches_run_experiment(
        cfg, ["switch_fwd_80", "sw_end", "no_sr", "sw_0", "sw_7", "sw_half"])
    assert [r.records[0].switch_step for r in rows] == [None, 16, 20, None, 0, 7, 10]


@pytest.mark.parametrize("switch", [1, 4])
def test_suite_fork_of_a_diverging_base(switch, monkeypatch):
    # the base diverges at step 2: a fork at 4 inherits the divergence, a
    # fork at 1 diverges on its own
    monkeypatch.setitem(VARIANTS, "sw", _switch_variant(switch))
    rows = _suite_matches_run_experiment(_nonfinite_grad_at_2(monkeypatch), ["sw"])
    assert [r.diverged for r in rows] == [2, 2]


def test_suite_trains_a_switch_prefix_once(monkeypatch):
    # base and switch_fwd_80 over 10 steps: the switch run continues the
    # base run from step 8 and draws 2 training batches, not 10
    purposes = []
    real = _TeacherStudent.batch

    def batch(self, purpose, *args):
        purposes.append(purpose)
        return real(self, purpose, *args)

    monkeypatch.setattr(_TeacherStudent, "batch", batch)
    run_ablation_suite(_stats_off(replace(reference_config(0), steps=10)),
                       ["switch_fwd_80"], seeds=(0,))
    assert purposes.count("train") == 10 + 2


# sha256 of RunRecord.to_json() for reference_config(0), 40 steps, stats off
_STATS_OFF_RECORDS = {
    "base": "1f2b0eb21d762ecf52d95419aa79dfbce0ed3d6fe039b999e6ea5abe913996d2",
    "mxfp4": "0dce2e8b9b07da781ed8c7a724557a77ecd54783aada9f58455d7c576cc252c1",
    "stripped": "7baafcf9fdc9b652c919e1f9c80ff9cc6da60ad444dca0d81bc1e28de51e5666",
    "switch_fwd_80": "6dc37257e98ddc111b1683a4a7cfd7ac7789abcd05312f89886909a012536243",
}


def test_stats_off_records_pinned():
    base = _stats_off(replace(reference_config(0), steps=40))
    rows = run_ablation_suite(base, ["mxfp4", "stripped", "switch_fwd_80"])
    got = {r.name: hashlib.sha256(r.records[0].to_json().encode()).hexdigest()
           for r in rows}
    assert got == _STATS_OFF_RECORDS


def test_reference_band_regression():
    # the calibrated fine-tuning setup lands at a loss floor two to three
    # orders of magnitude above wide precision, reproducibly to the bit
    cfg = _stats_off(reference_config(0))
    rec = run_experiment(cfg)
    assert rec.final_loss == pytest.approx(0.005459407513409941, rel=1e-9)
    assert rec.diverged_at is None
    wide = run_experiment(VARIANTS["wide"](cfg))
    ratio = rec.final_loss / wide.final_loss
    assert 50.0 < ratio < 700.0


def test_sign_strategy_band():
    # fixed vs per-instance transform signs are loss-neutral at this scale
    finals = {}
    for name in ("sign_fixed", "sign_per_instance"):
        f = []
        for seed in range(3):
            cfg = VARIANTS[name](_stats_off(replace(reference_config(seed),
                                                    steps=300)))
            f.append(run_experiment(cfg).final_loss)
        finals[name] = np.mean(f)
    ratio = finals["sign_fixed"] / finals["sign_per_instance"]
    assert 0.5 < ratio < 2.0


# --- the schema, as a property ----------------------------------------------

_FORMAT_LAYOUTS = {  # format -> (weight layouts, activation/gradient layouts)
    NVFP4: ([square2d(), rows1d(16), cols1d(16)], [rows1d(16), cols1d(16)]),
    MXFP4: ([rows1d(32), cols1d(32)], [rows1d(32), cols1d(32)]),
}
_positive = st.floats(1e-300, 1e300) | st.integers(1, 10)  # ints become floats
_non_negative = st.floats(0.0, 1e300) | st.integers(0, 10)
_fraction = st.floats(0.0, 1.0) | st.sampled_from([0, 1])
_open_fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _policies(draw):
    fmt = draw(st.sampled_from(sorted(_FORMAT_LAYOUTS, key=lambda f: f.name)))
    weight_layouts, act_layouts = _FORMAT_LAYOUTS[fmt]
    return PrecisionPolicy(
        quantize=draw(st.booleans()),
        fmt=fmt,
        weight_layout=draw(st.sampled_from(weight_layouts)),
        act_grad_layout=draw(st.sampled_from(act_layouts)),
        rht_gemms=draw(st.frozensets(st.sampled_from(list(GemmKind)))),
        rht_spec=HadamardSpec(d=2 ** draw(st.integers(1, 8)),
                              sign_seed=draw(st.integers(0, 2 ** 64)),
                              randomized=draw(st.booleans())),
        sr_roles=draw(st.frozensets(
            st.sampled_from(["gradients", "activations", "weights"]))),
        sign_strategy=draw(st.sampled_from(["none", "fixed", "per_instance"])),
        quantize_forward=draw(st.booleans()),
        quantize_backward=draw(st.booleans()),
        seed=draw(st.integers(-2 ** 40, 2 ** 40)),
        collect_stats=draw(st.booleans()),
    )


@st.composite
def _configs(draw):
    steps = draw(st.integers(1, 5000))
    cfg = ExperimentConfig(
        widths=tuple(draw(st.lists(st.integers(1, 512), min_size=2, max_size=6))),
        steps=steps,
        batch_size=draw(st.integers(1, 4096)),
        seed=draw(st.integers(-2 ** 40, 2 ** 40)),
        lr=LRSchedule(kind=draw(st.sampled_from(["constant", "wsd"])),
                      base=draw(_positive), warmup_fraction=draw(_fraction),
                      decay_fraction=draw(_fraction), floor_ratio=draw(_positive)),
        task=TaskSpec(tail=draw(_non_negative), feature_tail=draw(_non_negative),
                      noise=draw(_non_negative),
                      loss_weighting=draw(st.sampled_from(["uniform", "per_sample"])),
                      init_near_teacher=draw(st.booleans()),
                      init_spread=draw(_non_negative)),
        policy=draw(_policies()),
        exempt=ExemptionRule(fraction=draw(_fraction),
                             placement=draw(st.sampled_from(["last", "first", "none"]))),
        switch=draw(st.none() | st.builds(
            SwitchSpec, step=st.floats(0.0, steps) | st.integers(0, steps),
            scope=st.sampled_from(["forward", "backward", "both"]))),
        val_every=draw(st.integers(1, 10 ** 6)),
        val_batch=draw(st.integers(1, 4096)),
        adam_beta1=draw(_open_fraction),
        adam_beta2=draw(_open_fraction),
        adam_eps=draw(_positive),
        weight_decay=draw(_non_negative),
    )
    variant = draw(st.sampled_from([None, *sorted(VARIANTS)]))
    return cfg if variant is None else VARIANTS[variant](cfg)


def _leaves(doc, path=""):
    if not isinstance(doc, dict):
        yield path
        return
    for key, value in doc.items():
        yield from _leaves(value, f"{path}.{key}" if path else key)


def _with_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


# No field accepts these; each of the others is out of range or of the
# wrong type for most fields, and valid for the rest.
_NEVER_VALID = [float("nan"), float("inf"), "x", {"bad": 1}]
_SOMETIMES_VALID = [-1, 0, 1.5, True, None, []]


@settings(max_examples=40, deadline=None)
@given(cfg=_configs())
def test_schema_round_trip_and_dotted_paths(cfg):
    doc = config_to_dict(cfg)
    back, errs = decode(ExperimentConfig, json.loads(json.dumps(doc)))
    assert errs == [] and back == cfg
    assert config_digest(back) == config_digest(cfg)
    for path in _leaves(doc):
        for i, bad in enumerate(_NEVER_VALID + _SOMETIMES_VALID):
            _, msgs = decode(ExperimentConfig, _with_leaf(doc, path, bad))
            assert msgs or i >= len(_NEVER_VALID), (path, bad)
            assert all(m.startswith((f"{path}:", f"{path}.")) for m in msgs), (
                path, bad, msgs)
