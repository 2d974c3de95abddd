"""Teacher-student training harness for measuring quantized-training recipes.

A small ReLU MLP regresses onto a frozen teacher of the same shape.  Inputs
are Gaussian with heavy-tailed per-sample and per-feature scales (lognormal),
so every GEMM contracts blocks that mix very different magnitudes.  Master
weights and optimizer state stay in binary64; validation runs the network at
its configured precision (quantized layers stay quantized, exempt layers run
wide), which is the loss of the model you would actually deploy.

Runs are bit-deterministic: data, init, and rounding streams are all keyed
by (seed, purpose, step), so rerunning a config reproduces the record
byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blockquant import MXFP4, rows1d
from .codecs import QuantizationError
from .linear import (
    GemmKind,
    LinearLayerState,
    PrecisionPolicy,
    backward,
    forward,
)
from .reports import text_table
from .rng import normals, stream_key
from .schema import (
    FRACTION,
    NON_NEGATIVE,
    OPEN_FRACTION,
    POSITIVE,
    check_fields,
    decode,
    one_of,
    raise_errors,
    to_json,
)


@dataclass(frozen=True)
class LRSchedule:
    """Constant or warmup-stable-decay; decay is exponential down to
    base * floor_ratio across the final decay_fraction of steps."""

    kind: str = "wsd"
    base: float = 0.003
    warmup_fraction: float = 0.0
    decay_fraction: float = 0.6
    floor_ratio: float = 0.05

    def __post_init__(self):
        raise_errors(check_fields(
            self, kind=one_of("constant", "wsd"), base=POSITIVE,
            warmup_fraction=FRACTION, decay_fraction=FRACTION,
            floor_ratio=POSITIVE))

    def lr_at(self, step: int, total: int) -> float:
        if self.kind == "constant":
            return self.base
        warm = int(self.warmup_fraction * total)
        if warm and step < warm:
            return self.base * (step + 1) / warm
        decay_start = total - int(self.decay_fraction * total)
        if step < decay_start or total <= decay_start:
            return self.base
        u = (step - decay_start + 1) / (total - decay_start)
        return self.base * self.floor_ratio ** u


@dataclass(frozen=True)
class TaskSpec:
    """Teacher-student regression with lognormal per-sample input scales.

    tail controls the per-sample magnitude spread (0 disables it); the GEMMs
    that contract the batch then mix very different sample scales inside one
    scale block.  With init_near_teacher the student starts at the teacher
    plus init_spread times a fresh init, which puts the run in a fine-tuning
    regime whose loss floor is set by arithmetic precision rather than by
    optimization difficulty.
    """

    kind: str = "teacher_student"
    tail: float = 1.0          # sigma of the per-sample lognormal magnitude
    feature_tail: float = 1.0  # sigma of fixed per-input-feature scales
    noise: float = 0.0         # additive label noise
    loss_weighting: str = "per_sample"  # weight each sample by 1/scale**2
    init_near_teacher: bool = True
    init_spread: float = 0.3

    def __post_init__(self):
        raise_errors(check_fields(
            self, kind=one_of("teacher_student"), tail=NON_NEGATIVE,
            feature_tail=NON_NEGATIVE, noise=NON_NEGATIVE,
            loss_weighting=one_of("uniform", "per_sample"),
            init_spread=NON_NEGATIVE))


@dataclass(frozen=True)
class ExemptionRule:
    """Which layers keep wide precision (the usual choice: the last ones)."""

    fraction: float = 0.15
    placement: str = "last"

    def __post_init__(self):
        raise_errors(check_fields(
            self, fraction=FRACTION, placement=one_of("last", "first", "none")))

    def exempt_indices(self, n_layers: int) -> frozenset:
        if self.placement == "none" or self.fraction == 0.0:
            return frozenset()
        count = min(n_layers, math.ceil(self.fraction * n_layers))
        if self.placement == "last":
            return frozenset(range(n_layers - count, n_layers))
        return frozenset(range(count))


@dataclass(frozen=True)
class SwitchSpec:
    """Drop one or both training directions back to wide precision at a
    given step (a fraction of steps when 0 < step < 1)."""

    step: float
    scope: str = "forward"

    def __post_init__(self):
        raise_errors(check_fields(
            self, step=NON_NEGATIVE, scope=one_of("forward", "backward", "both")))

    def resolve_step(self, total: int) -> int:
        if 0 < self.step < 1:
            return int(self.step * total)
        return int(self.step)


@dataclass(frozen=True)
class ExperimentConfig:
    widths: tuple[int, ...] = (32, 64, 64, 64, 16)
    steps: int = 1500
    batch_size: int = 64
    seed: int = 0
    lr: LRSchedule = LRSchedule()
    task: TaskSpec = TaskSpec()
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    exempt: ExemptionRule = ExemptionRule()
    switch: SwitchSpec | None = None
    val_every: int = 250
    val_batch: int = 512
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        errs = check_fields(
            self, widths=((lambda w: len(w) >= 2 and min(w) >= 1),
                          "must hold at least 2 layer sizes, each positive"),
            steps=POSITIVE, batch_size=POSITIVE,
            val_every=POSITIVE, val_batch=POSITIVE, adam_beta1=OPEN_FRACTION,
            adam_beta2=OPEN_FRACTION, adam_eps=POSITIVE,
            weight_decay=NON_NEGATIVE)
        if (self.switch is not None and not errs.keys() & {"switch", "steps"}
                and self.switch.resolve_step(self.steps) > self.steps):
            errs["switch"] = (f"switch.step: must not exceed steps {self.steps} "
                              f"(got {self.switch.step!r})")
        raise_errors(errs)


def reference_config(seed: int = 0) -> ExperimentConfig:
    """The calibrated base configuration used by the recipe comparisons.

    Calibrated so the interesting effects are measurable at desk scale:
    a fine-tuning regime (init near the teacher, low peak lr, long decay)
    whose final loss is set by arithmetic precision rather than by
    optimization, heavy-tailed per-sample and per-feature input scales so
    block quantizers face mixed-magnitude operands, and validation through
    the network at its configured precision so exempting or un-exempting
    layers shows up in the number being compared."""
    return ExperimentConfig(seed=seed)


# --- config (de)serialization ------------------------------------------------

def config_to_dict(cfg: ExperimentConfig) -> dict:
    return to_json(cfg)


def validate_config(d) -> list[str]:
    """Every schema violation in the config document, one message each.

    Messages name the offending field with a dotted path; an empty list
    means config_from_dict will accept the document.
    """
    return decode(ExperimentConfig, d)[1]


def config_from_dict(d) -> ExperimentConfig:
    """The config a JSON document describes; absent fields take their
    defaults.  Raises one ValueError listing every violation, one per line."""
    cfg, errs = decode(ExperimentConfig, d)
    if errs:
        raise ValueError("\n".join(errs))
    return cfg


def config_digest(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- model -------------------------------------------------------------------

def _init_layers(widths, seed, who: str) -> list[LinearLayerState]:
    layers = []
    for i, (m, n) in enumerate(zip(widths[:-1], widths[1:])):
        w = normals(stream_key("init", who, seed, i), (n, m)) / math.sqrt(m)
        layers.append(LinearLayerState(w, layer_index=i))
    return layers


# The teacher's policy: every layer wide.
_WIDE = PrecisionPolicy(quantize=False)


def _network_forward(layers, x, policies, step):
    """The ReLU network on x, layer i under policies[i]; returns the output
    and each layer's forward context, which backward() takes."""
    ctxs = []
    a = x
    for i, (layer, policy) in enumerate(zip(layers, policies)):
        z, ctx = forward(layer, a, policy, step=step)
        ctxs.append(ctx)
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return a, ctxs


def _batch(cfg: ExperimentConfig, teacher, purpose: str, index: int, size: int):
    """One batch: inputs, teacher targets, and per-sample loss weights.

    Per-sample scales make the batch dimension heavy-tailed; per-feature
    scales (fixed for the whole run) give the input columns persistent
    magnitude structure.  With per_sample weighting the loss divides each
    sample by its squared scale, so every sample matters equally even
    though the operand magnitudes span decades.
    """
    task = cfg.task
    kx = stream_key("data", purpose, cfg.seed, index)
    x = normals(kx, (size, cfg.widths[0]))
    weights = np.ones((size, 1))
    if task.feature_tail > 0:
        logf = normals(stream_key("features", cfg.seed), (1, cfg.widths[0]))
        x = x * np.exp(task.feature_tail * logf - task.feature_tail ** 2 / 2)
    if task.tail > 0:
        logs = normals(stream_key("scale", purpose, cfg.seed, index), (size, 1))
        scale = np.exp(task.tail * logs - task.tail ** 2 / 2)
        x = x * scale
        if task.loss_weighting == "per_sample":
            weights = 1.0 / scale ** 2
    t, _ = _network_forward(teacher, x, [_WIDE] * len(teacher), 0)
    if task.noise > 0:
        t = t + task.noise * normals(
            stream_key("noise", purpose, cfg.seed, index), t.shape)
    return x, t, weights


@dataclass
class RunRecord:
    """Everything one run produced, in a canonically serializable form."""

    config_digest: str
    seed: int
    final_loss: float
    train_losses: list
    val_curve: list          # [step, wide-precision val loss] pairs
    diverged_at: int | None
    switch_step: int | None
    trace_summary: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def _layer_policies(cfg: ExperimentConfig) -> list[PrecisionPolicy]:
    n = len(cfg.widths) - 1
    exempt = cfg.exempt.exempt_indices(n)
    base = replace(cfg.policy, seed=cfg.seed)
    return [replace(base, quantize=False) if i in exempt else base
            for i in range(n)]


def _apply_switch(policies, cfg, step):
    if cfg.switch is None or step < cfg.switch.resolve_step(cfg.steps):
        return policies
    scope = cfg.switch.scope
    fwd = scope in ("forward", "both")
    bwd = scope in ("backward", "both")
    return [replace(p, quantize_forward=p.quantize_forward and not fwd,
                    quantize_backward=p.quantize_backward and not bwd)
            for p in policies]


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Train the student and report wide-precision validation losses.

    Divergence (non-finite or exploding loss, or a non-finite tensor
    reaching a quantizer) stops the run and is recorded, never raised.
    """
    teacher = _init_layers(cfg.widths, cfg.seed, "teacher")
    student = _init_layers(cfg.widths, cfg.seed + 1, "student")
    if cfg.task.init_near_teacher:
        for s_layer, t_layer in zip(student, teacher):
            s_layer.weights = (t_layer.weights
                               + cfg.task.init_spread * s_layer.weights)
    n_layers = len(student)
    policies = _layer_policies(cfg)
    switch_step = (None if cfg.switch is None
                   else cfg.switch.resolve_step(cfg.steps))

    xv, tv, wv = _batch(cfg, teacher, "val", 0, cfg.val_batch)

    adam_m = [np.zeros_like(l.weights) for l in student]
    adam_v = [np.zeros_like(l.weights) for l in student]
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps

    train_losses: list[float] = []
    val_curve: list[list] = []
    diverged_at: int | None = None
    # per kind: [sum of rel_fro_error, operands, saturated, underflow_to_zero]
    totals = {k: [0.0, 0, 0, 0] for k in GemmKind}
    inconsistent_dgrads = 0

    def validate(step):
        # quantized layers stay quantized (their deployed behavior), exempt
        # layers run wide; no per-GEMM statistics are computed
        live = [replace(p, collect_stats=False)
                for p in _apply_switch(policies, cfg, step)]
        yv, _ = _network_forward(student, xv, live, step)
        loss = float(np.mean(wv * (yv - tv) ** 2))
        val_curve.append([step, loss])
        return loss

    for step in range(cfg.steps):
        live = _apply_switch(policies, cfg, step)
        x, t, wts = _batch(cfg, teacher, "train", step, cfg.batch_size)
        try:
            y, ctxs = _network_forward(student, x, live, step)
            loss = float(np.mean(wts * (y - t) ** 2))
            train_losses.append(loss)
            if not math.isfinite(loss) or loss > 1e30:
                diverged_at = step
                break
            g = 2.0 * wts * (y - t) / y.size
            grads = [None] * n_layers
            for i in range(n_layers - 1, -1, -1):
                dx, dw, traces = backward(ctxs[i], g)
                grads[i] = dw
                for tr in (*traces, ctxs[i].trace):
                    if tr is None:
                        continue
                    ops, tot = tr.stats.values(), totals[tr.kind]
                    # a trace's errors are summed before they join the
                    # total: the pinned fingerprints fix that order
                    tot[0] += sum(s.rel_fro_error for s in ops)
                    tot[1] += len(ops)
                    tot[2] += sum(s.saturated for s in ops)
                    tot[3] += sum(s.underflow_to_zero for s in ops)
                    if tr.consistent_weights is False:  # Dgrad only
                        inconsistent_dgrads += 1
                if i:  # the layer's input is the ReLU of the one before
                    g = dx * (ctxs[i].x > 0)
            if any(not np.isfinite(gr).all() for gr in grads):
                diverged_at = step
                break
        except QuantizationError:
            diverged_at = step
            break
        lr = cfg.lr.lr_at(step, cfg.steps)
        tpow = step + 1
        for i, layer in enumerate(student):
            adam_m[i] = b1 * adam_m[i] + (1 - b1) * grads[i]
            adam_v[i] = b2 * adam_v[i] + (1 - b2) * grads[i] ** 2
            mhat = adam_m[i] / (1 - b1 ** tpow)
            vhat = adam_v[i] / (1 - b2 ** tpow)
            layer.weights = layer.weights - lr * (
                mhat / (np.sqrt(vhat) + eps)
                + cfg.weight_decay * layer.weights)
        if (step + 1) % cfg.val_every == 0 and step + 1 < cfg.steps:
            validate(step + 1)

    if diverged_at is None:
        final = validate(cfg.steps)
    else:
        final = float("inf")

    summary = {k.value: {"mean_quant_error": err / n, "saturated": sat,
                         "underflow_to_zero": under}
               for k, (err, n, sat, under) in totals.items() if n}
    summary["inconsistent_dgrads"] = inconsistent_dgrads

    return RunRecord(
        config_digest=config_digest(cfg),
        seed=cfg.seed,
        final_loss=final,
        train_losses=train_losses,
        val_curve=val_curve,
        diverged_at=diverged_at,
        switch_step=switch_step,
        trace_summary=summary,
    )


def relative_loss_difference(baseline: float, experiment: float) -> float:
    """(baseline - experiment) / baseline: positive when the experiment
    reaches a lower loss than the baseline."""
    if baseline == 0:
        return 0.0
    return (baseline - experiment) / baseline


# --- ablation suite ----------------------------------------------------------

def _policy(cfg, **changes):
    return replace(cfg, policy=replace(cfg.policy, **changes))


def _v_no_exempt(cfg):
    return replace(cfg, exempt=ExemptionRule(fraction=0.0, placement="none"))


def _v_stripped(cfg):
    """Every recipe component removed at once: all layers quantized,
    nearest-even everywhere, no outlier spreading, 1D weight scales."""
    return _v_no_exempt(_policy(cfg, sr_roles=frozenset(), rht_gemms=frozenset(),
                                weight_layout=rows1d(cfg.policy.fmt.block_len)))


def _v_rht_d(d):
    return lambda cfg: _policy(cfg, rht_spec=replace(cfg.policy.rht_spec, d=d))


def _v_sign(strategy):
    return lambda cfg: _policy(cfg, sign_strategy=strategy)


VARIANTS = {
    "wide": lambda cfg: _policy(cfg, quantize=False),
    "no_sr": lambda cfg: _policy(cfg, sr_roles=frozenset()),
    "no_rht": lambda cfg: _policy(cfg, rht_gemms=frozenset()),
    "no_2d": lambda cfg: _policy(cfg, weight_layout=rows1d(cfg.policy.fmt.block_len)),
    "no_exempt": _v_no_exempt,
    "stripped": _v_stripped,
    "mxfp4": lambda cfg: _policy(cfg, fmt=MXFP4, weight_layout=rows1d(MXFP4.block_len),
                                 act_grad_layout=rows1d(MXFP4.block_len),
                                 rht_spec=replace(cfg.policy.rht_spec, d=MXFP4.block_len)),
    "rht_d4": _v_rht_d(4),
    "rht_d16": _v_rht_d(16),
    "rht_d128": _v_rht_d(128),
    "sign_none": _v_sign("none"),
    "sign_fixed": _v_sign("fixed"),
    "sign_per_instance": _v_sign("per_instance"),
    "switch_fwd_80": lambda cfg: replace(cfg, switch=SwitchSpec(step=0.8, scope="forward")),
}


@dataclass
class SuiteRow:
    name: str
    final_losses: list
    mean_final_loss: float
    rel_diff_vs_base: float   # positive: variant better than the base run
    diverged: int
    records: list


def run_ablation_suite(base: ExperimentConfig, variant_names=None,
                       seeds=(0,)) -> list[SuiteRow]:
    """Run the base config and each named variant over the seeds.

    Every variant reuses the base config with one axis changed; the first
    row is the base itself (rel diff 0 by construction).  Divergence shows
    up as an infinite mean loss, not an exception.
    """
    if variant_names is None:
        variant_names = ["no_sr", "no_rht", "no_2d", "mxfp4"]
    unknown = [n for n in variant_names if n not in VARIANTS]
    if unknown:
        raise KeyError(f"unknown ablation axes: {unknown}")

    def run_all(cfg):
        return [run_experiment(replace(cfg, seed=s)) for s in seeds]

    rows = []
    for name, cfg in [("base", base), *((n, VARIANTS[n](base)) for n in variant_names)]:
        recs = run_all(cfg)
        losses = [r.final_loss for r in recs]
        mean = float(np.mean(losses))
        # 0.0 for the base itself, even a diverged one (inf vs inf is NaN)
        rel = relative_loss_difference(rows[0].mean_final_loss, mean) if rows else 0.0
        rows.append(SuiteRow(name, losses, mean, rel,
                             sum(r.diverged_at is not None for r in recs), recs))
    return rows


def paired_wins(records_a, records_b) -> int:
    """How many seed-paired comparisons records_a wins (lower final loss)."""
    return sum(ra.final_loss < rb.final_loss
               for ra, rb in zip(records_a, records_b, strict=True))


def format_suite_table(rows: list[SuiteRow]) -> str:
    header = ["variant", "mean_final_loss", "rel_diff_vs_base", "diverged"]
    return text_table([header] + [
        [r.name, f"{r.mean_final_loss:.6g}", f"{r.rel_diff_vs_base:+.4f}", str(r.diverged)]
        for r in rows])
