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

import copy
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


class _TeacherStudent:
    """The run's task: a frozen teacher, the student's initial weights,
    batches the teacher labels, and the weighted mean squared error.

    Per-sample scales make the batch dimension heavy-tailed; per-feature
    scales (drawn once per run) give the input columns persistent magnitude
    structure; a tail of 0 makes every scale exactly 1.  With per_sample
    weighting the loss divides each sample by its squared scale, so every
    sample matters equally though the operand magnitudes span decades.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, task = cfg, cfg.task
        self.teacher = _init_layers(cfg.widths, cfg.seed, "teacher")
        self.teacher_policies = [PrecisionPolicy(quantize=False)] * len(self.teacher)
        self.student = _init_layers(cfg.widths, cfg.seed + 1, "student")
        if task.init_near_teacher:
            for s_layer, t_layer in zip(self.student, self.teacher):
                s_layer.weights = (t_layer.weights
                                   + task.init_spread * s_layer.weights)
        logf = normals(stream_key("features", cfg.seed), (1, cfg.widths[0]))
        self.feature_scale = np.exp(task.feature_tail * logf
                                    - task.feature_tail ** 2 / 2)

    def batch(self, purpose: str, index: int, size: int):
        """The inputs, and the target the loss takes: the teacher's outputs
        and per-sample loss weights."""
        cfg, task = self.cfg, self.cfg.task
        logs = normals(stream_key("scale", purpose, cfg.seed, index), (size, 1))
        scale = np.exp(task.tail * logs - task.tail ** 2 / 2)
        x = normals(stream_key("data", purpose, cfg.seed, index),
                    (size, cfg.widths[0])) * self.feature_scale * scale
        weights = (1.0 / scale ** 2 if task.loss_weighting == "per_sample"
                   else np.ones((size, 1)))
        t, _ = _network_forward(self.teacher, x, self.teacher_policies, 0)
        if task.noise > 0:
            t = t + task.noise * normals(
                stream_key("noise", purpose, cfg.seed, index), t.shape)
        return x, (t, weights)

    @staticmethod
    def loss(y, t, w) -> float:
        return float(np.mean(w * (y - t) ** 2))

    @staticmethod
    def loss_grad(y, t, w):
        """The gradient of loss() with respect to the output y."""
        return 2.0 * w * (y - t) / y.size


@dataclass
class RunRecord:
    """Everything one run produced, in a canonically serializable form."""

    config_digest: str
    seed: int
    final_loss: float
    train_losses: list
    val_curve: list          # [step, val loss at the configured precision] pairs
    diverged_at: int | None
    switch_step: int | None
    trace_summary: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def _layer_policies(cfg: ExperimentConfig, switch_step: int | None):
    """A step's (training, validation) layer policies, as a function of the
    step, built once per phase: before the switch, and after it if there is
    one.  Exempt layers run wide; validation keeps the others quantized
    (their deployed behavior) and computes no per-GEMM statistics."""
    n = len(cfg.widths) - 1
    exempt = cfg.exempt.exempt_indices(n)
    base = replace(cfg.policy, seed=cfg.seed)
    phases = [[replace(base, quantize=False) if i in exempt else base
               for i in range(n)]]
    if cfg.switch is not None:
        scope = cfg.switch.scope  # the direction(s) that go back to wide
        phases.append([replace(p, quantize_forward=p.quantize_forward and scope == "backward",
                               quantize_backward=p.quantize_backward and scope == "forward")
                       for p in phases[0]])
    phases = [(train, [replace(p, collect_stats=False) for p in train])
              for train in phases]
    return lambda step: phases[switch_step is not None and step >= switch_step]


class _Run:
    """A training run after the updates of every step before next_step,
    with the validation due at next_step not yet run.  Forks share the task
    and the validation batch, read-only; the rest (the student, the Adam
    moments, the record so far) belongs to the run."""

    def __init__(self, cfg: ExperimentConfig):
        self.task = _TeacherStudent(cfg)
        self.val = self.task.batch("val", 0, cfg.val_batch)
        self.student = copy.deepcopy(self.task.student)
        self.adam_m = [np.zeros_like(l.weights) for l in self.student]
        self.adam_v = [np.zeros_like(l.weights) for l in self.student]
        self.train_losses, self.val_curve = [], []
        # per kind: [sum of rel_fro_error, operands, saturated, underflow_to_zero]
        self.totals = {k: [0.0, 0, 0, 0] for k in GemmKind}
        self.inconsistent_dgrads, self.next_step = 0, 0
        self.diverged_at: int | None = None
        self._configure(cfg)

    def _configure(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.switch_step = cfg.switch and cfg.switch.resolve_step(cfg.steps)
        self.policies = _layer_policies(cfg, self.switch_step)

    def fork(self, cfg: ExperimentConfig) -> "_Run":
        """This run continued under cfg, which must train as this run's config
        up to next_step; the copy shares nothing either run mutates."""
        run = copy.deepcopy(self, {id(self.task): self.task, id(self.val): self.val})
        run._configure(cfg)
        return run

    def _validate(self, step: int) -> list:
        """[step, validation loss] under step's validation policies."""
        yv, _ = _network_forward(self.student, self.val[0], self.policies(step)[1], step)
        return [step, self.task.loss(yv, *self.val[1])]

    def advance(self, to: int):
        """Run each step from next_step up to (not including) to: the
        validation due at it, then its update; a diverged run stays put."""
        if self.diverged_at is not None:
            return
        cfg, task, student = self.cfg, self.task, self.student
        b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        for step in range(self.next_step, to):
            if step and step % cfg.val_every == 0:
                self.val_curve.append(self._validate(step))
            x, target = task.batch("train", step, cfg.batch_size)
            grads = None
            try:
                y, ctxs = _network_forward(student, x, self.policies(step)[0], step)
                loss = task.loss(y, *target)
                self.train_losses.append(loss)
                if math.isfinite(loss) and loss <= 1e30:
                    g = task.loss_grad(y, *target)
                    grads = [None] * len(student)
                    for i in range(len(student) - 1, -1, -1):
                        # no layer takes layer 0's input gradient
                        dx, dw, traces = backward(ctxs[i], g, need_dx=i > 0)
                        grads[i] = dw
                        for tr in (*traces, ctxs[i].trace):
                            if tr is None:
                                continue
                            ops, tot = tr.stats.values(), self.totals[tr.kind]
                            # a trace's errors are summed before they join the
                            # total: the pinned fingerprints fix that order
                            tot[0] += sum(s.rel_fro_error for s in ops)
                            tot[1] += len(ops)
                            tot[2] += sum(s.saturated for s in ops)
                            tot[3] += sum(s.underflow_to_zero for s in ops)
                        if ctxs[i].dgrad_consistent is False:
                            self.inconsistent_dgrads += 1
                        if i:  # the layer's input is the ReLU of the one before
                            g = dx * (ctxs[i].x > 0)
            except QuantizationError:
                grads = None
            # the one divergence exit: no gradients (an exploding or non-finite
            # loss, or a QuantizationError), or a non-finite one
            if grads is None or any(not np.isfinite(gr).all() for gr in grads):
                self.diverged_at = step
                break
            lr = cfg.lr.lr_at(step, cfg.steps)
            tpow = step + 1
            for i, layer in enumerate(student):
                self.adam_m[i] = b1 * self.adam_m[i] + (1 - b1) * grads[i]
                self.adam_v[i] = b2 * self.adam_v[i] + (1 - b2) * grads[i] ** 2
                mhat = self.adam_m[i] / (1 - b1 ** tpow)
                vhat = self.adam_v[i] / (1 - b2 ** tpow)
                layer.weights = layer.weights - lr * (
                    mhat / (np.sqrt(vhat) + eps)
                    + cfg.weight_decay * layer.weights)
            self.next_step = step + 1

    def finish(self) -> RunRecord:
        """Advance to the last step and validate there; returns the record."""
        cfg = self.cfg
        self.advance(cfg.steps)
        val_curve, final = self.val_curve, float("inf")
        if self.diverged_at is None:
            val_curve = val_curve + [self._validate(cfg.steps)]
            final = val_curve[-1][1]
        summary = {k.value: {"mean_quant_error": err / n, "saturated": sat,
                             "underflow_to_zero": under}
                   for k, (err, n, sat, under) in self.totals.items() if n}
        summary["inconsistent_dgrads"] = self.inconsistent_dgrads
        return RunRecord(
            config_digest=config_digest(cfg), seed=cfg.seed, final_loss=final,
            train_losses=self.train_losses, val_curve=val_curve,
            diverged_at=self.diverged_at, switch_step=self.switch_step,
            trace_summary=summary)


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Train the student and report validation losses of the network at its
    configured precision.  Divergence (an exploding or non-finite loss, a
    non-finite gradient, or a non-finite tensor reaching a quantizer) stops
    the run and is recorded, never raised."""
    return _Run(cfg).finish()


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

    A variant that differs from a base without a switch only in its switch
    trains exactly as the base up to its switch step, so per seed it forks
    the base run there instead of retraining that prefix.  Every record is
    byte-identical to run_experiment's for the same config and seed.
    """
    if variant_names is None:
        variant_names = ["no_sr", "no_rht", "no_2d", "mxfp4"]
    unknown = [n for n in variant_names if n not in VARIANTS]
    if unknown:
        raise KeyError(f"unknown ablation axes: {unknown}")

    named = [("base", base), *((n, VARIANTS[n](base)) for n in variant_names)]
    # config index -> switch step, for the variants that fork the base run
    forks = {i: cfg.switch.resolve_step(cfg.steps) for i, (_, cfg) in enumerate(named)
             if cfg.switch is not None and replace(cfg, switch=None) == base}
    records = [[] for _ in named]
    for s in seeds:
        runs = {0: _Run(replace(base, seed=s))} if forks else {}
        for i in sorted(forks, key=forks.get):
            runs[0].advance(forks[i])
            runs[i] = runs[0].fork(replace(named[i][1], seed=s))
        for i, (_, cfg) in enumerate(named):
            run = runs.pop(i, None)
            records[i].append(run.finish() if run else run_experiment(replace(cfg, seed=s)))

    rows = []
    for (name, _), recs in zip(named, records):
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
