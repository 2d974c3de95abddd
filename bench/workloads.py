"""The benchmark's three workloads.

Each workload turns the benchmark seed into inputs and hands fp4sim only
those generated inputs.  Its op is the workload's fixed unit of work: a
timed call plus an untimed check of its output; a check returns a list of
failure messages.  op(index) gives the index-th op, so consecutive ops use
fresh seeds.

Every call into fp4sim goes through a module attribute (``fp.harness.
run_experiment``), so the traced run sees the wrappers bound by spans.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

# criterion 04's tolerance for scaled_gemm against dequantize-then-matmul
GEMM_RTOL = 1e-10


def _cli(fp, argv) -> tuple[int, str]:
    """fp4sim's command line, in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fp.cli.main(argv)
    return code, out.getvalue()


def _same_record(fp, cfg, record) -> list[str]:
    again = fp.harness.run_experiment(cfg)
    if again.to_json() != record.to_json():
        return [f"rerun of seed {cfg.seed} is not byte-identical"]
    return []


class TrainRef:
    """Reference config, stats on, default policy, shortened runs."""

    name = "train_ref"
    # At 64 steps the per-run fixed cost (layer init, the 512-row validation
    # batch and its final forward) is about 3 % of a run.
    steps = 64
    # layer spans that must (and must not) see calls in a traced run
    uses = ("harness.run_experiment", "linear.forward", "linear.backward",
            "reports.quantization_stats", "gemm.scaled_gemm",
            "gemm.transpose_quantized_view", "hadamard.apply_rht_tiled",
            "codecs.sr_round", "rng.uniforms_at")
    unused = ("tensorfile.write_tensor", "tensorfile.read_tensor", "cli.main")

    def __init__(self, fp, seed: int, workdir: str):
        self.fp = fp
        self.seed = seed

    def config(self, index: int):
        cfg = self.fp.harness.reference_config(self.seed + index)
        return replace(cfg, steps=self.steps)

    def setup(self):
        cfg = self.config(0)
        self.fp.hadamard.build_hadamard(cfg.policy.rht_spec)
        self.fp.harness.run_experiment(replace(cfg, steps=2))
        batch = cfg.batch_size * cfg.widths[0]
        self.steps_per_op = self.steps
        self.elements_per_op = self.steps * batch

    def op(self, index: int):
        cfg = self.config(index)

        def run():
            return self.fp.harness.run_experiment(cfg)

        def check(record):
            failures = []
            if record.diverged_at is not None or not math.isfinite(record.final_loss):
                failures.append(f"seed {cfg.seed} diverged at {record.diverged_at}")
            if index == 0:
                failures += _same_record(self.fp, cfg, record)
            return failures

        return run, check


class AblateSuite:
    """run_ablation_suite as criterion 09 runs it (stats off), shortened."""

    name = "ablate_suite"
    # At 40 steps the per-run fixed cost is about 4 % of a suite.
    steps = 40
    variants = ("wide", "mxfp4", "rht_d128", "stripped", "switch_fwd_80")
    seeds_per_op = 2
    uses = ("harness.run_experiment", "linear.forward", "linear.backward",
            "gemm.scaled_gemm", "hadamard.apply_rht_tiled", "blockquant.quantize")
    unused = ("reports.quantization_stats", "tensorfile.write_tensor",
              "tensorfile.read_tensor", "cli.main")

    def __init__(self, fp, seed: int, workdir: str):
        self.fp = fp
        self.seed = seed

    def setup(self):
        h = self.fp.harness
        cfg = h.reference_config(self.seed)
        self.base = replace(cfg, steps=self.steps,
                            policy=replace(cfg.policy, collect_stats=False))
        for name in self.variants:
            spec = h.VARIANTS[name](self.base).policy.rht_spec
            self.fp.hadamard.build_hadamard(spec)
        h.run_ablation_suite(replace(self.base, steps=1), list(self.variants),
                             seeds=(self.seed,))
        runs = (1 + len(self.variants)) * self.seeds_per_op
        self.steps_per_op = runs * self.steps
        self.elements_per_op = self.steps_per_op * cfg.batch_size * cfg.widths[0]

    def op(self, index: int):
        first = self.seed + self.seeds_per_op * index
        seeds = tuple(range(first, first + self.seeds_per_op))

        def run():
            return self.fp.harness.run_ablation_suite(
                self.base, list(self.variants), seeds=seeds)

        def check(rows):
            failures = []
            names = [row.name for row in rows]
            if names != ["base", *self.variants]:
                failures.append(f"suite rows {names}")
            for row in rows:
                if row.diverged or not math.isfinite(row.mean_final_loss):
                    failures.append(f"{row.name} diverged on seeds {seeds}")
                if [r.seed for r in row.records] != list(seeds):
                    failures.append(f"{row.name} ran seeds "
                                    f"{[r.seed for r in row.records]}")
            if index == 0 and rows:
                failures += _same_record(
                    self.fp, replace(self.base, seed=seeds[0]), rows[0].records[0])
            return failures

        return run, check


class TensorPipeline:
    """Command line and library path on heavy-tailed operand pairs."""

    name = "tensor_pipeline"
    # (m, k, n): A is m x k with lognormal row scales, B is k x n
    shapes = ((512, 1024, 512), (1024, 4096, 1024))
    # (name, format, layout of A, layout of B, extra quantize arguments)
    encodings = (
        ("nv", "nvfp4", "rows16", "cols16", ()),
        ("sr", "nvfp4", "rows16", "cols16", ("--round", "sr")),
        ("mx", "mxfp4", "rows32", "cols32", ()),
    )
    # one container per scale codec is dequantized and multiplied
    decoded_encodings = ("nv", "mx")
    steps_per_pair = 4  # the four numbered steps of _pair_run
    uses = ("cli.main", "tensorfile.write_tensor", "tensorfile.read_tensor",
            "blockquant.quantize", "blockquant.dequantize", "codecs.sr_round",
            "reports.quantization_stats", "hadamard.apply_rht_tiled",
            "gemm.scaled_gemm")
    unused = ("harness.run_experiment", "linear.forward", "linear.backward")

    def __init__(self, fp, seed: int, workdir: str):
        self.fp = fp
        self.seed = seed
        self.workdir = workdir

    def path(self, pair: int, operand: str, encoding: str = "wide") -> str:
        return os.path.join(self.workdir, f"p{pair}_{operand}.{encoding}.fp4t")

    def setup(self):
        self.operands = []
        for pair, (m, k, n) in enumerate(self.shapes):
            rng = np.random.default_rng([self.seed, pair])
            a = rng.standard_normal((m, k)) * rng.lognormal(0.0, 1.0, (m, 1))
            b = rng.standard_normal((k, n))
            self.operands.append((a, b))
            self.fp.tensorfile.write_tensor(self.path(pair, "a"), a)
            self.fp.tensorfile.write_tensor(self.path(pair, "b"), b)
        self.fp.hadamard.build_hadamard(self.fp.hadamard.HadamardSpec(d=16))
        self.steps_per_op = self.steps_per_pair * len(self.shapes)
        self.elements_per_op = sum(a.size + b.size for a, b in self.operands)

    def op(self, index: int):
        """Every pair through the pipeline, so ops are alike."""
        pairs = range(len(self.shapes))

        def run():
            return [self._pair_run(pair) for pair in pairs]

        def check(results):
            return [f for pair in pairs for f in self._pair_check(pair, results[pair])]

        return run, check

    def _pair_run(self, pair: int):
        fp = self.fp
        a, b = self.operands[pair]
        codes = []
        # 1. write the wide containers
        for operand, x in (("a", a), ("b", b)):
            fp.tensorfile.write_tensor(self.path(pair, operand), x)
        # 2. quantize both operands in every encoding
        for enc, fmt, layout_a, layout_b, extra in self.encodings:
            for operand, layout in (("a", layout_a), ("b", layout_b)):
                code, _ = _cli(fp, [
                    "quantize", self.path(pair, operand), "--format", fmt,
                    "--layout", layout, *extra, "--seed", str(self.seed),
                    "--out", self.path(pair, operand, enc)])
                codes.append(code)
        # 3. dequantize; analyze the heavy-tailed operand
        for enc in self.decoded_encodings:
            for operand in ("a", "b"):
                code, _ = _cli(fp, [
                    "dequantize", self.path(pair, operand, enc),
                    "--out", self.path(pair, operand, enc + ".wide")])
                codes.append(code)
        code, report = _cli(fp, ["analyze", self.path(pair, "a"),
                                 "--rht-d", "16", "--json"])
        codes.append(code)
        # 4. read the quantized containers back and multiply
        products = {}
        for enc in self.decoded_encodings:
            qa = fp.tensorfile.read_tensor(self.path(pair, "a", enc))
            qb = fp.tensorfile.read_tensor(self.path(pair, "b", enc))
            products[enc] = (qa, qb, fp.gemm.scaled_gemm(qa, qb))
        return codes, report, products

    def _pair_check(self, pair: int, result) -> list[str]:
        fp = self.fp
        a, b = self.operands[pair]
        codes, report, products = result
        failures = [f"pair {pair}: fp4sim exited {c}" for c in codes if c]
        failures += self._check_analyze(pair, report)
        failures += self._check_read_back(pair, a, b, products["nv"])
        for enc, (qa, qb, got) in products.items():
            want = fp.gemm.dequant_matmul(qa, qb)
            err = np.linalg.norm(got - want)
            if not err <= GEMM_RTOL * max(np.linalg.norm(want), 1e-30):
                failures.append(f"pair {pair}: {enc} scaled_gemm is {err:.3g} "
                                f"from dequantize-then-matmul")
        return failures

    def _check_analyze(self, pair: int, text: str) -> list[str]:
        try:
            reports = json.loads(text)["reports"]
        except (ValueError, KeyError):
            return [f"pair {pair}: analyze printed no JSON report"]
        layouts = sorted(f"{r['fmt']}/{r['layout']}" for r in reports)
        want = ["mxfp4/rows", "mxfp4/rows+rht16", "nvfp4/rows", "nvfp4/rows+rht16"]
        if layouts != want:
            return [f"pair {pair}: analyze reported {layouts}"]
        if not all(0.0 < r["rel_fro_error"] < 1.0 for r in reports):
            return [f"pair {pair}: analyze error out of range"]
        return []

    def _check_read_back(self, pair: int, a, b, product) -> list[str]:
        """The nvfp4 containers read back hold what the library encodes, and
        their dequantized containers hold its decoding."""
        fp = self.fp
        bq = fp.blockquant
        failures = []
        for operand, x, q_read, layout in (("a", a, product[0], bq.rows1d(16)),
                                           ("b", b, product[1], bq.cols1d(16))):
            q = bq.quantize(x, bq.NVFP4, layout)
            if not (np.array_equal(q_read.codes, q.codes)
                    and np.array_equal(q_read.scale_codes, q.scale_codes)
                    and q_read.global_decode_scale == q.global_decode_scale
                    and q_read.shape == q.shape and q_read.layout == q.layout):
                failures.append(f"pair {pair}: {operand} container read back "
                                f"differs from the library encoding")
            wide = fp.tensorfile.read_tensor(self.path(pair, operand, "nv.wide"))
            if not np.array_equal(wide, q.dequantize()):
                failures.append(f"pair {pair}: {operand} dequantized container "
                                f"differs from the library decoding")
        return failures


WORKLOADS = {w.name: w for w in (TrainRef, AblateSuite, TensorPipeline)}
