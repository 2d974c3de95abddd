"""Spans recorded from the benchmark's side of each fp4sim layer boundary.

The traced run replaces selected public functions of the fp4sim modules by
wrappers that time or count each call.  fp4sim modules import names
directly (``from .blockquant import quantize``), so a wrapper is bound
wherever the name is looked up: in every loaded fp4sim module whose
namespace holds the original function, not only in the defining module.

Spans are aggregated in memory by name.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = collections.Counter()


class Tracer:
    """Aggregates calls, total time, self time and work counts per span name.

    clock is injectable so that the self-time accounting can be checked
    against a scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = collections.defaultdict(SpanStat)
        self.active = True
        self._open: list[float] = []  # child time covered inside each open span

    def span(self, name, fn, work=None):
        """Wrap fn so each call is timed under name.  work(result, *args,
        **kwargs) returns a dict of counts to add to the span's work."""
        stat = self.stats[name]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                children = self._open.pop()
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - children
                if self._open:
                    self._open[-1] += duration
            if work is not None:
                stat.work.update(work(result, *args, **kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Wrap fn so calls are counted but not timed (for hot helpers whose
        time stays with the calling span)."""
        stat = self.stats[name]

        def counted(*args, **kwargs):
            if self.active:
                stat.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def paused(self):
        """Run untraced (for checks that must not count as layer work)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was


# --- what is traced --------------------------------------------------------

def _melem(result, x, *args, **kwargs):
    return {"melem": np.size(x) / 1e6}


def _melem_out(result, *args, **kwargs):
    return {"melem": np.size(result) / 1e6}


def _gemm_work(result, qa, qb, *args, **kwargs):
    # Padded shapes: the block loop computes over the zero padding too.
    mp, kp = qa.codes.shape
    np_ = qb.codes.shape[1]
    block_k = 16 if qa.layout.kind == "square" else qa.layout.block_shape[1]
    m, k = qa.shape
    n = qb.shape[1]
    return {"gflop": 2.0 * mp * kp * np_ / 1e9, "kblock_iters": kp // block_k,
            ("shape", m, k, n): 1}


def _rht_work(result, x, spec, *args, **kwargs):
    size = np.size(x)
    return {"melem": size / 1e6, "gflop": 2.0 * size * spec.d / 1e9}


def _quantized_backward(result, ctx, *args, **kwargs):
    return {"quantized": int(ctx.policy.quantize and ctx.policy.quantize_backward)}


def _diverged(result, *args, **kwargs):
    return {"diverged": int(result.diverged_at is not None)}


def _file_mb(result, path, *args, **kwargs):
    return {"mb": os.path.getsize(path) / 1e6}


def _nonzero_exit(result, *args, **kwargs):
    return {"nonzero_exits": int(result != 0)}


# (module, function, "span" or "count", work)
TRACED = (
    ("harness", "run_experiment", "span", _diverged),
    ("linear", "forward", "span", None),
    ("linear", "backward", "span", _quantized_backward),
    ("reports", "quantization_stats", "span", None),
    ("gemm", "scaled_gemm", "span", _gemm_work),
    ("gemm", "transpose_quantized_view", "count", None),
    ("hadamard", "apply_rht_tiled", "span", _rht_work),
    ("blockquant", "quantize", "span", _melem),
    ("blockquant", "dequantize", "span", None),
    ("blockquant", "block_decompose", "count", None),
    ("codecs", "encode_e2m1", "span", None),
    ("codecs", "sr_round", "span", _melem),
    ("codecs", "encode_e4m3", "span", None),
    ("codecs", "decode_e2m1", "count", None),
    ("rng", "uniforms_at", "span", _melem_out),
    ("rng", "stream_key", "count", None),
    ("rng", "normals", "span", None),
    ("tensorfile", "write_tensor", "span", _file_mb),
    ("tensorfile", "read_tensor", "span", _file_mb),
    ("cli", "main", "span", _nonzero_exit),
)


def instrument(tracer: Tracer, package: str = "fp4sim"):
    """Bind traced wrappers in every loaded module of the package.

    Returns a function that restores the original bindings.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    restore = []
    for module_name, fn_name, kind, work in TRACED:
        original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
        name = f"{module_name}.{fn_name}"
        wrapped = (tracer.span(name, original, work) if kind == "span"
                   else tracer.counter(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    restore.append((module, attr, original))

    def undo():
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)

    return undo


# --- per-layer metrics -----------------------------------------------------

def gemm_shapes(tracer: Tracer) -> dict:
    """(m, k, n) -> number of scaled_gemm calls with those logical shapes."""
    work = tracer.stats["gemm.scaled_gemm"].work
    return {key[1:]: count for key, count in work.items()
            if isinstance(key, tuple)}


def matmul_seconds(shapes: dict, min_seconds: float = 0.02) -> float:
    """Time of a plain binary64 A @ B for every recorded GEMM shape.

    Each shape is timed over at least three products and min_seconds, and
    its per-product time is weighted by how often the shape occurred.
    """
    rng = np.random.default_rng(0)
    total = 0.0
    for (m, k, n), count in sorted(shapes.items()):
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        reps = 0
        start = time.perf_counter()
        while True:
            a @ b
            reps += 1
            elapsed = time.perf_counter() - start
            if reps >= 3 and elapsed >= min_seconds:
                break
        total += count * elapsed / reps
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_wall_s: float,
                  untraced_op_s: float, matmul_s: float) -> dict:
    """Per-layer metrics (name -> value) from a traced measurement of `ops`
    ops that took traced_wall_s of timed work.  Values are per op, so counts
    repeat exactly from run to run.  Each span gives <name>.calls,
    <name>.self_s and <name>.<work key> (once it has done work); the rest
    are ratios of those."""
    s = tracer.stats
    values = {}
    for module_name, fn_name, _, _ in TRACED:
        name = f"{module_name}.{fn_name}"
        values[f"{name}.calls"] = s[name].calls / ops
        values[f"{name}.self_s"] = s[name].self_s / ops
        for key, amount in s[name].work.items():
            if isinstance(key, str):
                values[f"{name}.{key}"] = amount / ops
    quantizes = s["blockquant.quantize"].calls
    quantized_backwards = s["linear.backward"].work["quantized"]
    gemm = s["gemm.scaled_gemm"]
    values.update({
        "reports.share": _ratio(s["reports.quantization_stats"].self_s, traced_wall_s),
        "gemm.gflop_computed": gemm.work["gflop"] / ops,
        "gemm.kblock_iters": gemm.work["kblock_iters"] / ops,
        "gemm.vs_matmul_ratio": _ratio(gemm.self_s, matmul_s),
        "hadamard.gflop_computed": s["hadamard.apply_rht_tiled"].work["gflop"] / ops,
        "blockquant.block_map_rebuilds_per_quantize":
            _ratio(s["blockquant.block_decompose"].calls, quantizes),
        "codecs.decodes_per_quantize": _ratio(s["codecs.decode_e2m1"].calls, quantizes),
        "linear.dgrad_reuse_ratio":
            _ratio(s["gemm.transpose_quantized_view"].calls, quantized_backwards),
        "harness.diverged_runs": s["harness.run_experiment"].work["diverged"] / ops,
        "harness.concurrency": _ratio(s["harness.run_experiment"].total_s, traced_wall_s),
        "trace.overhead_ratio": _ratio(traced_wall_s / ops, untraced_op_s),
    })
    return values
