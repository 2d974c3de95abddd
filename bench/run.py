"""fp4sim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train_ref --seed 0 --seconds 25 --trace 0

Run it from anywhere inside an fp4sim source checkout; it imports fp4sim
from the checkout's src/ directory and writes its containers to a work
directory in the checkout, removed on exit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones of a traced run.  The lines before it record the
environment, the fingerprint gate and how each statistic was formed.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass, field

# The benchmark leaves no bytecode in the checkout.
sys.dont_write_bytecode = True

import gate  # noqa: E402  (imports no numpy)

gate.pin_threads()  # before numpy loads

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("blockquant", "cli", "codecs", "gemm", "hadamard", "harness",
           "linear", "reports", "rng", "tensorfile")
SETUP_REPEATS = 9


def import_fp4sim() -> types.SimpleNamespace:
    """Import fp4sim afresh (modules, lazy caches and all) from SRC.

    Bytecode is looked up under sys.pycache_prefix, which run() points at an
    empty directory during set-up, so fp4sim is compiled from source every
    time whatever src/fp4sim/__pycache__ holds.
    """
    for name in [n for n in sys.modules if n == "fp4sim" or n.startswith("fp4sim.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"fp4sim.{m}") for m in MODULES})


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": blas.get("name", "unknown"),
           "blas_version": blas.get("version", "unknown"),
           "cpu_count": os.cpu_count()}
    env.update((name, os.environ.get(name)) for name in gate.THREAD_ENV)
    return env


def _cpu_s() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


@dataclass
class Measurement:
    op_s: list = field(default_factory=list)      # wall time of each op
    op_cpu_s: list = field(default_factory=list)  # CPU time of each op
    ops: int = 0                                  # ops attempted
    failed: int = 0
    failures: list = field(default_factory=list)


def measure(workload, seconds: float, first_op: int, tracer=None) -> Measurement:
    """Time ops one after another, stopping at the op boundary nearest
    `seconds` of timed work (at least one op).  Checks run untimed and
    untraced.  An op that raises ends the measurement."""
    m = Measurement()
    untraced = tracer.paused if tracer else contextlib.nullcontext
    elapsed = 0.0
    index = first_op
    while not m.op_s or elapsed + elapsed / len(m.op_s) / 2 < seconds:
        run, check = workload.op(index)
        m.ops += 1
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            result = run()
        except Exception:
            traceback.print_exc()
            m.failed += 1
            m.failures.append(f"op {index}: raised")
            return m
        wall = time.perf_counter() - start
        m.op_cpu_s.append(_cpu_s() - cpu0)
        m.op_s.append(wall)
        elapsed += wall
        with untraced():
            try:
                failures = check(result)
            except Exception:
                traceback.print_exc()
                failures = ["check raised"]
        # Free the output before the next op, so peak_rss_mb is one op's
        # peak and does not grow with the number of ops.
        del result
        if failures:
            m.failed += 1
            m.failures += [f"op {index}: {f}" for f in failures]
        index += 1
    return m


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


def end_to_end(m: Measurement, setup_s: list[float], workload) -> dict:
    n = len(m.op_s)
    wall = sum(m.op_s)
    tail_s, tail_pct = tail(m.op_s)
    beyond = "10 ops beyond it" if n > 10 else "the maximum: ten ops or fewer"
    print(f"ops {n}; op_ms_tail is p{tail_pct:.1f} of {n} ops ({beyond})")
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall / n,
        "cpu_s": sum(m.op_cpu_s) / n,
        "peak_rss_mb": _peak_rss_mb(),
        "op_ms_p50": statistics.median(m.op_s) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "steps_per_s": workload.steps_per_op * n / wall,
        "melem_per_s": workload.elements_per_op * n / wall / 1e6,
    }


def per_layer(workload, seconds: float) -> tuple[dict, Measurement, list[str]]:
    """Half the time untraced, half traced; the ratio of their mean op times
    is the tracing overhead."""
    untraced = measure(workload, seconds / 2, 0)
    if untraced.failed:
        return {}, untraced, []
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        traced = measure(workload, seconds / 2, len(untraced.op_s), tracer)
    finally:
        undo()
    traced.ops += untraced.ops
    traced.failed += untraced.failed
    traced.failures += untraced.failures
    if not traced.op_s:
        return {}, traced, []
    claims = [f"{workload.name} never calls {name}" for name in workload.uses
              if tracer.stats[name].calls == 0]
    claims += [f"{workload.name} calls {name}" for name in workload.unused
               if tracer.stats[name].calls]
    metrics = spans.layer_metrics(
        tracer, len(traced.op_s), sum(traced.op_s),
        sum(untraced.op_s) / len(untraced.op_s),
        spans.matmul_seconds(spans.gemm_shapes(tracer)))
    return metrics, traced, claims


def metric_units(kind: str) -> dict:
    """Name -> unit of the BENCHMARK.json metrics of one kind, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run(args, workdir: str) -> int:
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_s = []
    prefix, sys.pycache_prefix = sys.pycache_prefix, os.path.join(workdir, "no-bytecode")
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fp = import_fp4sim()
            workload = WORKLOADS[args.workload](fp, args.seed, workdir)
            workload.setup()
            setup_s.append(time.perf_counter() - start)
    finally:
        sys.pycache_prefix = prefix

    expected = gate.load_expected()
    gate_failures = gate.mismatches(expected, gate.compute(fp, workdir))
    print(f"gate {len(expected) - len(gate_failures)}/{len(expected)} fingerprints match")

    if args.trace:
        values, m, claims = per_layer(workload, args.seconds)
        units = metric_units("per_layer")
    else:
        m = measure(workload, args.seconds, 0)
        values, claims = (end_to_end(m, setup_s, workload) if m.op_s else {}), []
        units = metric_units("end_to_end")

    failures = gate_failures + claims + m.failures
    attempted = m.ops + len(expected) + (len(workload.uses) + len(workload.unused)
                                         if args.trace else 0)
    failed = m.failed + len(gate_failures) + len(claims)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"fail_ratio {failed}/{attempted} (failed ops over attempted ops: "
          f"timed ops, fingerprints{' and layer claims' if args.trace else ''})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed work per run (split evenly between the "
                        "untraced and traced halves with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fp4sim", "__init__.py")):
        print(f"error: no fp4sim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
