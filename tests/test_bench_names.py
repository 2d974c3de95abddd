"""The benchmark traces fp4sim functions by name (bench/spans.py) and
expects each workload to call some of them (bench/workloads.py).  A traced
name that fp4sim no longer defines breaks only the benchmark's traced run,
so this test reads both files, unedited, and checks the names here."""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [f"{m}.{fn}" for m, fn, _, _ in _load("spans").TRACED
               if not callable(getattr(importlib.import_module(f"fp4sim.{m}"), fn, None))]
    assert missing == []


def test_workloads_name_only_traced_spans():
    traced = {f"{m}.{fn}" for m, fn, _, _ in _load("spans").TRACED}
    workloads = _load("workloads").WORKLOADS
    assert workloads
    for w in workloads.values():
        named = (*w.uses, *w.unused)
        assert named and set(named) <= traced, (w.name, set(named) - traced)
