"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import spans
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_on_nested_call_tree():
    clock = ScriptedClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def root():
        clock.advance(3.0)
        traced_middle()
        traced_leaf()
        clock.advance(4.0)

    traced_leaf = tracer.span("leaf", leaf)
    traced_middle = tracer.span("middle", middle)
    traced_root = tracer.span("root", root)
    traced_root()

    s = tracer.stats
    assert (s["leaf"].calls, s["middle"].calls, s["root"].calls) == (3, 1, 1)
    assert s["leaf"].total_s == s["leaf"].self_s == 3.0
    assert (s["middle"].total_s, s["middle"].self_s) == (4.5, 2.5)
    assert (s["root"].total_s, s["root"].self_s) == (12.5, 7.0)
    # self times partition the root span exactly
    assert sum(st.self_s for st in s.values()) == s["root"].total_s

    with tracer.paused():
        traced_root()
    assert s["root"].calls == 1


def test_span_records_an_exception_and_reraises():
    clock = ScriptedClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(2.0)
        raise RuntimeError("boom")

    traced = tracer.span("boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    assert (tracer.stats["boom"].calls, tracer.stats["boom"].self_s) == (1, 2.0)


def test_gate_reports_an_altered_digest():
    expected = gate.load_expected()
    assert gate.mismatches(expected, dict(expected)) == []
    altered = dict(expected)
    altered["run_record.base"] = "0" * 64
    found = gate.mismatches(altered, expected)
    assert len(found) == 1 and "run_record.base" in found[0]
    assert expected["config_digest"] == "62f4331d6f827b46"


def _bench(cwd, *args, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_altered_fingerprint_fails_the_run(tmp_path):
    # A checkout whose bench/fingerprints.json holds one altered digest.
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    fingerprints = tmp_path / "bench" / "fingerprints.json"
    doc = json.loads(fingerprints.read_text())
    doc["fingerprints"]["quantize.sr"] = "0" * 64
    fingerprints.write_text(json.dumps(doc))
    proc, result = _bench(tmp_path, "--workload", "train_ref", "--seed", "0",
                          "--seconds", "0.1", bench=str(tmp_path / "bench"))
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] == 1
    assert "quantize.sr" in proc.stderr


def test_end_to_end_metrics_are_positive(tmp_path):
    proc, result = _bench(tmp_path, "--workload", "train_ref", "--seed", "1",
                          "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    assert sorted(workloads) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_exercises_its_claimed_layers(tmp_path, workload):
    proc, result = _bench(tmp_path, "--workload", workload, "--seed", "0",
                          "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    calls = {name: m["value"] for name, m in result["metrics"].items()}
    w = WORKLOADS[workload]
    for name in w.uses:
        assert calls[f"{name}.calls"] > 0, name
    for name in w.unused:
        assert calls[f"{name}.calls"] == 0, name
    if workload == "ablate_suite":
        assert calls["reports.quantization_stats.calls"] == 0
    if workload == "train_ref":
        assert calls["tensorfile.write_tensor.calls"] == 0
        assert calls["tensorfile.read_tensor.calls"] == 0
        assert calls["cli.main.calls"] == 0
