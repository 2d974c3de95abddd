"""The benchmark's behaviour fingerprints, checked on every test run.

bench/gate.py prints the digests of the current code's run records, CLI
config and quantized containers; they must equal the ones recorded in
bench/fingerprints.json, so a speed change cannot move a bit unnoticed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gate_prints_the_recorded_fingerprints():
    # gate.py pins the BLAS threads before numpy loads, so it needs its own
    # process
    run = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "gate.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    with open(os.path.join(ROOT, "bench", "fingerprints.json")) as f:
        want = json.load(f)["fingerprints"]
    assert json.loads(run.stdout) == want
