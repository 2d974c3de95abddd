"""Behaviour fingerprints: digests of outputs that must not change.

The gate compares, against fingerprints.json:

* config_digest(reference_config(0)) and the sha256 of `fp4sim config`;
* the sha256 of RunRecord.to_json() for reference_config(0) shortened to
  GATE_STEPS steps, for the base config and every recorded variant;
* the sha256 of the `fp4sim quantize` output file, nearest-even and
  stochastic rounding, on one fixed generated tensor.

Run this file directly to print the digests of the current code as JSON:

    python3 bench/gate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

# This module does not import numpy at top level, so that pin_threads() can
# run before numpy loads.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GATE_STEPS = 8
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "fingerprints.json")


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; call before numpy is imported.

    Run records depend on the BLAS thread count, and one thread is also the
    steadiest to time.  It stays within nproc on any machine.
    """
    os.environ.update((name, "1") for name in THREAD_ENV)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(fp, workdir: str) -> dict:
    """Every fingerprint of the fp4sim modules in fp, as a flat dict."""
    import numpy as np

    h = fp.harness
    cfg = h.reference_config(0)
    out = {"config_digest": h.config_digest(cfg)}
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = fp.cli.main(["config"])
    out["cli_config"] = _sha256(text.getvalue().encode()) if code == 0 else f"exit {code}"

    base = replace(cfg, steps=GATE_STEPS)
    configs = {"base": base}
    configs.update((name, make(base)) for name, make in h.VARIANTS.items())
    for name, c in configs.items():
        out[f"run_record.{name}"] = _sha256(h.run_experiment(c).to_json().encode())

    rng = np.random.default_rng(20250925)
    x = rng.standard_normal((96, 256)) * rng.lognormal(0.0, 1.5, (96, 1))
    src = os.path.join(workdir, "gate_input.fp4t")
    fp.tensorfile.write_tensor(src, x)
    for rounding in ("rne", "sr"):
        dst = os.path.join(workdir, f"gate_{rounding}.fp4t")
        with contextlib.redirect_stdout(io.StringIO()):
            code = fp.cli.main(["quantize", src, "--format", "nvfp4",
                                "--round", rounding, "--seed", "7", "--out", dst])
        if code:
            out[f"quantize.{rounding}"] = f"exit {code}"
            continue
        with open(dst, "rb") as f:
            out[f"quantize.{rounding}"] = _sha256(f.read())
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)["fingerprints"]


def mismatches(expected: dict, actual: dict) -> list[str]:
    """One message per expected fingerprint that the actual ones miss."""
    return [f"fingerprint {key}: expected {want}, got {actual.get(key, 'nothing')}"
            for key, want in sorted(expected.items()) if actual.get(key) != want]


if __name__ == "__main__":
    pin_threads()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import fp4sim.cli
    import fp4sim.harness
    import fp4sim.tensorfile
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_work-") as work:
        print(json.dumps(compute(fp4sim, work), indent=2, sort_keys=True))
