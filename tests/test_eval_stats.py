"""Evaluation keeps no trace, so it computes no per-GEMM statistics."""

from dataclasses import replace

import pytest

from fp4sim import harness, linear


@pytest.mark.parametrize("steps", [3, 5])
def test_stats_only_for_training_gemms(monkeypatch, steps):
    # The reference network has three quantized layers, and each training
    # step quantizes two operands for each of its Fprop, Dgrad and Wgrad
    # GEMMs: 18 reports a step.  The validation pass adds none.
    calls = []
    real = linear.quantization_stats

    def counting(x, q):
        calls.append(x.shape)
        return real(x, q)

    monkeypatch.setattr(linear, "quantization_stats", counting)
    cfg = replace(harness.reference_config(0), steps=steps, val_every=2)
    record = harness.run_experiment(cfg)
    assert len(record.val_curve) == (steps - 1) // 2 + 1
    assert len(calls) == 18 * steps
