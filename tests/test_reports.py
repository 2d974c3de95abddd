"""quantization_stats, tensor_report and analyze_tensor: preconditions,
what the trace path computes, and the bytes analyze prints."""

import copy
import hashlib
import os
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from fp4sim import harness, reports, tensorfile
from fp4sim.blockquant import MXFP4, NVFP4, quantize, square2d
from fp4sim.cli import main
from fp4sim.hadamard import HadamardSpec
from fp4sim.reports import OperandStats, analyze_tensor, quantization_stats, tensor_report


def _tensor(shape=(40, 64), seed=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.lognormal(0.0, 2.0, (shape[0], 1))


@pytest.mark.parametrize("x_shape", [(1, 16), (16, 4), (4, 32)])
def test_stats_reject_an_x_of_another_shape(x_shape):
    q = quantize(_tensor((4, 16)), NVFP4)
    x = np.ones(x_shape)
    with pytest.raises(ValueError, match=rf"{x_shape}.*\(4, 16\)"):
        quantization_stats(x, q)


@pytest.mark.parametrize("rht", [None, HadamardSpec(d=16)])
@pytest.mark.parametrize("fmt", [NVFP4, MXFP4])
def test_analyze_tensor_returns_a_resolved_report(fmt, rht):
    # every field is a plain value; the report holds no array
    report = analyze_tensor(_tensor((64, 128)), fmt, rht=rht)
    assert all(isinstance(v, (str, int, float, type(None)))
               for v in vars(report).values())


def test_reports_copy_pickle_and_compare_equal():
    x = _tensor()
    q = quantize(x, NVFP4, square2d())
    want = tensor_report(x, q).to_dict()
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        report = tensor_report(x, q)
        assert repr(clone(report).to_dict()) == repr(want)
        assert repr(report.to_dict()) == repr(want)
    assert tensor_report(x, q) == tensor_report(x, q)
    with pytest.raises(AttributeError, match="no_such_field"):
        tensor_report(x, q).no_such_field


def test_trace_path_computes_no_report_only_fields(monkeypatch):
    # A stats-on training run computes only the three numbers each
    # GemmTrace keeps: with the largest elementwise relative error, a field
    # only tensor_report prints, made to raise, the run is unchanged.
    cfg = replace(harness.reference_config(0), steps=2)
    want = harness.run_experiment(cfg).to_json()

    def unreachable(*args):
        raise AssertionError("the trace path computed max_rel_error")

    monkeypatch.setattr(reports, "_max_rel_error", unreachable)
    assert cfg.policy.collect_stats
    assert harness.run_experiment(cfg).to_json() == want
    x = _tensor()
    stats = quantization_stats(x, quantize(x, NVFP4))
    assert type(stats) is OperandStats
    assert [f.name for f in fields(stats)] == [
        "rel_fro_error", "saturated", "underflow_to_zero"]


@pytest.mark.parametrize("power", [520, -560])
def test_stats_hold_at_extreme_magnitudes(power):
    # nvfp4 quantization commutes with scaling by a power of two, so the
    # stats of x * 2^power are those of x, bit for bit, although sums of
    # squares of the scaled x and its error overflow or underflow
    def four_fields(x):
        report = tensor_report(x, quantize(x, NVFP4))
        return [report.rel_fro_error, report.sqnr_db, report.saturated,
                report.underflow_to_zero]

    x = np.random.default_rng(0).standard_normal((64, 64))
    want = four_fields(x)
    got = four_fields(x * 2.0 ** power)
    assert repr(got) == repr(want)  # a float's repr round-trips its bits


def test_analyze_json_output_is_pinned(tmp_path, capsys):
    # sha256 of `fp4sim analyze --rht-d 16 --json` on a heavy-tailed 64 x 200
    # tensor, whose 200 columns pad to both block lengths and to the
    # transform length.  The digest was taken from the reports that computed
    # four fields on first read; eager reports must print the same bytes.
    rng = np.random.default_rng(31)
    x = rng.standard_normal((64, 200)) * np.exp(rng.normal(0.0, 2.0, (64, 200)))
    path = os.path.join(tmp_path, "x.fp4t")
    tensorfile.write_tensor(path, x)
    assert main(["analyze", path, "--rht-d", "16", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "67c29ded81dd641c14d6691057b46e5c237107ade0a3a6d36e5e55136dc2ac6d")
