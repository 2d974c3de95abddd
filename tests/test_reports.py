"""quantization_stats and analyze_tensor: preconditions, the quantizer's
record, and the fields computed on first read."""

import copy
import os
import pickle

import numpy as np
import pytest

from fp4sim import reports, tensorfile
from fp4sim.blockquant import MXFP4, NVFP4, cols1d, quantize, rows1d, square2d
from fp4sim.codecs import Stochastic
from fp4sim.gemm import transpose_quantized_view
from fp4sim.hadamard import HadamardSpec
from fp4sim.reports import analyze_tensor, quantization_stats

_ENCODINGS = [(NVFP4, rows1d(16)), (NVFP4, cols1d(16)), (NVFP4, square2d()),
              (MXFP4, rows1d(32)), (MXFP4, cols1d(32))]


def _tensor(shape=(40, 64), seed=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.lognormal(0.0, 2.0, (shape[0], 1))


@pytest.mark.parametrize("x_shape", [(1, 16), (16, 4), (4, 32)])
def test_stats_reject_an_x_of_another_shape(x_shape):
    q = quantize(_tensor((4, 16)), NVFP4)
    x = np.ones(x_shape)
    with pytest.raises(ValueError, match=rf"{x_shape}.*\(4, 16\)"):
        quantization_stats(x, q)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(reports, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(reports, name, counted)
    return calls


@pytest.mark.parametrize("fmt, layout", _ENCODINGS)
def test_stats_read_the_quantizers_record(monkeypatch, tmp_path, fmt, layout):
    # With the quantizer's record on q, the stats neither rebuild the block
    # amax from x nor the encode multipliers from the scale codes.  Before,
    # every call made both passes.
    rebuilt = _counting(monkeypatch, "_rebuilt_record")
    multipliers = _counting(monkeypatch, "encode_multipliers")
    x = _tensor()
    q = quantize(x, fmt, layout, Stochastic(("record",)))
    quantization_stats(x, q).to_dict()
    if layout.kind == "square":
        quantization_stats(x.T, transpose_quantized_view(q)).to_dict()
    assert rebuilt == [] and multipliers == []
    path = os.path.join(tmp_path, "q.fp4t")
    tensorfile.write_tensor(path, q)
    quantization_stats(x, tensorfile.read_tensor(path)).to_dict()
    assert len(rebuilt) == 1 and len(multipliers) == 1


def _arrays_held(report) -> list[np.ndarray]:
    """Every ndarray the report holds, in its fields or in a pending
    function's closure."""
    found = []
    for value in vars(report).values():
        cells = getattr(value, "__closure__", None) or ()
        for v in [value, *(c.cell_contents for c in cells)]:
            if isinstance(v, np.ndarray):
                found.append(v)
    return found


@pytest.mark.parametrize("rht", [None, HadamardSpec(d=16)])
@pytest.mark.parametrize("fmt", [NVFP4, MXFP4])
def test_analyze_tensor_returns_a_resolved_report(fmt, rht):
    x = _tensor((64, 128))
    report = analyze_tensor(x, fmt, rht=rht)
    assert set(reports.ON_FIRST_READ) <= set(vars(report))
    assert all(a.size <= report.n_blocks for a in _arrays_held(report))
    # a report straight from quantization_stats still holds the decoded
    # tensor and its error until a field on first read is read
    pending = quantization_stats(x, quantize(x, fmt))
    assert not set(reports.ON_FIRST_READ) & set(vars(pending))
    assert max(a.size for a in _arrays_held(pending)) == x.size


def test_pending_reports_copy_pickle_and_compare_resolved():
    x = _tensor()
    q = quantize(x, NVFP4, square2d())
    want = quantization_stats(x, q).to_dict()
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        report = quantization_stats(x, q)
        assert repr(clone(report).to_dict()) == repr(want)
        assert repr(report.to_dict()) == repr(want)
    assert quantization_stats(x, q) == quantization_stats(x, q)
    with pytest.raises(AttributeError, match="no_such_field"):
        quantization_stats(x, q).no_such_field
