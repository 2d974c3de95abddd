"""Command-line surface: exit codes, round trips, schema reporting, and
byte-stable experiment artifacts."""

import json
import os
import struct

import numpy as np
import pytest

from fp4sim.blockquant import FORMATS, NVFP4, dequantize, quantize, rows1d
from fp4sim.cli import main
from fp4sim.harness import ExperimentConfig, config_to_dict, reference_config
from fp4sim.schema import decode
from fp4sim.tensorfile import read_tensor, write_tensor


def _wide(tmp_path, x, name="in.fp4t"):
    p = str(tmp_path / name)
    write_tensor(p, np.asarray(x, dtype=np.float64))
    return p


def _tiny_config(tmp_path, **kw):
    doc = {"widths": [8, 8], "steps": 10, "batch_size": 8,
           "val_every": 3, "val_batch": 8}
    doc.update(kw)
    p = str(tmp_path / "config.json")
    with open(p, "w") as f:
        json.dump(doc, f)
    return p


def test_quantize_dequantize_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((24, 48))
    src = _wide(tmp_path, x)
    qp = str(tmp_path / "q.fp4t")
    wp = str(tmp_path / "back.fp4t")
    assert main(["quantize", src, "--format", "nvfp4", "--out", qp]) == 0
    assert main(["dequantize", qp, "--out", wp]) == 0
    back = read_tensor(wp)
    want = dequantize(quantize(x, NVFP4, rows1d(16)))
    assert np.array_equal(back, want)


def test_quantize_layout_flag(tmp_path):
    rng = np.random.default_rng(1)
    src = _wide(tmp_path, rng.standard_normal((16, 16)))
    qp = str(tmp_path / "q.fp4t")
    assert main(["quantize", src, "--format", "nvfp4",
                 "--layout", "square16", "--out", qp]) == 0
    assert read_tensor(qp).layout.kind == "square"


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["quantize", str(tmp_path / "nope.fp4t"),
                 "--format", "nvfp4", "--out", str(tmp_path / "q.fp4t")]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_wrong_container_kind(tmp_path):
    rng = np.random.default_rng(2)
    q = quantize(rng.standard_normal((16, 16)), NVFP4, rows1d(16))
    qp = str(tmp_path / "q.fp4t")
    write_tensor(qp, q)
    # quantize wants a wide container, dequantize wants a quantized one
    assert main(["quantize", qp, "--format", "nvfp4",
                 "--out", str(tmp_path / "o.fp4t")]) == 3
    src = _wide(tmp_path, np.zeros((4, 4)))
    assert main(["dequantize", src, "--out", str(tmp_path / "o.fp4t")]) == 3


def test_exit_code_non_finite_names_index(tmp_path, capsys):
    x = np.zeros((8, 64))
    x[3, 5] = np.inf
    src = _wide(tmp_path, x)
    assert main(["quantize", src, "--format", "nvfp4",
                 "--out", str(tmp_path / "q.fp4t")]) == 5
    assert "flat index 197" in capsys.readouterr().err


def test_exit_code_tensor_amax_below_nvfp4_range(tmp_path, capsys):
    src = _wide(tmp_path, [[3e-303] + [0.0] * 31])
    assert main(["quantize", src, "--format", "nvfp4",
                 "--out", str(tmp_path / "q.fp4t")]) == 5
    err = capsys.readouterr().err
    assert "scale range" in err and "non-finite" not in err


def test_exit_code_layout_format_mismatch(tmp_path, capsys):
    src = _wide(tmp_path, np.ones((16, 32)))
    assert main(["quantize", src, "--format", "nvfp4",
                 "--layout", "rows32", "--out", str(tmp_path / "q.fp4t")]) == 4
    assert "error:" in capsys.readouterr().err


def _corrupt_container(tmp_path, fmt, offset_of, value, shape=(16, 32)):
    """A valid container of fmt with bytes at offset_of(q) replaced."""
    q = quantize(np.random.default_rng(12).standard_normal(shape), FORMATS[fmt],
                 rows1d(FORMATS[fmt].block_len))
    p = str(tmp_path / f"{fmt}.fp4t")
    write_tensor(p, q)
    with open(p, "r+b") as f:
        f.seek(offset_of(q))
        f.write(value)
    return p


def _first_scale(q):
    return 36 + (q.codes.size + 1) // 2


@pytest.mark.parametrize("fmt,offset_of,value,names", [
    ("nvfp4", _first_scale, bytes([0x80 | 0x38]), "sign bit"),
    ("nvfp4", _first_scale, bytes([0x7F]), "NaN pattern"),
    ("nvfp4", lambda q: 28, struct.pack("<d", float("nan")), "offset 28"),
    ("mxfp4", _first_scale, bytes([0xFF]), "0xFF"),
    ("nvfp4", lambda q: 12, bytes(8), "offset 12"),
])
def test_exit_code_corrupt_container(tmp_path, capsys, fmt, offset_of, value, names):
    # each of these used to exit 0, 4 or 5, or to decode to NaN, negative
    # or 2^128 values
    src = _corrupt_container(tmp_path, fmt, offset_of, value)
    assert main(["dequantize", src, "--out", str(tmp_path / "o.fp4t")]) == 3
    assert names in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o.fp4t")


def test_exit_code_nonzero_padding_code(tmp_path, capsys):
    # a 16x20 tensor pads to 16x32: byte 46 holds padded codes 20 and 21
    src = _corrupt_container(tmp_path, "nvfp4", lambda q: 46, bytes([0x07]),
                             shape=(16, 20))
    assert main(["dequantize", src, "--out", str(tmp_path / "o.fp4t")]) == 3
    assert "zero padding at byte offset 46" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o.fp4t")


def test_exit_code_empty_wide_container(tmp_path, capsys):
    p = str(tmp_path / "empty.fp4t")
    with open(p, "wb") as f:
        f.write(struct.pack("<4sBBBBHHQQd", b"FP4T", 1, 0, 0, 0, 0, 0, 0, 3, 0.0))
    assert main(["quantize", p, "--format", "nvfp4",
                 "--out", str(tmp_path / "q.fp4t")]) == 3
    assert "offset 12" in capsys.readouterr().err


def test_exit_code_usage():
    with pytest.raises(SystemExit) as e:
        main(["quantize", "x", "--format", "fp8", "--out", "y"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["analyze", "{src}", "--rht-d", "12"], "must be a power of two >= 2 (got 12)"),
    (["analyze", "{src}", "--rht-d", "a"], "invalid literal"),
    (["ablate", "--config", "{cfg}", "--out-dir", "{out}", "--seeds", "a"],
     "comma-separated integers (got 'a')"),
])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, argv, message):
    # Flag values are checked by argparse (exit 2), before any file is read;
    # exit 4 is kept for config schema violations.
    paths = {"src": str(tmp_path / "missing.fp4t"), "cfg": _tiny_config(tmp_path),
             "out": str(tmp_path / "o")}
    with pytest.raises(SystemExit) as e:
        main([a.format(**paths) for a in argv])
    assert e.value.code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(paths["out"])


def test_analyze_rht_d_zero_is_off(tmp_path, capsys):
    src = _wide(tmp_path, np.random.default_rng(4).standard_normal((32, 32)))
    assert main(["analyze", src, "--rht-d", "0"]) == 0
    with_zero = capsys.readouterr().out
    assert main(["analyze", src]) == 0
    assert capsys.readouterr().out == with_zero


def test_sr_quantize_seed_determinism(tmp_path):
    rng = np.random.default_rng(3)
    src = _wide(tmp_path, rng.standard_normal((16, 32)))
    outs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        qp = str(tmp_path / f"{name}.fp4t")
        assert main(["quantize", src, "--format", "nvfp4", "--round", "sr",
                     "--seed", str(seed), "--out", qp]) == 0
        with open(qp, "rb") as f:
            outs[name] = f.read()
    assert outs["a"] == outs["b"]
    assert outs["a"] != outs["c"]


def test_analyze_table_and_json(tmp_path, capsys):
    rng = np.random.default_rng(4)
    src = _wide(tmp_path, rng.standard_normal((32, 32)))
    assert main(["analyze", src]) == 0
    table = capsys.readouterr().out
    lines = table.splitlines()
    assert lines[0].startswith("fmt")
    assert len(lines) == 4  # header, rule, nvfp4, mxfp4
    assert main(["analyze", src, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["fmt"] for r in doc["reports"]] == ["nvfp4", "mxfp4"]
    assert all(r["sqnr_db"] > 0 for r in doc["reports"])


def test_analyze_all_zero_sentinel(tmp_path, capsys):
    src = _wide(tmp_path, np.zeros((16, 16)))
    assert main(["analyze", src, "--format", "nvfp4"]) == 0
    assert "n/a" in capsys.readouterr().out
    assert main(["analyze", src, "--format", "nvfp4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["sqnr_db"] is None


def test_analyze_amax_fidelity(tmp_path, capsys):
    # an amax just above a representable point: power-of-two scales round it
    # down visibly, fractional scales keep it essentially exact
    x = np.zeros((1, 32))
    x[0, 0] = 3.01
    src = _wide(tmp_path, x)
    assert main(["analyze", src, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_fmt = {r["fmt"]: r for r in doc["reports"]}
    want = (3.01 - 3.0) / 3.01
    assert by_fmt["mxfp4"]["amax_rel_error"] == pytest.approx(want, rel=1e-12)
    assert by_fmt["nvfp4"]["amax_rel_error"] < 1e-12


def test_analyze_gaussian_format_gap(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src = _wide(tmp_path, rng.standard_normal((64, 64)))
    assert main(["analyze", src, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_fmt = {r["fmt"]: r for r in doc["reports"]}
    assert by_fmt["nvfp4"]["sqnr_db"] > by_fmt["mxfp4"]["sqnr_db"] + 1.0


def test_analyze_rht_gain_on_clustered_outliers(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 64))
    for r in range(64):
        for t in range(4):
            idx = rng.choice(16, size=4, replace=False) + 16 * t
            x[r, idx] = (32 * rng.choice([-1.0, 1.0], size=4)
                         * rng.uniform(0.7, 1.3, size=4))
    src = _wide(tmp_path, x)
    assert main(["analyze", src, "--format", "nvfp4",
                 "--rht-d", "16", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    plain, mixed = doc["reports"]
    assert mixed["layout"].endswith("+rht16")
    assert mixed["sqnr_db"] > plain["sqnr_db"] + 1.0


def test_run_artifacts_and_rerun_identical(tmp_path, capsys):
    cfgp = _tiny_config(tmp_path)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(["run", "--config", cfgp, "--out-dir", out1]) == 0
    line = capsys.readouterr().out
    assert "final_loss" in line and "ok" in line
    with open(f"{out1}/losses.csv") as f:
        rows = f.read().splitlines()
    assert rows[0] == "step,train_loss,val_loss"
    assert len(rows) == 11
    assert rows[3].split(",")[2] != ""  # val loss at step 3
    assert rows[1].split(",")[2] == ""
    with open(f"{out1}/records.jsonl") as f:
        rec = json.loads(f.read())
    assert rec["diverged_at"] is None
    assert len(rec["train_losses"]) == 10
    assert main(["run", "--config", cfgp, "--out-dir", out2]) == 0
    for name in ("records.jsonl", "losses.csv"):
        with open(f"{out1}/{name}", "rb") as a, open(f"{out2}/{name}", "rb") as b:
            assert a.read() == b.read()


def test_run_schema_violations_all_listed(tmp_path, capsys):
    cfgp = _tiny_config(tmp_path, widths=[8], adam_beta1=1.5, bogus=1,
                        lr={"base": -1})
    assert main(["run", "--config", cfgp, "--out-dir",
                 str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.count("config error:") == 4
    for frag in ("widths", "adam_beta1", "bogus", "lr.base"):
        assert frag in err


def test_run_invalid_json(tmp_path):
    p = str(tmp_path / "bad.json")
    with open(p, "w") as f:
        f.write("{not json")
    assert main(["run", "--config", p, "--out-dir", str(tmp_path / "o")]) == 3


def test_run_config_not_utf8(tmp_path, capsys):
    p = str(tmp_path / "bad.json")
    with open(p, "wb") as f:
        f.write(b'{"steps": \xff}')
    assert main(["run", "--config", p, "--out-dir", str(tmp_path / "o")]) == 3
    assert f"{p}: not valid JSON" in capsys.readouterr().err


def test_ablate_artifacts(tmp_path, capsys):
    cfgp = _tiny_config(tmp_path, steps=5)
    out = str(tmp_path / "abl")
    assert main(["ablate", "--config", cfgp, "--out-dir", out,
                 "--axes", "no_sr", "--seeds", "0,1"]) == 0
    table = capsys.readouterr().out
    assert "no_sr" in table and "base" in table
    with open(f"{out}/records.jsonl") as f:
        recs = [json.loads(l) for l in f.read().splitlines()]
    assert len(recs) == 4  # 2 variants x 2 seeds
    assert {r["variant"] for r in recs} == {"base", "no_sr"}
    with open(f"{out}/rel_diffs.csv") as f:
        diffs = f.read().splitlines()
    assert diffs[0] == "variant,mean_final_loss,rel_diff_vs_base,diverged"
    assert len(diffs) == 3
    with open(f"{out}/summary.txt") as f:
        assert f.read().strip() == table.strip()
    with open(f"{out}/curves.csv") as f:
        assert f.readline() == "variant,seed,step,val_loss\n"


def test_ablate_unknown_axis(tmp_path, capsys):
    cfgp = _tiny_config(tmp_path)
    assert main(["ablate", "--config", cfgp, "--out-dir",
                 str(tmp_path / "o"), "--axes", "no_such"]) == 4
    assert "unknown ablation axis" in capsys.readouterr().err


def test_config_subcommand_is_valid_schema(capsys):
    assert main(["config", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == config_to_dict(reference_config(5))
    assert decode(ExperimentConfig, doc)[1] == []


def test_validate_config_clean():
    assert decode(ExperimentConfig, config_to_dict(reference_config(0)))[1] == []
    assert decode(ExperimentConfig, {})[1] == []  # all fields have defaults


def test_validate_config_catches_each_category():
    doc = {
        "widths": [8],
        "steps": 0,
        "seed": "zero",
        "adam_eps": 0,
        "extra_top": 1,
        "lr": {"kind": "cosine", "warmup_fraction": 2},
        "task": {"loss_weighting": "mean", "tail": -1},
        "policy": {
            "fmt": "fp8",
            "act_grad_layout": {"kind": "square", "block_len": 16},
            "rht_gemms": ["forward"],
            "sr_roles": ["biases"],
            "sign_strategy": "alternating",
            "rht_spec": {"d": 12},
        },
        "exempt": {"placement": "middle"},
        "switch": {"step": -2, "scope": "sideways"},
    }
    msgs = decode(ExperimentConfig, doc)[1]
    for frag in ("widths", "steps", "seed", "adam_eps", "extra_top",
                 "lr.kind", "lr.warmup_fraction", "task.loss_weighting",
                 "task.tail", "policy.fmt", "policy.act_grad_layout.kind",
                 "policy.rht_gemms", "policy.sr_roles", "policy.sign_strategy",
                 "policy.rht_spec.d", "exempt.placement", "switch.step",
                 "switch.scope"):
        assert any(frag in m for m in msgs), frag


def test_validate_config_block_len_coupling():
    doc = {"policy": {"fmt": "mxfp4",
                      "weight_layout": {"kind": "rows", "block_len": 16},
                      "act_grad_layout": {"kind": "rows", "block_len": 32}}}
    msgs = decode(ExperimentConfig, doc)[1]
    assert any("weight_layout.block_len" in m for m in msgs)
    assert not any("act_grad_layout" in m for m in msgs)
    doc2 = {"policy": {"fmt": "mxfp4",
                       "weight_layout": {"kind": "square", "block_len": 16}}}
    msgs2 = decode(ExperimentConfig, doc2)[1]
    assert any("square tiles require" in m for m in msgs2)


def test_validate_config_switch_bounds():
    assert decode(ExperimentConfig, {"steps": 100, "switch": {"step": 200}})[1]
    assert decode(ExperimentConfig, {"steps": 100, "switch": {"step": 0.5}})[1] == []
    assert decode(ExperimentConfig, {"steps": 100, "switch": None})[1] == []


@pytest.mark.parametrize("field,path", [
    ({"lr": {"base": float("nan")}}, "lr.base"),
    ({"task": {"tail": float("nan")}}, "task.tail"),
    ({"adam_eps": float("inf")}, "adam_eps"),
    ({"switch": {"step": float("inf")}}, "switch.step"),
    ({"switch": {"step": float("nan")}}, "switch.step"),
    ({"switch": {}}, "switch.step"),
    ({"policy": {"fmt": ["nvfp4"]}}, "policy.fmt"),
    ({"policy": {"weight_layout": {"kind": "square", "block_len": 7}}},
     "policy.weight_layout.block_len"),
    ({"lr": {"base": 1}}, None),  # an int in a float field: stored as 1.0
])
def test_run_numbers_follow_one_rule(tmp_path, capsys, field, path):
    # non-finite numbers and malformed values exit 4 naming their dotted
    # path, never run or crash; an int for a float is the same config
    out = str(tmp_path / "out")
    code = main(["run", "--config", _tiny_config(tmp_path, **field), "--out-dir", out])
    got = capsys.readouterr()
    if path is None:
        assert code == 0
        digest = got.out.split()[1]
        assert main(["run", "--config", _tiny_config(tmp_path, lr={"base": 1.0}),
                     "--out-dir", out]) == 0
        assert capsys.readouterr().out.split()[1] == digest
        return
    assert code == 4
    lines = got.err.splitlines()
    assert lines and all(l.startswith(f"config error: {path}: ") for l in lines)
    assert not os.path.exists(out)
