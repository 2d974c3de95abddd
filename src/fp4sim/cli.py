"""Command-line surface: quantize/analyze tensor files, run experiments.

Subcommands:

    quantize    wide container -> quantized container
    dequantize  quantized container -> wide container
    analyze     per-format quantization quality report for a wide tensor
    run         train one experiment config, write records + loss CSV
    ablate      run an ablation suite, write records + summary + CSVs
    config      print the reference experiment config as JSON (the schema)

Exit codes: 0 success, 2 usage (argparse), 3 I/O or malformed container,
4 config schema violations (every violation is listed, one per line),
5 non-finite numeric input (the diagnostic names the first offending
index).  All file outputs are written atomically and are byte-identical
across reruns of the same invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .blockquant import (
    FORMATS,
    LayoutError,
    QuantizedTensor,
    cols1d,
    quantize,
    rows1d,
    square2d,
)
from .codecs import (
    NEAREST,
    NonFiniteInputError,
    QuantizationError,
    Stochastic,
    check_finite,
)
from .hadamard import HadamardSpec
from .harness import (
    VARIANTS,
    config_from_dict,
    config_to_dict,
    format_suite_table,
    reference_config,
    run_ablation_suite,
    run_experiment,
)
from .reports import analyze_tensor, format_report_table
from .tensorfile import TensorFileError, read_tensor, write_tensor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_NUMERIC = 5

_LAYOUTS = {
    "rows16": lambda: rows1d(16),
    "cols16": lambda: cols1d(16),
    "square16": square2d,
    "rows32": lambda: rows1d(32),
    "cols32": lambda: cols1d(32),
}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_wide(path: str) -> np.ndarray:
    t = read_tensor(path)
    if isinstance(t, QuantizedTensor):
        raise TensorFileError(f"{path} holds a quantized tensor, expected wide")
    return t


def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- config schema -------------------------------------------------------------

def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _check_keys(d: dict, allowed: set, where: str, out: list) -> None:
    for k in sorted(set(d) - allowed):
        out.append(f"{where}{k}: unknown field")


def _check_layout(d, where: str, out: list) -> None:
    if not isinstance(d, dict):
        out.append(f"{where}: must be an object with kind and block_len")
        return
    _check_keys(d, {"kind", "block_len"}, where + ".", out)
    kind = d.get("kind")
    if kind not in ("rows", "cols", "square"):
        out.append(f"{where}.kind: must be rows, cols, or square (got {kind!r})")
    n = d.get("block_len")
    if not _is_int(n) or n < 1:
        out.append(f"{where}.block_len: must be a positive integer (got {n!r})")


def validate_config(d) -> list[str]:
    """Every schema violation in the config document, one message each.

    Messages name the offending field with a dotted path; an empty list
    means config_from_dict will accept the document.
    """
    out: list[str] = []
    if not isinstance(d, dict):
        return ["config: top level must be a JSON object"]
    top = {"widths", "steps", "batch_size", "seed", "lr", "task", "policy",
           "exempt", "switch", "val_every", "val_batch", "adam_beta1",
           "adam_beta2", "adam_eps", "weight_decay"}
    _check_keys(d, top, "", out)

    w = d.get("widths", [32, 64, 64, 64, 16])
    if (not isinstance(w, (list, tuple)) or len(w) < 2
            or not all(_is_int(v) and v >= 1 for v in w)):
        out.append(f"widths: must be a list of >=2 positive integers (got {w!r})")

    for k in ("steps", "batch_size", "val_every", "val_batch"):
        v = d.get(k, 1)
        if not _is_int(v) or v < 1:
            out.append(f"{k}: must be a positive integer (got {v!r})")
    if not _is_int(d.get("seed", 0)):
        out.append(f"seed: must be an integer (got {d.get('seed')!r})")
    for k in ("adam_beta1", "adam_beta2"):
        v = d.get(k, 0.9)
        if not _is_num(v) or not (0 < v < 1):
            out.append(f"{k}: must lie in (0, 1) (got {v!r})")
    v = d.get("adam_eps", 1e-8)
    if not _is_num(v) or v <= 0:
        out.append(f"adam_eps: must be positive (got {v!r})")
    v = d.get("weight_decay", 0.0)
    if not _is_num(v) or v < 0:
        out.append(f"weight_decay: must be non-negative (got {v!r})")

    lr = d.get("lr", {})
    if not isinstance(lr, dict):
        out.append("lr: must be an object")
    else:
        _check_keys(lr, {"kind", "base", "warmup_fraction", "decay_fraction",
                         "floor_ratio"}, "lr.", out)
        if lr.get("kind", "wsd") not in ("constant", "wsd"):
            out.append(f"lr.kind: must be constant or wsd (got {lr.get('kind')!r})")
        v = lr.get("base", 0.003)
        if not _is_num(v) or v <= 0:
            out.append(f"lr.base: must be positive (got {v!r})")
        for k in ("warmup_fraction", "decay_fraction"):
            v = lr.get(k, 0.0)
            if not _is_num(v) or not (0 <= v <= 1):
                out.append(f"lr.{k}: must lie in [0, 1] (got {v!r})")
        v = lr.get("floor_ratio", 0.05)
        if not _is_num(v) or v <= 0:
            out.append(f"lr.floor_ratio: must be positive (got {v!r})")

    task = d.get("task", {})
    if not isinstance(task, dict):
        out.append("task: must be an object")
    else:
        _check_keys(task, {"kind", "tail", "feature_tail", "noise",
                           "loss_weighting", "init_near_teacher",
                           "init_spread"}, "task.", out)
        if task.get("kind", "teacher_student") != "teacher_student":
            out.append(f"task.kind: must be teacher_student (got {task.get('kind')!r})")
        for k in ("tail", "feature_tail", "noise", "init_spread"):
            v = task.get(k, 0.0)
            if not _is_num(v) or v < 0:
                out.append(f"task.{k}: must be non-negative (got {v!r})")
        if task.get("loss_weighting", "per_sample") not in ("uniform", "per_sample"):
            out.append(f"task.loss_weighting: must be uniform or per_sample "
                       f"(got {task.get('loss_weighting')!r})")
        if "init_near_teacher" in task and not _is_bool(task["init_near_teacher"]):
            out.append("task.init_near_teacher: must be a boolean")

    pol = d.get("policy", {})
    if not isinstance(pol, dict):
        out.append("policy: must be an object")
    else:
        _check_keys(pol, {"quantize", "fmt", "weight_layout", "act_grad_layout",
                          "rht_gemms", "rht_spec", "sr_roles", "sign_strategy",
                          "quantize_forward", "quantize_backward", "seed",
                          "collect_stats"}, "policy.", out)
        fmt = pol.get("fmt", "nvfp4")
        if fmt not in FORMATS:
            out.append(f"policy.fmt: must be one of {sorted(FORMATS)} (got {fmt!r})")
        for k in ("quantize", "quantize_forward", "quantize_backward",
                  "collect_stats"):
            if k in pol and not _is_bool(pol[k]):
                out.append(f"policy.{k}: must be a boolean")
        wl = pol.get("weight_layout", {"kind": "square", "block_len": 16})
        al = pol.get("act_grad_layout", {"kind": "rows", "block_len": 16})
        _check_layout(wl, "policy.weight_layout", out)
        _check_layout(al, "policy.act_grad_layout", out)
        if isinstance(al, dict) and al.get("kind") == "square":
            out.append("policy.act_grad_layout.kind: square tiles are for "
                       "weights only")
        if fmt in FORMATS:
            blk = FORMATS[fmt].block_len
            for name, lay in (("weight_layout", wl), ("act_grad_layout", al)):
                if (isinstance(lay, dict) and lay.get("kind") in ("rows", "cols")
                        and _is_int(lay.get("block_len"))
                        and lay["block_len"] != blk):
                    out.append(f"policy.{name}.block_len: must equal the "
                               f"{fmt} block length {blk} (got {lay['block_len']})")
            if (isinstance(wl, dict) and wl.get("kind") == "square" and blk != 16):
                out.append("policy.weight_layout.kind: square tiles require a "
                           "block-16 format")
        gems = pol.get("rht_gemms", ["wgrad"])
        if (not isinstance(gems, list)
                or not set(gems) <= {"fprop", "dgrad", "wgrad"}):
            out.append(f"policy.rht_gemms: must be a subset of "
                       f"[fprop, dgrad, wgrad] (got {gems!r})")
        roles = pol.get("sr_roles", ["gradients"])
        if (not isinstance(roles, list)
                or not set(roles) <= {"gradients", "activations", "weights"}):
            out.append(f"policy.sr_roles: must be a subset of "
                       f"[gradients, activations, weights] (got {roles!r})")
        if pol.get("sign_strategy", "fixed") not in ("none", "fixed",
                                                     "per_instance"):
            out.append(f"policy.sign_strategy: must be none, fixed, or "
                       f"per_instance (got {pol.get('sign_strategy')!r})")
        rs = pol.get("rht_spec", {})
        if not isinstance(rs, dict):
            out.append("policy.rht_spec: must be an object")
        else:
            _check_keys(rs, {"d", "sign_seed", "randomized"},
                        "policy.rht_spec.", out)
            dd = rs.get("d", 16)
            if not _is_int(dd) or dd < 2 or dd & (dd - 1):
                out.append(f"policy.rht_spec.d: must be a power of two >= 2 "
                           f"(got {dd!r})")
            if not _is_int(rs.get("sign_seed", 0)):
                out.append("policy.rht_spec.sign_seed: must be an integer")
            if "randomized" in rs and not _is_bool(rs["randomized"]):
                out.append("policy.rht_spec.randomized: must be a boolean")
        if "seed" in pol and not _is_int(pol["seed"]):
            out.append("policy.seed: must be an integer")

    ex = d.get("exempt", {})
    if not isinstance(ex, dict):
        out.append("exempt: must be an object")
    else:
        _check_keys(ex, {"fraction", "placement"}, "exempt.", out)
        v = ex.get("fraction", 0.15)
        if not _is_num(v) or not (0 <= v <= 1):
            out.append(f"exempt.fraction: must lie in [0, 1] (got {v!r})")
        if ex.get("placement", "last") not in ("last", "first", "none"):
            out.append(f"exempt.placement: must be last, first, or none "
                       f"(got {ex.get('placement')!r})")

    sw = d.get("switch")
    if sw is not None:
        if not isinstance(sw, dict):
            out.append("switch: must be null or an object")
        else:
            _check_keys(sw, {"step", "scope"}, "switch.", out)
            v = sw.get("step")
            if not _is_num(v) or v < 0:
                out.append(f"switch.step: must be non-negative (got {v!r})")
            elif _is_int(d.get("steps", 1500)) and v >= 1:
                if int(v) > d.get("steps", 1500):
                    out.append(f"switch.step: exceeds steps (got {v!r})")
            if sw.get("scope", "forward") not in ("forward", "backward", "both"):
                out.append(f"switch.scope: must be forward, backward, or both "
                           f"(got {sw.get('scope')!r})")
    return out


def _load_config(path: str):
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise TensorFileError(f"{path}: not valid JSON ({e})")
    violations = validate_config(doc)
    return doc, violations


# --- subcommands ---------------------------------------------------------------

def _cmd_quantize(args) -> int:
    x = _read_wide(args.input)
    check_finite(x, f"{args.input}: ")
    fmt = FORMATS[args.format]
    layout = _LAYOUTS[args.layout]() if args.layout else rows1d(fmt.block_len)
    mode = (Stochastic(key_parts=("cli-quantize", args.seed))
            if args.round == "sr" else NEAREST)
    q = quantize(x, fmt, layout, mode)
    write_tensor(args.out, q)
    print(f"wrote {args.out}: {fmt.name} {layout.kind}{layout.block_len} "
          f"{q.shape[0]}x{q.shape[1]}")
    return EXIT_OK


def _cmd_dequantize(args) -> int:
    t = read_tensor(args.input)
    if not isinstance(t, QuantizedTensor):
        raise TensorFileError(f"{args.input} holds a wide tensor, "
                              f"expected quantized")
    write_tensor(args.out, t.dequantize())
    print(f"wrote {args.out}: wide {t.shape[0]}x{t.shape[1]}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    x = _read_wide(args.input)
    check_finite(x, f"{args.input}: ")
    names = args.format or ["nvfp4", "mxfp4"]
    reports = []
    for name in names:
        fmt = FORMATS[name]
        layout = _LAYOUTS[args.layout]() if args.layout else None
        reports.append(analyze_tensor(x, fmt, layout))
        if args.rht_d:
            reports.append(analyze_tensor(
                x, fmt, layout, rht=HadamardSpec(d=args.rht_d)))
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports]},
                         sort_keys=True, indent=2))
    else:
        print(format_report_table(reports))
    return EXIT_OK


def _report_schema_errors(violations: list[str]) -> int:
    for v in violations:
        print(f"config error: {v}", file=sys.stderr)
    return EXIT_SCHEMA


def _loss_csv(rec) -> str:
    val = dict((int(s), v) for s, v in rec.val_curve)
    lines = ["step,train_loss,val_loss"]
    for i, tl in enumerate(rec.train_losses):
        v = val.get(i + 1, "")
        lines.append(f"{i},{tl!r},{'' if v == '' else repr(v)}")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    doc, violations = _load_config(args.config)
    if violations:
        return _report_schema_errors(violations)
    cfg = config_from_dict(doc)
    rec = run_experiment(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write_text(os.path.join(args.out_dir, "records.jsonl"),
                       rec.to_json() + "\n")
    _atomic_write_text(os.path.join(args.out_dir, "losses.csv"),
                       _loss_csv(rec))
    status = ("ok" if rec.diverged_at is None
              else f"diverged at step {rec.diverged_at}")
    print(f"config {rec.config_digest}  seed {rec.seed}  "
          f"final_loss {rec.final_loss!r}  {status}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    doc, violations = _load_config(args.config)
    if violations:
        return _report_schema_errors(violations)
    base = config_from_dict(doc)
    axes = args.axes.split(",") if args.axes else None
    if axes:
        unknown = [a for a in axes if a not in VARIANTS]
        if unknown:
            return _report_schema_errors(
                [f"axes: unknown ablation axis {a!r} (choose from "
                 f"{sorted(VARIANTS)})" for a in unknown])
    seeds = tuple(int(s) for s in args.seeds.split(","))
    rows = run_ablation_suite(base, axes, seeds=seeds)

    os.makedirs(args.out_dir, exist_ok=True)
    record_lines = []
    curve_lines = ["variant,seed,step,val_loss"]
    for row in rows:
        for rec in row.records:
            record_lines.append(json.dumps(
                {"variant": row.name, "record": rec.to_dict()},
                sort_keys=True, separators=(",", ":")))
            for s, v in rec.val_curve:
                curve_lines.append(f"{row.name},{rec.seed},{int(s)},{v!r}")
    diff_lines = ["variant,mean_final_loss,rel_diff_vs_base,diverged"]
    for row in rows:
        diff_lines.append(f"{row.name},{row.mean_final_loss!r},"
                          f"{row.rel_diff_vs_base!r},{row.diverged}")
    table = format_suite_table(rows)
    _atomic_write_text(os.path.join(args.out_dir, "records.jsonl"),
                       "\n".join(record_lines) + "\n")
    _atomic_write_text(os.path.join(args.out_dir, "curves.csv"),
                       "\n".join(curve_lines) + "\n")
    _atomic_write_text(os.path.join(args.out_dir, "rel_diffs.csv"),
                       "\n".join(diff_lines) + "\n")
    _atomic_write_text(os.path.join(args.out_dir, "summary.txt"), table + "\n")
    print(table)
    return EXIT_OK


def _cmd_config(args) -> int:
    print(json.dumps(config_to_dict(reference_config(args.seed)),
                     sort_keys=True, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fp4sim",
        description="Microscaling FP4 quantization and training emulation.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a wide tensor container")
    q.add_argument("input")
    q.add_argument("--format", choices=sorted(FORMATS), required=True)
    q.add_argument("--layout", choices=sorted(_LAYOUTS))
    q.add_argument("--round", choices=["rne", "sr"], default="rne")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_quantize)

    dq = sub.add_parser("dequantize", help="decode a quantized container")
    dq.add_argument("input")
    dq.add_argument("--out", required=True)
    dq.set_defaults(fn=_cmd_dequantize)

    an = sub.add_parser("analyze", help="per-format quantization report")
    an.add_argument("input")
    an.add_argument("--format", action="append", choices=sorted(FORMATS),
                    help="repeatable; default analyzes every format")
    an.add_argument("--layout", choices=sorted(_LAYOUTS))
    an.add_argument("--rht-d", type=int, default=0,
                    help="also report after a Hadamard transform of this size")
    an.add_argument("--json", action="store_true",
                    help="machine-readable output")
    an.set_defaults(fn=_cmd_analyze)

    r = sub.add_parser("run", help="train one experiment config")
    r.add_argument("--config", required=True)
    r.add_argument("--out-dir", required=True)
    r.set_defaults(fn=_cmd_run)

    ab = sub.add_parser("ablate", help="run an ablation suite")
    ab.add_argument("--config", required=True)
    ab.add_argument("--out-dir", required=True)
    ab.add_argument("--axes", help="comma-separated variant names")
    ab.add_argument("--seeds", default="0", help="comma-separated seeds")
    ab.set_defaults(fn=_cmd_ablate)

    c = sub.add_parser("config", help="print the reference config as JSON")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_config)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteInputError as e:
        return _fail(EXIT_NUMERIC, str(e))
    except LayoutError as e:
        return _fail(EXIT_SCHEMA, str(e))
    except QuantizationError as e:
        return _fail(EXIT_NUMERIC, str(e))
    except TensorFileError as e:
        return _fail(EXIT_IO, str(e))
    except OSError as e:
        return _fail(EXIT_IO, str(e))
    except ValueError as e:
        return _fail(EXIT_SCHEMA, str(e))


if __name__ == "__main__":
    sys.exit(main())
