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

import numpy as np

from .blockquant import (
    FORMATS,
    LAYOUTS,
    LayoutError,
    QuantizedTensor,
    quantize,
)
from .codecs import (
    NEAREST,
    NonFiniteInputError,
    QuantizationError,
    Stochastic,
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
    validate_config,
)
from .reports import analyze_tensor, format_report_table
from .tensorfile import TensorFileError, atomic_write, read_tensor, write_tensor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_NUMERIC = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_wide(path: str) -> np.ndarray:
    t = read_tensor(path)
    if isinstance(t, QuantizedTensor):
        raise TensorFileError(f"{path} holds a quantized tensor, expected wide")
    return t


def _write_text(out_dir: str, name: str, text: str) -> None:
    atomic_write(os.path.join(out_dir, name), [text.encode()])


def _load_config(path: str):
    """(config, []) for a valid config file, else (None, every violation)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise TensorFileError(f"{path}: not valid JSON ({e})")
    violations = validate_config(doc)
    return (None if violations else config_from_dict(doc)), violations


def _rht_spec(text: str) -> HadamardSpec | None:
    """--rht-d: 0 (no transform) or a Hadamard size, a power of two >= 2."""
    try:
        d = int(text)
        return HadamardSpec(d=d) if d else None
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers (got {text!r})")


# --- subcommands ---------------------------------------------------------------

def _cmd_quantize(args) -> int:
    x = _read_wide(args.input)
    mode = (Stochastic(key_parts=("cli-quantize", args.seed))
            if args.round == "sr" else NEAREST)
    q = quantize(x, FORMATS[args.format], LAYOUTS.get(args.layout), mode)
    write_tensor(args.out, q)
    print(f"wrote {args.out}: {q.fmt.name} {q.layout.kind}{q.layout.block_len} "
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
    layout = LAYOUTS.get(args.layout)
    reports = []
    for name in args.format or list(FORMATS):
        fmt = FORMATS[name]
        reports.append(analyze_tensor(x, fmt, layout))
        if args.rht:
            reports.append(analyze_tensor(x, fmt, layout, rht=args.rht))
    if args.json:
        docs = [r.to_dict() for r in reports]
        for d in docs:
            if d["sqnr_db"] == float("inf"):  # exact; JSON has no infinity
                d["sqnr_db"] = "inf"
        print(json.dumps({"reports": docs}, sort_keys=True, indent=2,
                         allow_nan=False))
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
    cfg, violations = _load_config(args.config)
    if violations:
        return _report_schema_errors(violations)
    rec = run_experiment(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_text(args.out_dir, "records.jsonl", rec.to_json() + "\n")
    _write_text(args.out_dir, "losses.csv", _loss_csv(rec))
    status = ("ok" if rec.diverged_at is None
              else f"diverged at step {rec.diverged_at}")
    print(f"config {rec.config_digest}  seed {rec.seed}  "
          f"final_loss {rec.final_loss!r}  {status}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    base, violations = _load_config(args.config)
    if violations:
        return _report_schema_errors(violations)
    axes = args.axes.split(",") if args.axes else None
    unknown = [a for a in axes or () if a not in VARIANTS]
    if unknown:
        return _report_schema_errors(
            [f"axes: unknown ablation axis {a!r} (choose from "
             f"{sorted(VARIANTS)})" for a in unknown])
    rows = run_ablation_suite(base, axes, seeds=args.seeds)

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
    _write_text(args.out_dir, "records.jsonl", "\n".join(record_lines) + "\n")
    _write_text(args.out_dir, "curves.csv", "\n".join(curve_lines) + "\n")
    _write_text(args.out_dir, "rel_diffs.csv", "\n".join(diff_lines) + "\n")
    _write_text(args.out_dir, "summary.txt", table + "\n")
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
    q.add_argument("--layout", choices=sorted(LAYOUTS))
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
    an.add_argument("--layout", choices=sorted(LAYOUTS))
    an.add_argument("--rht-d", dest="rht", type=_rht_spec, default=None,
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
    ab.add_argument("--seeds", type=_seeds, default=(0,), help="comma-separated seeds")
    ab.set_defaults(fn=_cmd_ablate)

    c = sub.add_parser("config", help="print the reference config as JSON")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_config)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteInputError as e:  # quantize names the index, main the file
        where = f"{args.input}: " if hasattr(args, "input") else ""
        return _fail(EXIT_NUMERIC, f"{where}{e}")
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
