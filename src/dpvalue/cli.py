"""Config-driven experiment runner.

Subcommands: ``run <config>`` executes an experiment and writes result.json,
summary.csv, config.echo and a MANIFEST of sha256 digests; ``validate
<config>`` only parses and checks the config; ``plot <result-dir>`` writes the
.dat files of the result's kind for external plotting. The environment
variable DPVALUE_OUTPUT_ROOT reroots relative output directories.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .config import ConfigError, echo_config, load_config, noisy_label_runs
from .experiments import RUNNERS


def _output_dir(cfg_output_dir: str) -> Path:
    root = os.environ.get("DPVALUE_OUTPUT_ROOT")
    path = Path(cfg_output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _write_error(outdir: Path | None, exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["field"] = exc.field_path
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            with open(outdir / "error.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
        except OSError:
            pass
    print(json.dumps(record), file=sys.stderr)


def _write_manifest(outdir: Path) -> None:
    lines = []
    for path in sorted(outdir.iterdir()):
        if path.name == "MANIFEST" or not path.is_file():
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.name}")
    (outdir / "MANIFEST").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _write_error(None, exc)
        return 2
    outdir = _output_dir(args.output or cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)  # an unusable path fails before the run
        runner = RUNNERS[cfg.kind]
        doc, rows, extras = runner(cfg)
    except Exception as exc:  # noqa: BLE001 - error record is the contract
        _write_error(outdir, exc)
        return 1
    with open(outdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, table in {"summary.csv": rows, **extras}.items():
        with open(outdir / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    (outdir / "config.echo").write_text(echo_config(cfg), encoding="utf-8")
    _write_manifest(outdir)
    print(f"wrote {outdir}")
    return 0


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        _write_error(None, exc)
        return 2
    print("ok")
    return 0


def _dat(rows) -> str:
    return "".join(" ".join(format(float(v), ".10g") for v in row) + "\n" for row in rows)


def _var_dats(doc: dict, outdir: Path) -> dict:
    return {f"var_{mode}.dat": zip(probe["ks"], probe["variances"])
            for mode, probe in doc["probes"].items()}


def _removal_dats(doc: dict, outdir: Path) -> dict:
    dats = {}
    for order, curve in doc["curves"].items():
        rows = zip(curve["fractions"], curve["scores"])
        if curve.get("stderr"):  # a random order's band, score -/+ its standard error
            rows = [(f, s, s - e, s + e) for (f, s), e in zip(rows, curve["stderr"])]
        dats[f"removal_{order.replace('-', '_')}.dat"] = rows
    return dats


def _auc_q_dats(doc: dict, outdir: Path) -> dict:
    # each run's q is its mechanism's, as the parser set it from the echoed config
    runs = noisy_label_runs(yaml.safe_load((outdir / "config.echo").read_text(encoding="utf-8")))
    series: dict[str, list[tuple[float, float]]] = {}
    for label, noise in dict(runs).items():
        auc = float(np.mean(doc["auc"][label]))
        if noise.mode in ("corr_x", "corr_y"):  # corr_x is corr_y at q = 0
            series.setdefault("corr_y", []).append((noise.q or 0.0, auc))
        else:
            series.setdefault(label, []).append((0.0, auc))
    return {f"auc_q_{mode}.dat": sorted(rows) for mode, rows in series.items()}


PLOTS = {"variance-probe": _var_dats, "removal": _removal_dats, "noisy-label": _auc_q_dats}


def cmd_plot(args) -> int:
    outdir = Path(args.result_dir)
    try:
        doc = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read result.json: {exc}", file=sys.stderr)
        return 2
    kind = str(doc.get("kind")) if isinstance(doc, dict) else type(doc).__name__
    if kind not in PLOTS:
        print(f"no plot for a {kind} result", file=sys.stderr)
        return 2
    try:  # every file's text is built before any file is written
        texts = {name: _dat(rows) for name, rows in PLOTS[kind](doc, outdir).items()}
    except (OSError, UnicodeDecodeError, ConfigError, yaml.YAMLError) as exc:
        # the one file a plot reads; its decode error is a ValueError, so it is caught first
        print(f"cannot read the run's config.echo: {exc}", file=sys.stderr)
        return 2
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        print(f"malformed {kind} result: {exc!r}", file=sys.stderr)
        return 2
    for name, text in texts.items():
        (outdir / name).write_text(text, encoding="utf-8")
    print(f"wrote plot data under {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpvalue")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the config output_dir")
    p_run.set_defaults(func=cmd_run)
    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)
    p_plot = sub.add_parser("plot", help="emit plot-ready .dat files")
    p_plot.add_argument("result_dir")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
