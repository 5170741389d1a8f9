"""Command-line interface: config handling, CSV artifacts and the plot script.

``main`` exposes the experiment driver (``podrom.experiment``) as the
``podrom`` console tool.  Results are written as CSV files plus a generated
plotting script (``run --seed`` is accepted and ignored: no stage draws
random numbers).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import subprocess
import sys
from typing import Dict, Optional, Tuple

from .errors import InvalidInputError
from .experiment import RunConfig, RunReport, run_experiment, run_spectra

__all__ = [
    "write_error_csv",
    "write_spectrum_csv",
    "write_bound_csv",
    "emit_plot_script",
    "main",
]

ERROR_CSV_NAME = "errors.csv"
SPECTRUM_CSV_NAME = "spectra.csv"
BOUND_CSV_NAME = "bounds.csv"
PLOT_SCRIPT_NAME = "plot_report.py"

# Environment override for the output directory (the only env knob).
OUT_DIR_ENV_VAR = "PODROM_OUT"

# Wall-clock cap on rendering the emitted plot script; a hung renderer
# counts as a failed render instead of blocking the run.
PLOT_TIMEOUT_S = 300.0


# --- CSV artifacts -------------------------------------------------------

def _log10_or_neg_inf(value: float, floor: float = 0.0) -> str:
    if value <= floor:
        return "-inf"
    return repr(math.log10(value))


def write_error_csv(report: RunReport, path: str) -> None:
    """One row per (evaluation time x cell); exact zeros become "-inf"."""
    lines = ["t,log10_err,method,delta,l,sigma_next"]
    for cell in report.cells:
        delta_s = repr(float(cell.delta))
        sigma_s = repr(float(cell.sigma_next))
        for t, norm in zip(cell.curve.times, cell.curve.norms):
            lines.append(
                f"{float(t)!r},{_log10_or_neg_inf(float(norm))},{cell.method},"
                f"{delta_s},{cell.l},{sigma_s}"
            )
    _write_text(path, "\n".join(lines) + "\n")


def write_spectrum_csv(report: RunReport, path: str) -> None:
    """Descending spectra per (method, delta); sigma below 1e-300 becomes "-inf"."""
    lines = ["index,log10_sigma,method,delta"]
    for (method, delta), sigmas in report.spectra.items():
        delta_s = repr(float(delta))
        for i, sigma in enumerate(sigmas):
            value = _log10_or_neg_inf(float(sigma), floor=1e-300)
            lines.append(f"{i + 1},{value},{method},{delta_s}")
    _write_text(path, "\n".join(lines) + "\n")


def write_bound_csv(report: RunReport, path: str) -> None:
    """Bound curves for every cell that has one, in cell order."""
    lines = ["t,log10_bound,method,delta,l,saturated"]
    for cell in report.cells:
        if cell.bound is None:
            continue
        delta_s = repr(float(cell.delta))
        flag = 1 if cell.bound.saturated else 0
        for t, value in zip(cell.bound.times, cell.bound.values):
            lines.append(
                f"{float(t)!r},{_log10_or_neg_inf(float(value))},{cell.method},"
                f"{delta_s},{cell.l},{flag}"
            )
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


# --- Plot script ---------------------------------------------------------

def emit_plot_script(
    report: RunReport,
    path: str,
    error_csv: str = ERROR_CSV_NAME,
    spectrum_csv: str = SPECTRUM_CSV_NAME,
    bound_csv: str = BOUND_CSV_NAME,
) -> None:
    """Write a standalone script that renders the run's figures.

    The script reads the CSVs by relative path (it resolves them against its
    own directory), draws one error panel per truncation rule with a curve
    per (method, delta) cell, overlays dashed bound curves when a bound CSV
    was written, and renders the spectra on a second figure.  Generation is
    deterministic: the embedded panel table comes from the report structure
    only.
    """
    panels = []
    seen: Dict[str, int] = {}
    for rule in report.config.rules:
        label = rule.label()
        if label in seen:
            continue
        seen[label] = 1
        members = [
            {"method": c.method, "delta": c.delta, "l": c.l}
            for c in report.cells
            if c.rule == rule
        ]
        panels.append({"label": label, "cells": members})
    spectrum_keys = [[m, float(d)] for (m, d) in report.spectra.keys()]
    has_bounds = any(cell.bound is not None for cell in report.cells)

    header = (
        '#!/usr/bin/env python3\n'
        '"""Render the error, bound, and spectrum figures for one run."""\n'
        "import csv\n"
        "import os\n\n"
        "import matplotlib\n"
        'matplotlib.use("Agg")\n'
        "import matplotlib.pyplot as plt\n\n"
        "HERE = os.path.dirname(os.path.abspath(__file__))\n"
        f"ERROR_CSV = {error_csv!r}\n"
        f"SPECTRUM_CSV = {spectrum_csv!r}\n"
        f"BOUND_CSV = {bound_csv if has_bounds else None!r}\n"
        f"PANELS = {json.dumps(panels, sort_keys=True)}\n"
        f"SPECTRUM_KEYS = {json.dumps(spectrum_keys)}\n"
    )
    body = '''

def read_rows(name):
    with open(os.path.join(HERE, name), encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def series(rows, method, delta, l, x_key, y_key):
    xs, ys = [], []
    for row in rows:
        if row["method"] != method:
            continue
        if float(row["delta"]) != delta or int(row["l"]) != l:
            continue
        y = row[y_key]
        if y == "-inf":
            continue
        xs.append(float(row[x_key]))
        ys.append(float(y))
    return xs, ys


def main():
    error_rows = read_rows(ERROR_CSV)
    bound_rows = read_rows(BOUND_CSV) if BOUND_CSV else []
    count = max(len(PANELS), 1)
    cols = min(count, 3)
    rows_n = (count + cols - 1) // cols
    fig, axes = plt.subplots(
        rows_n, cols, figsize=(5.0 * cols, 3.6 * rows_n), squeeze=False
    )
    flat = [ax for row in axes for ax in row]
    styles = ["-", "--", "-.", ":"]
    for ax in flat[count:]:
        ax.set_visible(False)
    if not PANELS:
        flat[0].set_title("no cells")
    for ax, panel in zip(flat, PANELS):
        deltas = sorted({cell["delta"] for cell in panel["cells"]}, reverse=True)
        for cell in panel["cells"]:
            style = styles[deltas.index(cell["delta"]) % len(styles)]
            color = "C0" if cell["method"] == "Y" else "C1"
            xs, ys = series(
                error_rows, cell["method"], cell["delta"], cell["l"], "t", "log10_err"
            )
            label = "e^%s d=%g l=%d" % (cell["method"], cell["delta"], cell["l"])
            ax.plot(xs, ys, style, color=color, linewidth=1.1, label=label)
            if bound_rows:
                bx, by = series(
                    bound_rows, cell["method"], cell["delta"], cell["l"],
                    "t", "log10_bound",
                )
                ax.plot(bx, by, style, color=color, linewidth=0.8, alpha=0.45)
        ax.set_title(panel["label"])
        ax.set_xlabel("t")
        ax.set_ylabel("log10 error")
        if panel["cells"]:
            ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(os.path.join(HERE, "errors.png"), dpi=150)

    spectrum_rows = read_rows(SPECTRUM_CSV)
    fig2, ax2 = plt.subplots(figsize=(6.0, 4.0))
    for method, delta in SPECTRUM_KEYS:
        xs, ys = [], []
        for row in spectrum_rows:
            if row["method"] != method or float(row["delta"]) != delta:
                continue
            if row["log10_sigma"] == "-inf":
                continue
            xs.append(int(row["index"]))
            ys.append(float(row["log10_sigma"]))
        ax2.plot(xs, ys, marker=".", markersize=3, linewidth=0.9,
                 label="%s d=%g" % (method, delta))
    ax2.set_xlabel("index")
    ax2.set_ylabel("log10 sigma")
    if SPECTRUM_KEYS:
        ax2.legend(fontsize=7)
    fig2.tight_layout()
    fig2.savefig(os.path.join(HERE, "spectra.png"), dpi=150)


if __name__ == "__main__":
    main()
'''
    _write_text(path, header + body)


# --- Command-line interface ----------------------------------------------

_CONFIG_KEYS = {
    "run": ("preset", "methods", "deltas", "epsilons", "dims", "out", "bounds", "plots", "seed"),
    "integrator": ("rel_tol", "abs_tol"),
    "grid": ("eval_size",),
    "bounds": ("samples_per_interval", "variant"),
}

_CONFIG_HELP = """\
config file format (INI-style `key = value` with [section] headers):

  [run]
  preset     = A | B | C
  methods    = Y,Z
  deltas     = 0.01, 0.005
  epsilons   = 1e-15, 1e-9
  dims       = 5, 10, 20
  out        = output directory
  bounds     = true | false
  plots      = true | false
  seed       = 0        (accepted; no output depends on it)

  [integrator]
  rel_tol    = 1e-11
  abs_tol    = 1e-13

  [grid]
  eval_size  = 400

  [bounds]
  samples_per_interval = 64
  variant              = consistent | literal

precedence: command-line flags beat the %s environment variable
(output directory only), which beats the config file, which beats
built-in defaults.
""" % OUT_DIR_ENV_VAR


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _parse_float_list(text: str, name: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise InvalidInputError(f"cannot parse {name} list {text!r}: {err}") from err


def _parse_int_list(text: str, name: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise InvalidInputError(f"cannot parse {name} list {text!r}: {err}") from err


def _parse_methods(text) -> Optional[Tuple[str, ...]]:
    if text is None:
        return None
    return tuple(m for m in str(text).split(",") if m.strip())


def _load_config_file(path: str) -> Dict[str, str]:
    """Flatten the INI file to {key: raw string}, rejecting unknown keys."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise InvalidInputError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise InvalidInputError(f"cannot parse config file {path}: {err}") from err
    flat: Dict[str, str] = {}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise InvalidInputError(f"unknown config section [{section}] in {path}")
        for key, value in parser.items(section):
            if key not in _CONFIG_KEYS[section]:
                raise InvalidInputError(
                    f"unknown config key {key!r} in section [{section}] of {path}"
                )
            flat[f"{section}.{key}"] = value.strip()
    return flat


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="podrom",
        description="Snapshot-based reduced-order-model experiment driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run an experiment sweep and write CSV reports",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("--preset", help="bundled experiment id: A, B, or C")
    run.add_argument("--config", help="INI config file (see epilog for keys)")
    run.add_argument("--out", help="output directory (default podrom_out)")
    run.add_argument("--methods", help="comma list from {Y,Z} (default both)")
    run.add_argument("--deltas", help="comma list of snapshot spacings")
    run.add_argument("--epsilons", help="comma list of spectrum cutoffs")
    run.add_argument("--dims", help="comma list of fixed basis dimensions")
    run.add_argument("--bounds", action="store_true", default=None,
                     help="evaluate a-priori bound curves")
    run.add_argument("--plots", action="store_true", default=None,
                     help="render the emitted plot script to PNG files")
    run.add_argument("--seed", type=int,
                     help="accepted for compatibility; no output depends on it")
    run.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    run.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    run.add_argument("--eval-grid", type=int, help="evaluation grid size (default 400)")

    spectrum = sub.add_parser(
        "spectrum", help="compute snapshot-matrix spectra only"
    )
    spectrum.add_argument("--preset", required=True, help="bundled experiment id")
    spectrum.add_argument("--delta", dest="deltas", required=True,
                          help="comma list of snapshot spacings")
    spectrum.add_argument("--methods", help="comma list from {Y,Z} (default both)")
    spectrum.add_argument("--out", help="output directory (default podrom_out)")
    spectrum.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    spectrum.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    # run's other options, unset, so both subcommands build their config alike
    spectrum.set_defaults(config=None, epsilons=None, dims=None, bounds=None,
                          plots=None, seed=None, eval_grid=None)
    return parser


def _pick(cli_value, file_map: Dict[str, str], file_key: str):
    """The CLI flag if given, else the config file's value, else None."""
    return cli_value if cli_value is not None else file_map.get(file_key)


def _config_from_args(args: argparse.Namespace) -> Tuple[RunConfig, str, bool]:
    """The run config, the output directory and whether to render plots.

    A setting given nowhere takes ``RunConfig``'s default.
    """
    file_map = _load_config_file(args.config) if args.config else {}

    preset_id = _pick(args.preset, file_map, "run.preset")
    if preset_id is None:
        raise InvalidInputError("a preset is required (--preset or config key run.preset)")

    methods = _parse_methods(_pick(args.methods, file_map, "run.methods"))
    deltas_raw = _pick(args.deltas, file_map, "run.deltas")
    deltas = _parse_float_list(deltas_raw, "deltas") if deltas_raw is not None else None
    epsilons_raw = _pick(args.epsilons, file_map, "run.epsilons")
    epsilons = (
        _parse_float_list(epsilons_raw, "epsilons") if epsilons_raw is not None else None
    )
    dims_raw = _pick(args.dims, file_map, "run.dims")
    dims = _parse_int_list(dims_raw, "dims") if dims_raw is not None else None

    out_dir = args.out if args.out is not None else (
        os.environ.get(OUT_DIR_ENV_VAR) or file_map.get("run.out", "podrom_out")
    )

    def file_bool(key: str) -> Optional[bool]:
        if key not in file_map:
            return None
        text = file_map[key].lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise InvalidInputError(f"config key {key} must be boolean, got {file_map[key]!r}")

    bounds = args.bounds if args.bounds is not None else file_bool("run.bounds")
    plots = args.plots if args.plots is not None else file_bool("run.plots")

    numeric = (
        ("rel_tol", float, _pick(args.rel_tol, file_map, "integrator.rel_tol")),
        ("abs_tol", float, _pick(args.abs_tol, file_map, "integrator.abs_tol")),
        ("eval_grid_size", int, _pick(args.eval_grid, file_map, "grid.eval_size")),
        ("bound_samples_per_interval", int, file_map.get("bounds.samples_per_interval")),
    )
    options = {}
    try:
        # still parsed, so a bad value stays an error; the run draws no
        # random numbers
        int(_pick(args.seed, file_map, "run.seed") or 0)
        for name, cast, raw in numeric:
            if raw is not None:
                options[name] = cast(raw)
    except ValueError as err:
        raise InvalidInputError(f"bad numeric config value: {err}") from err
    if "bounds.variant" in file_map:
        options["bound_variant"] = file_map["bounds.variant"]

    config = RunConfig.for_preset(
        preset_id,
        methods=methods,
        deltas=deltas,
        epsilons=epsilons,
        dims=dims,
        evaluate_bounds=bool(bounds),
        **options,
    )
    return config, out_dir, bool(plots)


def _render_plots(script_path: str) -> bool:
    # the emitted script resolves every path against its own directory, so
    # no working-directory juggling is needed (or wanted: a relative out
    # dir must not be resolved twice)
    try:
        result = subprocess.run(
            [sys.executable, os.path.abspath(script_path)],
            capture_output=True,
            text=True,
            timeout=PLOT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"plot rendering timed out after {PLOT_TIMEOUT_S:g} s\n")
        return False
    if result.returncode != 0:
        sys.stderr.write(f"plot rendering failed:\n{result.stderr}")
        return False
    return True


def _execute_run(config: RunConfig, out_dir: str, render_plots: bool) -> int:
    report = run_experiment(config)
    os.makedirs(out_dir, exist_ok=True)

    error_path = os.path.join(out_dir, ERROR_CSV_NAME)
    spectrum_path = os.path.join(out_dir, SPECTRUM_CSV_NAME)
    script_path = os.path.join(out_dir, PLOT_SCRIPT_NAME)
    write_error_csv(report, error_path)
    write_spectrum_csv(report, spectrum_path)
    written = [error_path, spectrum_path]
    if config.evaluate_bounds:
        bound_path = os.path.join(out_dir, BOUND_CSV_NAME)
        write_bound_csv(report, bound_path)
        written.append(bound_path)
    emit_plot_script(report, script_path)
    written.append(script_path)

    plots_ok = True
    if render_plots:
        plots_ok = _render_plots(script_path)

    for cell in report.cells:
        print(
            f"ok   {cell.method} delta={cell.delta:g} {cell.rule.label()}: "
            f"l={cell.l} sigma_next={cell.sigma_next:.3e} "
            f"max_err={cell.max_error:.6e}"
        )
    for failure in report.failures:
        print(
            f"FAIL {failure.method} delta={failure.delta:g} {failure.rule_label} "
            f"[{failure.stage}]: {failure.message}"
        )
    stage_text = " ".join(
        f"{stage}={seconds:.2f}s" for stage, seconds in sorted(report.timings.items())
    )
    print(f"cells: {report.cell_count} ok, {len(report.failures)} failed; {stage_text}")
    for path in written:
        print(f"wrote {path}")

    if report.failures or not plots_ok:
        return 2
    return 0


def _execute_spectrum(config: RunConfig, out_dir: str) -> int:
    report, svds = run_spectra(config)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SPECTRUM_CSV_NAME)
    write_spectrum_csv(report, path)
    for (method, delta), svd in svds.items():
        print(
            f"{method} delta={delta:g}: rank {svd.numerical_rank} of "
            f"{svd.singular_values.size} columns, sigma1={svd.singular_values[0]:.6e}"
        )
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    0 on full success, 2 when some grid cells failed (or plots failed to
    render), 1 on configuration errors.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config, out_dir, render_plots = _config_from_args(args)
        if args.command == "run":
            return _execute_run(config, out_dir, render_plots)
        return _execute_spectrum(config, out_dir)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
