"""Command-line interface: config handling, CSV artifacts and the plot script.

``main`` exposes the experiment driver (``podrom.experiment``) as the
``podrom`` console tool.  Results are written as CSV files plus a generated
plotting script (``run --seed`` is accepted and ignored: no stage draws
random numbers).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import subprocess
import sys
from typing import Dict, Tuple

from .errors import InvalidInputError, PodromError
from .experiment import FLOOR_FRACTION, RunConfig, RunReport, preset, run_experiment

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


def _write_cell_curves(path: str, value_name: str, extra_name: str, curves) -> None:
    """One row per (time x cell): t, log10 value, method, delta, l, extra.

    ``curves`` yields (cell, times, values, extra text) per cell; exact
    zeros become "-inf".
    """
    lines = [f"t,{value_name},method,delta,l,{extra_name}"]
    for cell, times, values, extra in curves:
        delta_s = repr(float(cell.delta))
        for t, value in zip(times, values):
            lines.append(
                f"{float(t)!r},{_log10_or_neg_inf(float(value))},{cell.method},"
                f"{delta_s},{cell.l},{extra}"
            )
    _write_text(path, "\n".join(lines) + "\n")


def write_error_csv(report: RunReport, path: str) -> None:
    """One row per (evaluation time x cell); exact zeros become "-inf"."""
    _write_cell_curves(path, "log10_err", "sigma_next", (
        (cell, cell.curve.times, cell.curve.norms, repr(float(cell.sigma_next)))
        for cell in report.cells
    ))


def write_spectrum_csv(report: RunReport, path: str) -> None:
    """Descending spectra per (method, delta), cut at the numerical rank.

    A sigma below 1e-300 becomes "-inf".
    """
    lines = ["index,log10_sigma,method,delta"]
    for (method, delta), svd in report.factorizations.items():
        delta_s = repr(float(delta))
        for i, sigma in enumerate(svd.singular_values[: svd.numerical_rank]):
            value = _log10_or_neg_inf(float(sigma), floor=1e-300)
            lines.append(f"{i + 1},{value},{method},{delta_s}")
    _write_text(path, "\n".join(lines) + "\n")


def write_bound_csv(report: RunReport, path: str) -> None:
    """Bound curves for every cell that has one, in cell order."""
    _write_cell_curves(path, "log10_bound", "saturated", (
        (cell, cell.bound.times, cell.bound.values, 1 if cell.bound.saturated else 0)
        for cell in report.cells
        if cell.bound is not None
    ))


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


# --- Plot script ---------------------------------------------------------

def emit_plot_script(report: RunReport, path: str) -> None:
    """Write a standalone script that renders the run's figures.

    The script reads the CSVs by relative path (it resolves them against its
    own directory), draws one error panel per truncation rule with a curve
    per (method, delta) cell, overlays dashed bound curves when a bound CSV
    was written, and renders the spectra on a second figure.  Generation is
    deterministic: the embedded panel table comes from the report structure
    only.
    """
    panels = []
    for rule in report.config.rules:
        members = [
            {"method": c.method, "delta": c.delta, "l": c.l}
            for c in report.cells
            if c.rule == rule
        ]
        panels.append({"label": rule.label(), "cells": members})
    spectrum_keys = [[m, float(d)] for (m, d) in report.factorizations]
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
        f"ERROR_CSV = {ERROR_CSV_NAME!r}\n"
        f"SPECTRUM_CSV = {SPECTRUM_CSV_NAME!r}\n"
        f"BOUND_CSV = {BOUND_CSV_NAME if has_bounds else None!r}\n"
        f"PANELS = {json.dumps(panels, sort_keys=True)}\n"
        f"SPECTRUM_KEYS = {json.dumps(spectrum_keys)}\n"
    )
    body = '''

def read_rows(name):
    with open(os.path.join(HERE, name), encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def series(rows, method, delta, l, x_key, y_key):
    # Cells whose rules give the same l share one curve, so the rows of
    # (method, delta, l) repeat one block; a step back in x starts a copy.
    xs, ys = [], []
    last_x = None
    for row in rows:
        if row["method"] != method:
            continue
        if float(row["delta"]) != delta or int(row["l"]) != l:
            continue
        x = float(row[x_key])
        if last_x is not None and x <= last_x:
            break
        last_x = x
        y = row[y_key]
        if y == "-inf":
            continue
        xs.append(x)
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

def _comma_list(cast):
    def parse(text: str) -> tuple:
        return tuple(cast(part) for part in text.split(",") if part.strip())
    return parse


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


# One row per run setting, keyed by its experiment.preset keyword (out,
# plots and seed are the CLI's own): (INI key "section.key", the parser that
# reads the flag's text and the file's alike, run's flag, help text).
_SETTINGS = {
    "preset": ("run.preset", str, "--preset", "bundled experiment id: A, B, or C"),
    "methods": ("run.methods", _comma_list(str), "--methods", "comma list from {Y,Z}"),
    "deltas": ("run.deltas", _comma_list(float), "--deltas", "comma list of snapshot spacings"),
    "epsilons": ("run.epsilons", _comma_list(float), "--epsilons",
                 "comma list of spectrum cutoffs"),
    "dims": ("run.dims", _comma_list(int), "--dims", "comma list of fixed basis dimensions"),
    "out": ("run.out", str, "--out", "output directory"),
    "evaluate_bounds": ("run.bounds", _boolean, "--bounds", "evaluate a-priori bound curves"),
    "plots": ("run.plots", _boolean, "--plots", "render the emitted plot script to PNG files"),
    "seed": ("run.seed", int, "--seed", "accepted for compatibility; no output depends on it"),
    "rel_tol": ("integrator.rel_tol", float, "--rel-tol",
                "the truth solve's relative tolerance; a DP5 reduced solve runs at it times "
                f"k = max(1, {FLOOR_FRACTION:g} rho / rel_tol), rho its relative projection error"),
    "abs_tol": ("integrator.abs_tol", float, "--abs-tol",
                "the truth solve's absolute tolerance; a DP5 reduced solve runs at it times "
                "the same k"),
}

# Defaults of the CLI's own settings; every other default is RunConfig's.
_DEFAULTS = {"out": "podrom_out", "plots": False}
_DEFAULTS.update(
    (field.name, field.default)
    for field in dataclasses.fields(RunConfig)
    if field.default is not dataclasses.MISSING
)


def _help(name: str) -> str:
    text = _SETTINGS[name][3]
    default = _DEFAULTS.get(name, ())
    if isinstance(default, tuple):
        default = ",".join(default)
    return f"{text} (default {default})" if default != "" else text


def _config_help() -> str:
    keys = "".join(f"  {key:<27} = {_help(name)}\n" for name, (key, *_) in _SETTINGS.items())
    return (
        "config file (INI): each key section.key is set by `key = value` under a\n"
        f"[section] header:\n\n{keys}\n"
        f"precedence: command-line flags beat the {OUT_DIR_ENV_VAR} environment variable\n"
        "(output directory only), which beats the config file, which beats\n"
        "built-in defaults.\n"
    )


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _load_config_file(path: str) -> Dict[str, str]:
    """Flatten the INI file to {"section.key": raw string}, rejecting unknown keys."""
    # Literal values (no % interpolation); [DEFAULT] is an ordinary, unknown section.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise InvalidInputError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise InvalidInputError(f"cannot parse config file {path}: {err}") from err
    keys = {key for key, *_ in _SETTINGS.values()}
    flat: Dict[str, str] = {}
    for section in parser.sections():
        if not any(key.startswith(section + ".") for key in keys):
            raise InvalidInputError(f"unknown config section [{section}] in {path}")
        for key, value in parser.items(section):
            if f"{section}.{key}" not in keys:
                raise InvalidInputError(
                    f"unknown config key {key!r} in section [{section}] of {path}"
                )
            flat[f"{section}.{key}"] = value.strip()
    return flat


def _add_flag(parser: argparse.ArgumentParser, name: str, flag=None, **kwargs) -> None:
    """Add a setting's flag (run's unless ``flag`` is given), stored as text."""
    _, parse, run_flag, _ = _SETTINGS[name]
    if parse is _boolean:
        kwargs.update(action="store_const", const="true")
    parser.add_argument(flag or run_flag, dest=name, help=_help(name), **kwargs)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="podrom",
        description="Snapshot-based reduced-order-model experiment driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run an experiment sweep and write CSV reports",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("--config", help="INI config file (see epilog for keys)")
    for name in _SETTINGS:
        _add_flag(run, name)

    spectrum = sub.add_parser(
        "spectrum", help="compute snapshot-matrix spectra only"
    )
    _add_flag(spectrum, "preset", required=True)
    _add_flag(spectrum, "deltas", "--delta", required=True)
    for name in ("methods", "out", "rel_tol", "abs_tol"):
        _add_flag(spectrum, name)
    # spectrum is a run without truncation rules
    spectrum.set_defaults(epsilons="", dims="")
    return parser


def _config_from_args(args: argparse.Namespace) -> Tuple[RunConfig, str, bool]:
    """The run config, the output directory and whether to render plots.

    Each setting comes from its flag, else (output directory only) the
    environment, else the config file, each parsed by the setting's one
    parser; a setting given nowhere takes its default.
    """
    config_path = getattr(args, "config", None)
    file_map = _load_config_file(config_path) if config_path else {}
    settings = {}
    for name, (key, parse, _, _) in _SETTINGS.items():
        raw = getattr(args, name, None)
        if raw is None and name == "out":
            raw = os.environ.get(OUT_DIR_ENV_VAR) or None
        if raw is None:
            raw = file_map.get(key)
        if raw is not None:
            try:
                settings[name] = parse(raw)
            except ValueError as err:
                raise InvalidInputError(f"bad value {raw!r} for {key}: {err}") from err

    preset_id = settings.pop("preset", None)
    if preset_id is None:
        raise InvalidInputError("a preset is required (--preset or config key run.preset)")
    out_dir = settings.pop("out", _DEFAULTS["out"])
    if not out_dir:
        raise InvalidInputError("the output directory must not be empty")
    plots = settings.pop("plots", _DEFAULTS["plots"])
    settings.pop("seed", None)  # parsed so that a bad value is an error; unused
    return preset(preset_id, **settings), out_dir, plots


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


def _write_run(report: RunReport, out_dir: str, render_plots: bool) -> int:
    error_path = os.path.join(out_dir, ERROR_CSV_NAME)
    spectrum_path = os.path.join(out_dir, SPECTRUM_CSV_NAME)
    script_path = os.path.join(out_dir, PLOT_SCRIPT_NAME)
    write_error_csv(report, error_path)
    write_spectrum_csv(report, spectrum_path)
    written = [error_path, spectrum_path]
    if report.config.evaluate_bounds:
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
            f"FAIL {failure.method} delta={failure.delta:g} {failure.rule.label()} "
            f"[{failure.stage}]: {failure.message}"
        )
    stage_text = " ".join(f"{stage}={seconds:.2f}s" for stage, seconds in report.timings.items())
    print(f"cells: {len(report.cells)} ok, {len(report.failures)} failed; {stage_text}")
    for path in written:
        print(f"wrote {path}")

    if report.failures or not plots_ok:
        return 2
    return 0


def _write_spectrum(report: RunReport, out_dir: str) -> int:
    path = os.path.join(out_dir, SPECTRUM_CSV_NAME)
    write_spectrum_csv(report, path)
    for (method, delta), svd in report.factorizations.items():
        print(
            f"{method} delta={delta:g}: rank {svd.numerical_rank} of "
            f"{svd.singular_values.size} columns, sigma1={svd.singular_values[0]:.6e}"
        )
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    0 on full success, 2 when some grid cells failed (or plots failed to
    render), 1 on configuration errors, on an output directory that cannot
    be created or written, and when the truth solve, a factorization or the
    bound constants fail (their error is printed, not raised).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config, out_dir, render_plots = _config_from_args(args)
        if args.command == "run" and not config.rules:
            raise InvalidInputError("at least one truncation rule is required")
        os.makedirs(out_dir, exist_ok=True)
        report = run_experiment(config)
        if args.command == "spectrum":
            return _write_spectrum(report, out_dir)
        return _write_run(report, out_dir, render_plots)
    except (PodromError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
