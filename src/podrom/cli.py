"""Experiment driver and command-line interface.

Runs the pipeline over a (method, spacing, rule) grid: one shared
high-accuracy reference solve per run, a snapshot matrix and its SVD per
(method, spacing), a reduced solve per cell, and optional a-priori bound
curves.  The bound constants come from the system's structure: exact
from the linear operator when the cubic is off, else from the exact
Jacobian sampled along the truth trajectory.  No stage draws random
numbers, so a run's outputs depend on its configuration alone (``run
--seed`` is accepted and ignored).  Results are written as CSV files plus
a generated plotting script; ``main`` exposes the whole thing as the
``podrom`` console tool.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .bounds import (
    BoundConstants,
    BoundCurve,
    linear_bound_constants,
    method1_bound,
    method2_bound,
    sampled_bound_constants,
)
from .errors import (
    ConvergenceError,
    InvalidInputError,
    RhsEvaluationError,
    StiffnessError,
)
from .fhn import FhnParams, build_fhn, preset
from .linalg import SvdResult, svd_one_sided_jacobi
from .ode import OdeSystem, Trajectory, integrate
from .pod import (
    ErrorCurve,
    SnapshotSet,
    TruncationRule,
    build_snapshot_matrix,
    collect_snapshots,
    error_curve,
    solve_rom_lifted,
    truncate_basis,
)

__all__ = [
    "RunConfig",
    "CellResult",
    "CellFailure",
    "RunReport",
    "run_experiment",
    "write_error_csv",
    "write_spectrum_csv",
    "write_bound_csv",
    "emit_plot_script",
    "main",
]

METHODS = ("Y", "Z")

_SOURCE_BY_METHOD = {"Y": "solution_only", "Z": "solution_and_derivative"}

# Failure kinds that stay confined to one grid cell.
_CELL_ERRORS = (InvalidInputError, ConvergenceError, StiffnessError, RhsEvaluationError)

ERROR_CSV_NAME = "errors.csv"
SPECTRUM_CSV_NAME = "spectra.csv"
BOUND_CSV_NAME = "bounds.csv"
PLOT_SCRIPT_NAME = "plot_report.py"

# Environment override for the output directory (the only env knob).
OUT_DIR_ENV_VAR = "PODROM_OUT"

# Wall-clock cap on rendering the emitted plot script; a hung renderer
# counts as a failed render instead of blocking the run.
PLOT_TIMEOUT_S = 300.0

_DEFAULT_REL_TOL = 1e-11
_DEFAULT_ABS_TOL = 1e-13


def _as_float_tuple(values, name: str) -> Tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise InvalidInputError(f"{name} must be nonempty")
    return out


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on.

    ``params``/``final_time`` are always populated; ``preset_id`` is kept
    only as a label when the run came from a bundled preset.  Exactly the
    grid cells (method, delta, rule) are produced, in that loop order.
    """

    params: FhnParams
    final_time: float
    methods: Tuple[str, ...] = METHODS
    deltas: Tuple[float, ...] = ()
    rules: Tuple[TruncationRule, ...] = ()
    preset_id: Optional[str] = None
    rel_tol: float = _DEFAULT_REL_TOL
    abs_tol: float = _DEFAULT_ABS_TOL
    eval_grid_size: int = 400
    out_dir: str = "podrom_out"
    emit_plots: bool = False
    evaluate_bounds: bool = False
    bound_samples_per_interval: int = 64
    bound_variant: str = "consistent"

    def __post_init__(self) -> None:
        if not isinstance(self.params, FhnParams):
            raise InvalidInputError("params must be an FhnParams instance")
        horizon = float(self.final_time)
        if not horizon > 0.0 or not math.isfinite(horizon):
            raise InvalidInputError(f"final_time must be positive, got {self.final_time!r}")
        object.__setattr__(self, "final_time", horizon)

        methods = tuple(dict.fromkeys(str(m).strip().upper() for m in self.methods))
        if not methods:
            raise InvalidInputError("at least one method is required")
        for m in methods:
            if m not in METHODS:
                raise InvalidInputError(f"unknown method {m!r}; choose from {METHODS}")
        object.__setattr__(self, "methods", methods)

        deltas = _as_float_tuple(self.deltas, "deltas")
        for delta in deltas:
            _interval_count(horizon, delta)
        object.__setattr__(self, "deltas", deltas)

        rules = tuple(self.rules)
        if not rules:
            raise InvalidInputError("at least one truncation rule is required")
        for rule in rules:
            if not isinstance(rule, TruncationRule):
                raise InvalidInputError(f"rules must be TruncationRule instances, got {rule!r}")
        object.__setattr__(self, "rules", rules)

        if not float(self.rel_tol) > 0.0 or not float(self.abs_tol) > 0.0:
            raise InvalidInputError("integrator tolerances must be positive")
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))

        if int(self.eval_grid_size) < 2:
            raise InvalidInputError("eval_grid_size must be >= 2")
        object.__setattr__(self, "eval_grid_size", int(self.eval_grid_size))

        if int(self.bound_samples_per_interval) < 4:
            raise InvalidInputError("bound_samples_per_interval must be >= 4")
        object.__setattr__(
            self, "bound_samples_per_interval", int(self.bound_samples_per_interval)
        )
        if self.bound_variant not in ("consistent", "literal"):
            raise InvalidInputError(
                f"bound_variant must be 'consistent' or 'literal', got {self.bound_variant!r}"
            )
        object.__setattr__(self, "out_dir", str(self.out_dir))

    @classmethod
    def for_preset(
        cls,
        preset_id: str,
        methods: Optional[Tuple[str, ...]] = None,
        deltas: Optional[Tuple[float, ...]] = None,
        epsilons: Optional[Tuple[float, ...]] = None,
        dims: Optional[Tuple[int, ...]] = None,
        **kwargs,
    ) -> "RunConfig":
        """Build a config from a bundled preset, optionally overriding its schedule.

        When neither ``epsilons`` nor ``dims`` is given the preset's full rule
        schedule (all cutoffs, then all fixed dimensions) is used; giving
        either replaces the schedule with exactly the rules named.
        """
        spec = preset(preset_id)
        rules: Tuple[TruncationRule, ...]
        if epsilons is None and dims is None:
            rules = tuple(TruncationRule.cutoff(e) for e in spec.epsilon_list) + tuple(
                TruncationRule.fixed(l) for l in spec.l_list
            )
        else:
            rules = tuple(TruncationRule.cutoff(float(e)) for e in (epsilons or ())) + tuple(
                TruncationRule.fixed(int(l)) for l in (dims or ())
            )
        if "eval_grid_size" not in kwargs:
            kwargs["eval_grid_size"] = spec.eval_grid_size
        return cls(
            params=spec.params,
            final_time=spec.T,
            methods=tuple(methods) if methods is not None else METHODS,
            deltas=tuple(deltas) if deltas is not None else spec.delta_list,
            rules=rules,
            preset_id=spec.id,
            **kwargs,
        )


@dataclass(frozen=True)
class CellResult:
    """One populated grid cell: the error curve plus its optional bound."""

    method: str
    delta: float
    rule: TruncationRule
    curve: ErrorCurve
    bound: Optional[BoundCurve] = None

    @property
    def l(self) -> int:
        return self.curve.l_used

    @property
    def sigma_next(self) -> float:
        return self.curve.sigma_next_used

    @property
    def max_error(self) -> float:
        return self.curve.max_norm


@dataclass(frozen=True)
class CellFailure:
    """Record of a grid cell that could not be populated."""

    method: str
    delta: float
    rule_label: str
    stage: str
    message: str


@dataclass
class RunReport:
    """Everything a finished run produced, cell by cell.

    ``spectra`` maps (method, delta) to the descending singular values of
    that snapshot matrix, cut at the numerical rank.  ``timings`` holds
    wall-clock seconds per stage and ``counters`` the stage-invocation
    counts; ``fom_solves`` stays at 1 because the truth trajectory is shared
    across all cells.
    """

    cells: Tuple[CellResult, ...]
    failures: Tuple[CellFailure, ...]
    spectra: Dict[Tuple[str, float], np.ndarray]
    timings: Dict[str, float]
    counters: Dict[str, int]
    eval_times: np.ndarray
    config: RunConfig

    @property
    def cell_count(self) -> int:
        return len(self.cells)


def _interval_count(horizon: float, delta: float) -> int:
    if not float(delta) > 0.0:
        raise InvalidInputError(f"delta must be positive, got {delta!r}")
    ratio = horizon / float(delta)
    count = round(ratio)
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise InvalidInputError(
            f"delta {delta!r} does not divide the time horizon {horizon!r}"
        )
    return int(count)


def _uniform_grid(horizon: float, intervals: int) -> np.ndarray:
    # (T * k) / D keeps shared points of nested refinements bit-identical,
    # which is what lets every subgrid be sliced out of the union grid.
    return (horizon * np.arange(intervals + 1)) / intervals


def _restrict(fom: Trajectory, grid: np.ndarray) -> Trajectory:
    """The samples of ``fom`` on ``grid``, whose points must all be on its grid."""
    idx = np.searchsorted(fom.times, grid)
    if idx[-1] >= fom.times.size or not np.array_equal(fom.times[idx], grid):
        raise RuntimeError("internal grid alignment failure")
    return Trajectory(times=grid, states=fom.states[idx])


class _Timer:
    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def add(self, stage: str, start: float) -> None:
        self.totals[stage] = self.totals.get(stage, 0.0) + (time.perf_counter() - start)


@dataclass
class _RunContext:
    """Truth trajectory and per-delta slices shared by every stage."""

    system: OdeSystem
    x0: np.ndarray
    eval_times: np.ndarray
    fom_eval: Trajectory
    snapshots: Dict[float, SnapshotSet]
    dense_trajectories: Dict[float, Trajectory]
    timer: _Timer
    counters: Dict[str, int]


def _prepare(config: RunConfig) -> _RunContext:
    timer = _Timer()
    counters = {"fom_solves": 0, "svd_factorizations": 0, "rom_solves": 0, "rom_cache_hits": 0}

    system = build_fhn(config.params)
    n = config.params.dimension
    x0 = np.zeros(n)
    horizon = config.final_time

    size = config.eval_grid_size
    eval_times = (horizon * np.arange(size)) / (size - 1)
    snap_grids = {
        delta: _uniform_grid(horizon, _interval_count(horizon, delta))
        for delta in config.deltas
    }
    dense_grids: Dict[float, np.ndarray] = {}
    if config.evaluate_bounds:
        per = config.bound_samples_per_interval
        dense_grids = {
            delta: _uniform_grid(horizon, per * _interval_count(horizon, delta))
            for delta in config.deltas
        }

    union = reduce(
        np.union1d, list(snap_grids.values()) + list(dense_grids.values()), eval_times
    )

    start = time.perf_counter()
    fom = integrate(system, x0, 0.0, horizon, config.rel_tol, config.abs_tol, union)
    counters["fom_solves"] += 1
    timer.add("fom", start)

    start = time.perf_counter()
    snapshots = {
        delta: collect_snapshots(system, _restrict(fom, grid))
        for delta, grid in snap_grids.items()
    }
    dense_trajectories = {
        delta: _restrict(fom, grid) for delta, grid in dense_grids.items()
    }
    timer.add("snapshots", start)

    return _RunContext(
        system=system,
        x0=x0,
        eval_times=eval_times,
        fom_eval=_restrict(fom, eval_times),
        snapshots=snapshots,
        dense_trajectories=dense_trajectories,
        timer=timer,
        counters=counters,
    )


def _compute_spectra(
    config: RunConfig, ctx: _RunContext
) -> Dict[Tuple[str, float], SvdResult]:
    svds: Dict[Tuple[str, float], SvdResult] = {}
    for method in config.methods:
        for delta in config.deltas:
            start = time.perf_counter()
            matrix = build_snapshot_matrix(ctx.snapshots[delta], method)
            svds[(method, delta)] = svd_one_sided_jacobi(matrix)
            ctx.counters["svd_factorizations"] += 1
            ctx.timer.add("svd", start)
    return svds


def _compute_constants(ctx: _RunContext) -> Dict[float, BoundConstants]:
    """One set of bound constants per snapshot spacing.

    The linear route is exact and is taken when the system's cubic is off
    (the test ``pod.build_rom`` uses to drop the cubic block): the matrix A
    is the structure's linear operator applied to the identity.  Otherwise
    the constants come from the structure's exact Jacobian, sampled along
    the dense trajectory.
    """
    constants: Dict[float, BoundConstants] = {}
    start = time.perf_counter()
    structure = ctx.system.structure
    if structure.cubic_scale == 0.0:
        matrix = structure.apply_linear(np.eye(ctx.system.dimension))
        for delta, snaps in ctx.snapshots.items():
            constants[delta] = linear_bound_constants(
                matrix, ctx.dense_trajectories[delta], snaps.times
            )
    else:
        for delta, snaps in ctx.snapshots.items():
            constants[delta] = sampled_bound_constants(
                ctx.system, ctx.dense_trajectories[delta], snaps.times
            )
    ctx.timer.add("constants", start)
    return constants


def _finish_report(
    config: RunConfig,
    ctx: _RunContext,
    svds: Dict[Tuple[str, float], SvdResult],
    total_start: float,
    cells=(),
    failures=(),
) -> RunReport:
    """Report with every spectrum cut at its numerical rank and the total time."""
    ctx.timer.add("total", total_start)
    return RunReport(
        cells=tuple(cells),
        failures=tuple(failures),
        spectra={
            key: svd.singular_values[: svd.numerical_rank].copy()
            for key, svd in svds.items()
        },
        timings=dict(ctx.timer.totals),
        counters=dict(ctx.counters),
        eval_times=ctx.eval_times,
        config=config,
    )


def run_experiment(config: RunConfig) -> RunReport:
    """Run the full sweep and collect every cell (or its failure record).

    The truth trajectory is integrated once on the union of the evaluation
    grid, all snapshot grids, and (with bounds on) the dense sampling grids;
    every later stage slices it.  A cell failure is recorded with its stage
    and message and the remaining cells still run.
    """
    total_start = time.perf_counter()

    ctx = _prepare(config)
    svds = _compute_spectra(config, ctx)
    constants: Dict[float, BoundConstants] = {}
    if config.evaluate_bounds:
        constants = _compute_constants(ctx)

    cells = []
    failures = []
    rom_cache: Dict[Tuple[str, float, int], Trajectory] = {}
    for method in config.methods:
        for delta in config.deltas:
            for rule in config.rules:
                stage = "basis"
                try:
                    basis = truncate_basis(
                        svds[(method, delta)], rule, _SOURCE_BY_METHOD[method]
                    )

                    stage = "rom"
                    cache_key = (method, delta, basis.l)
                    lifted = rom_cache.get(cache_key)
                    if lifted is None:
                        start = time.perf_counter()
                        lifted = solve_rom_lifted(
                            ctx.system, basis, ctx.x0, ctx.eval_times,
                            config.rel_tol, config.abs_tol,
                        )
                        rom_cache[cache_key] = lifted
                        ctx.counters["rom_solves"] += 1
                        ctx.timer.add("rom", start)
                    else:
                        ctx.counters["rom_cache_hits"] += 1

                    stage = "error"
                    curve = error_curve(
                        ctx.fom_eval, lifted, method, delta, basis.l, basis.sigma_next
                    )

                    bound = None
                    if config.evaluate_bounds:
                        stage = "bound"
                        start = time.perf_counter()
                        grid = ctx.snapshots[delta].times
                        if method == "Y":
                            bound = method1_bound(
                                basis.sigma_next, constants[delta], grid, ctx.eval_times
                            )
                        else:
                            bound = method2_bound(
                                basis.sigma_next,
                                constants[delta],
                                grid,
                                ctx.eval_times,
                                variant=config.bound_variant,
                            )
                        ctx.timer.add("bounds", start)

                    cells.append(
                        CellResult(
                            method=method, delta=delta, rule=rule, curve=curve, bound=bound
                        )
                    )
                except _CELL_ERRORS as err:
                    failures.append(
                        CellFailure(
                            method=method,
                            delta=delta,
                            rule_label=rule.label(),
                            stage=stage,
                            message=str(err),
                        )
                    )

    return _finish_report(config, ctx, svds, total_start, cells, failures)


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
    spectrum.add_argument("--delta", required=True, help="comma list of snapshot spacings")
    spectrum.add_argument("--methods", help="comma list from {Y,Z} (default both)")
    spectrum.add_argument("--out", help="output directory (default podrom_out)")
    spectrum.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    spectrum.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    return parser


def _pick(cli_value, file_map: Dict[str, str], file_key: str, fallback):
    """CLI flag > config file > fallback (the env var slots in for out dirs)."""
    if cli_value is not None:
        return cli_value
    if file_key in file_map:
        return file_map[file_key]
    return fallback


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_map = _load_config_file(args.config) if args.config else {}

    preset_id = args.preset if args.preset is not None else file_map.get("run.preset")
    if preset_id is None:
        raise InvalidInputError("a preset is required (--preset or config key run.preset)")

    methods = _parse_methods(_pick(args.methods, file_map, "run.methods", None))
    deltas_raw = _pick(args.deltas, file_map, "run.deltas", None)
    deltas = _parse_float_list(deltas_raw, "deltas") if deltas_raw is not None else None
    epsilons_raw = _pick(args.epsilons, file_map, "run.epsilons", None)
    epsilons = (
        _parse_float_list(epsilons_raw, "epsilons") if epsilons_raw is not None else None
    )
    dims_raw = _pick(args.dims, file_map, "run.dims", None)
    dims = _parse_int_list(dims_raw, "dims") if dims_raw is not None else None

    env_out = os.environ.get(OUT_DIR_ENV_VAR)
    out_dir = args.out if args.out is not None else (
        env_out if env_out else file_map.get("run.out", "podrom_out")
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

    try:
        # still parsed, so a bad value stays an error; the run draws no
        # random numbers
        int(_pick(args.seed, file_map, "run.seed", 0))
        rel_tol = float(_pick(args.rel_tol, file_map, "integrator.rel_tol", _DEFAULT_REL_TOL))
        abs_tol = float(_pick(args.abs_tol, file_map, "integrator.abs_tol", _DEFAULT_ABS_TOL))
        samples = int(file_map.get("bounds.samples_per_interval", 64))
    except ValueError as err:
        raise InvalidInputError(f"bad numeric config value: {err}") from err
    variant = file_map.get("bounds.variant", "consistent")

    extra = {}
    eval_raw = _pick(args.eval_grid, file_map, "grid.eval_size", None)
    if eval_raw is not None:
        try:
            extra["eval_grid_size"] = int(eval_raw)
        except ValueError as err:
            raise InvalidInputError(f"bad eval grid size {eval_raw!r}") from err

    return RunConfig.for_preset(
        preset_id,
        methods=methods,
        deltas=deltas,
        epsilons=epsilons,
        dims=dims,
        out_dir=out_dir,
        emit_plots=bool(plots),
        evaluate_bounds=bool(bounds),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        bound_samples_per_interval=samples,
        bound_variant=variant,
        **extra,
    )


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


def _execute_run(config: RunConfig) -> int:
    report = run_experiment(config)
    out_dir = config.out_dir
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
    if config.emit_plots:
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


def _execute_spectrum(args: argparse.Namespace) -> int:
    deltas = _parse_float_list(args.delta, "delta")
    methods = _parse_methods(args.methods)
    env_out = os.environ.get(OUT_DIR_ENV_VAR)
    out_dir = args.out if args.out is not None else (env_out if env_out else "podrom_out")
    config = RunConfig.for_preset(
        args.preset,
        methods=methods,
        deltas=deltas,
        dims=(1,),
        out_dir=out_dir,
        rel_tol=args.rel_tol if args.rel_tol is not None else _DEFAULT_REL_TOL,
        abs_tol=args.abs_tol if args.abs_tol is not None else _DEFAULT_ABS_TOL,
    )
    total_start = time.perf_counter()
    ctx = _prepare(config)
    svds = _compute_spectra(config, ctx)
    report = _finish_report(config, ctx, svds, total_start)
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
        if args.command == "run":
            return _execute_run(_config_from_args(args))
        return _execute_spectrum(args)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
