"""Benchmark workloads, artifact parsing, and the correctness check.

Each workload is one ``podrom run`` sweep at the acceptance-fixture
tolerances.  The three acceptance sweeps themselves take 40 s (B), 76 s
(A with bounds) and 140 s (C) on a 2-core machine: too long to repeat
inside one benchmark run, and C alone exceeds a run's time limit.  So each
workload keeps the part of an acceptance sweep that stresses its layers:

- ``a_bounds``: preset A with bounds at the two coarser spacings and the
  1e-15 / 1e-1 cutoffs.  Jacobi SVDs up to 402 x 202, the bound constants
  with one power iteration, and eight short reduced solves of the linear
  preset; the bounds' dense sample grid makes the truth solve land on 6.4k
  output times.
- ``b_crossover``: preset B at its coarsest spacing with l = 5 and 25.
  Nonlinear and dominated by reduced solves, whose cost grows with l; an
  SVD or bounds change should leave it unchanged.

Both workloads time the truth solve on its own (``fom_solve_s``), which is
the layer preset C was meant to weigh.

A sweep is checked against ``reference.json``, recorded by
``make_reference.py`` at a known-good commit.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Tuple

TOLERANCES = ("--rel-tol", "1e-13", "--abs-tol", "1e-15")

# Relative tolerance on a cell's max error against the reference.
MAX_ERROR_RTOL = 1e-4

DIGESTED = ("errors.csv", "spectra.csv")


@dataclass(frozen=True)
class Workload:
    preset: str
    methods: Tuple[str, ...]
    deltas: Tuple[float, ...]
    epsilons: Tuple[float, ...] = ()
    dims: Tuple[int, ...] = ()
    bounds: bool = False
    criteria: Callable = None  # cells -> list of failed-criterion messages

    def cli_args(self) -> list:
        """``podrom run`` arguments, without ``--seed`` and ``--out``."""
        args = [
            "--preset", self.preset,
            "--methods", ",".join(self.methods),
            "--deltas", ",".join(repr(d) for d in self.deltas),
        ]
        if self.epsilons:
            args += ["--epsilons", ",".join(repr(e) for e in self.epsilons)]
        if self.dims:
            args += ["--dims", ",".join(str(l) for l in self.dims)]
        if self.bounds:
            args.append("--bounds")
        return args + list(TOLERANCES)

    def rule_labels(self) -> list:
        # Cutoff rules come before fixed dimensions, as RunConfig orders them.
        return [f"eps={e:g}" for e in self.epsilons] + [f"l={l}" for l in self.dims]

    def cell_keys(self) -> list:
        """Cell keys in the order the sweep writes them."""
        return [
            f"{m} {d!r} {rule}"
            for m in self.methods
            for d in self.deltas
            for rule in self.rule_labels()
        ]


def _by_rule(cells, rule):
    return {(c["method"], c["delta"]): c for c in cells if c["rule"] == rule}


def _criteria_a(cells):
    problems = []
    for cell in cells:
        if cell["rule"].startswith("eps=") and not cell["bound_ok"]:
            problems.append(f"04: bound below error in {cell['key']}")
    tight = _by_rule(cells, "eps=1e-15")
    loose = _by_rule(cells, "eps=0.1")
    deltas = sorted({d for _, d in tight}, reverse=True)
    for delta in deltas:
        if not tight[("Z", delta)]["max_error"] < tight[("Y", delta)]["max_error"]:
            problems.append(f"05: Z does not beat Y at delta={delta!r}")
    maxima = [loose[("Y", d)]["max_error"] for d in deltas]
    if not max(maxima) / min(maxima) < 3.0:
        problems.append("06: eps=0.1 Y error moves by 3x or more across spacings")
    return problems


def _errors_by_method(cells, rule):
    return {c["method"]: c["max_error"] for c in cells if c["rule"] == rule}


def _criteria_b(cells):
    problems = []
    low = _errors_by_method(cells, "l=5")
    if not max(low.values()) / min(low.values()) < 3.0:
        problems.append("07: Y and Z differ by 3x or more at l=5")
    high = _errors_by_method(cells, "l=25")
    if not high["Z"] < high["Y"]:
        problems.append("07: Z does not beat Y at l=25")
    return problems


def _no_criteria(cells):
    return []


WORKLOADS = {
    "a_bounds": Workload(
        "A", ("Y", "Z"), (0.01, 0.005), epsilons=(1e-15, 1e-1), bounds=True,
        criteria=_criteria_a,
    ),
    "b_crossover": Workload(
        "B", ("Y", "Z"), (0.04,), dims=(5, 25), criteria=_criteria_b
    ),
}

# Seconds-long configuration for the harness self-test; not a benchmark workload.
SELFTEST = Workload("A", ("Y",), (0.01,), dims=(5,), criteria=_no_criteria)

ALL = dict(WORKLOADS, selftest=SELFTEST)


# --- artifacts -----------------------------------------------------------

def _log10_value(text: str) -> float:
    return 0.0 if text == "-inf" else 10.0 ** float(text)


def _curves(path: str, value_key: str) -> list:
    """Rows of a per-cell CSV, split into one list per cell.

    Every cell's curve starts at t = 0, which marks the cell boundaries.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    curves = []
    for row in rows:
        t = float(row["t"])
        if t == 0.0 or not curves:
            curves.append([])
        curves[-1].append((t, _log10_value(row[value_key]), row))
    return curves


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def summarize(out_dir: str, workload: Workload) -> dict:
    """Cells, ranks, digests and sizes of one sweep's CSV artifacts."""
    curves = _curves(os.path.join(out_dir, "errors.csv"), "log10_err")
    bound_path = os.path.join(out_dir, "bounds.csv")
    bounds = _curves(bound_path, "log10_bound") if os.path.exists(bound_path) else []
    keys = workload.cell_keys()
    cells = []
    for index, curve in enumerate(curves):
        first = curve[0][2]
        t_peak, error, _ = max(curve, key=lambda point: point[1])
        bound_ok = False
        if index < len(bounds) and len(bounds[index]) == len(curve):
            bound_ok = all(
                bt == et and bv >= ev
                for (bt, bv, _), (et, ev, _) in zip(bounds[index], curve)
            )
        cells.append({
            "key": keys[index] if index < len(keys) else f"extra {index}",
            "rule": keys[index].split()[-1] if index < len(keys) else "",
            "method": first["method"],
            "delta": float(first["delta"]),
            "l": int(first["l"]),
            "sigma_next": float(first["sigma_next"]),
            "max_error": error,
            "peak_t": t_peak,
            "bound_ok": bound_ok,
        })
    ranks = {}
    with open(os.path.join(out_dir, "spectra.csv"), encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            key = f"{row['method']} {float(row['delta'])!r}"
            ranks[key] = ranks.get(key, 0) + 1
    csv_bytes = sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir)
        if name.endswith(".csv")
    )
    return {
        "cells": cells,
        "ranks": ranks,
        "digests": {name: _digest(os.path.join(out_dir, name)) for name in DIGESTED},
        "csv_bytes": csv_bytes,
    }


# --- correctness check ---------------------------------------------------

def check_sweep(sweep: dict, reference: dict, workload: Workload) -> Tuple[int, list]:
    """Failed cell count and problem list of one sweep against the reference.

    Sweep-level faults (exit code, cell layout, ranks, criteria) fail every
    cell of the sweep; a wrong l or max error fails that cell alone.  Cells
    with l above the numerical rank are checked for l only: their extra
    basis columns are an arbitrary orthonormal completion.
    """
    expected = workload.cell_keys()
    total = len(expected)
    if sweep.get("exit_code") != 0:
        return total, [f"exit code {sweep.get('exit_code')!r}: {sweep.get('error', '')}"]
    cells = sweep["cells"]
    layout = [(c["key"], c["method"], c["delta"]) for c in cells]
    wanted = [(k, k.split()[0], float(k.split()[1])) for k in expected]
    if layout != wanted:
        return total, [f"cell layout {[c['key'] for c in cells]} != {expected}"]
    if sweep["ranks"] != reference["ranks"]:
        return total, [f"ranks {sweep['ranks']} != reference {reference['ranks']}"]
    criteria = workload.criteria(cells)
    if criteria:
        return total, criteria
    failed = 0
    problems = []
    for cell, ref in zip(cells, reference["cells"]):
        rank = reference["ranks"][f"{cell['method']} {cell['delta']!r}"]
        if cell["l"] != ref["l"]:
            failed += 1
            problems.append(f"{cell['key']}: l={cell['l']} != reference {ref['l']}")
        elif ref["l"] <= rank and not math.isclose(
            cell["max_error"], ref["max_error"], rel_tol=MAX_ERROR_RTOL, abs_tol=0.0
        ):
            failed += 1
            problems.append(
                f"{cell['key']}: max error {cell['max_error']!r} != reference "
                f"{ref['max_error']!r}"
            )
    return failed, problems


def reference_entry(workload: Workload, sweep: dict) -> dict:
    """What ``reference.json`` stores for one workload."""
    return {
        "args": workload.cli_args(),
        "ranks": sweep["ranks"],
        "cells": [
            {k: c[k] for k in ("key", "l", "sigma_next", "max_error", "peak_t")}
            for c in sweep["cells"]
        ],
        "digests": sweep["digests"],
    }
