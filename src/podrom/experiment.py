"""Experiment driver: the sweep over a (method, spacing, rule) grid.

One shared high-accuracy reference solve per run, a snapshot matrix and
its SVD per (method, spacing), a reduced solve per cell, and optional
a-priori bound curves, with one set of bound constants per spacing
(``bounds.interval_reader`` picks their route, as ``bound_constants``
does).  No stage draws random
numbers, so a run's outputs depend on its configuration alone.  The
paper's three experiments are bundled as ``preset`` A, B and C.

The truth solve runs at the configured tolerances.  A reduced solve that
goes through DP5 runs at them times k = max(1, f rho / rel_tol), with
f = ``FLOOR_FRACTION`` and rho the cell's relative projection error on the
evaluation grid: the lifted error e = (I - U U^T) x + U (U^T x - z) is at
least ||(I - U U^T) x|| at every time, so an integration error a thousandth
of that floor does not show in it.  An exact flow takes no tolerance.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .bounds import BoundConstants, BoundCurve, interval_reader, method1_bound, method2_bound
from .errors import InvalidInputError, PodromError
from .fhn import FhnParams, Waveform, build_fhn
from .linalg import SvdResult, svd_one_sided_jacobi
from .ode import MAX_STEP_ATTEMPTS, Trajectory, integrate
from .pod import (
    METHODS,
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
    "EVAL_GRID_SIZE",
    "FLOOR_FRACTION",
    "RunConfig",
    "preset",
    "CellResult",
    "CellFailure",
    "RunReport",
    "run_experiment",
]

# Points of the evaluation grid, on which every error and bound curve is
# sampled: uniform on [0, T], both ends included.
EVAL_GRID_SIZE = 400

# Dense trajectory samples per snapshot interval for the bound constants;
# the sampled route's third differences need at least 5 per interval.
_BOUND_SAMPLES_PER_INTERVAL = 64

# f: a DP5 reduced solve's tolerances grow until its relative tolerance is
# f times the cell's relative projection error, a floor under its error.
FLOOR_FRACTION = 1e-3


def _grid_intervals(horizon: float, delta: float) -> int:
    if not float(delta) > 0.0:
        raise InvalidInputError(f"delta must be positive, got {delta!r}")
    ratio = horizon / float(delta)
    # The truth solve lands a step on every grid point, so a finer grid could
    # only end in ConvergenceError.
    if ratio > MAX_STEP_ATTEMPTS:
        raise InvalidInputError(
            f"delta {delta!r} gives more snapshot intervals than the {MAX_STEP_ATTEMPTS} "
            "steps a solve may attempt"
        )
    count = round(ratio)
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise InvalidInputError(
            f"delta {delta!r} does not divide the time horizon {horizon!r}"
        )
    return int(count)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on.

    Exactly the grid cells (method, delta, rule) are produced, in that loop order.
    Repeated methods, spacings and rules are dropped.  A config without rules
    is a spectra-only run: the truth solve and the factorizations, no cells.
    """

    params: FhnParams
    final_time: float
    methods: Tuple[str, ...] = METHODS
    deltas: Tuple[float, ...] = ()
    rules: Tuple[TruncationRule, ...] = ()
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    evaluate_bounds: bool = False

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

        deltas = tuple(dict.fromkeys(float(d) for d in self.deltas))
        if not deltas:
            raise InvalidInputError("deltas must be nonempty")
        for delta in deltas:
            _grid_intervals(horizon, delta)
        object.__setattr__(self, "deltas", deltas)

        rules = tuple(self.rules)
        for rule in rules:
            if not isinstance(rule, TruncationRule):
                raise InvalidInputError(f"rules must be TruncationRule instances, got {rule!r}")
        object.__setattr__(self, "rules", tuple(dict.fromkeys(rules)))

        for name in ("rel_tol", "abs_tol"):
            tol = float(getattr(self, name))
            if not (tol > 0.0 and math.isfinite(tol)):
                raise InvalidInputError(f"{name} must be positive and finite, got {tol!r}")
            object.__setattr__(self, name, tol)


def _schedule(epsilons: Tuple[float, ...], dims: Tuple[int, ...]) -> Tuple[TruncationRule, ...]:
    """The cutoff rules, then the fixed-dimension rules."""
    return (*map(TruncationRule.cutoff, epsilons), *map(TruncationRule.fixed, dims))


# Preset B's coefficients; preset C runs them over a ten times longer horizon.
_PARAMS_B = FhnParams(
    L=200, X=10.0, D1=5.0, D2=1.0, lam=2.0, a=0.1, mu=1.0, gamma=5.0,
    I0=Waveform.sin_squared(1.5), IX=Waveform.sin_squared(0.5),
)

# The paper's three experiments, each with its full schedule.
_PRESETS = {
    "A": RunConfig(
        # The cubic reaction is switched off (lam = 0); a is inert here.
        params=FhnParams(
            L=200, X=10.0, D1=15.0, D2=10.0, lam=0.0, a=0.1, mu=10.0, gamma=5.0,
            I0=Waveform.constant(1.0), IX=Waveform.constant(5.0),
        ),
        final_time=0.5,
        deltas=(0.01, 0.005, 0.0025),
        rules=_schedule((1e-15, 1e-9, 1e-1), (5, 10, 15, 20, 35, 50)),
    ),
    "B": RunConfig(
        params=_PARAMS_B,
        final_time=2.0,
        deltas=(0.04, 0.02, 0.01),
        rules=_schedule((1e-15, 1e-7, 1e-4), (5, 20, 25, 50)),
    ),
    "C": RunConfig(
        params=_PARAMS_B,
        final_time=20.0,
        deltas=(0.5, 1.0, 2.0),
        rules=_schedule((1e-15, 1e-7, 1e-4), (5, 10, 15, 20, 25, 30, 35, 40)),
    ),
}


def preset(
    preset_id: str,
    deltas: Optional[Tuple[float, ...]] = None,
    epsilons: Optional[Tuple[float, ...]] = None,
    dims: Optional[Tuple[int, ...]] = None,
    **fields,
) -> RunConfig:
    """One of the three bundled experiments (A, B, or C), optionally overridden.

    When neither ``epsilons`` nor ``dims`` is given the preset's full rule
    schedule (all cutoffs, then all fixed dimensions) is used; giving
    either replaces the schedule with exactly the rules named (none, for a
    spectra-only run, when both are empty).  ``deltas`` replaces the
    spacings, and other keywords, ``methods`` among them, are ``RunConfig``
    fields.
    """
    config = _PRESETS.get(str(preset_id).strip().upper())
    if config is None:
        raise InvalidInputError(f"unknown preset {preset_id!r}, expected A, B, or C")
    if epsilons is not None or dims is not None:
        fields["rules"] = _schedule(epsilons or (), dims or ())
    if deltas is not None:
        fields["deltas"] = deltas
    return replace(config, **fields)


@dataclass(frozen=True)
class CellResult:
    """One populated grid cell: its truncation, error curve and optional bound.

    ``rom_rel_tol`` is the relative tolerance its reduced solve ran at, the
    run's own times the cell's ``_tolerance_scale``, or None for an exact flow.
    """

    method: str
    delta: float
    rule: TruncationRule
    l: int
    sigma_next: float
    curve: ErrorCurve
    bound: Optional[BoundCurve] = None
    rom_rel_tol: Optional[float] = None

    @property
    def max_error(self) -> float:
        return self.curve.max_norm


@dataclass(frozen=True)
class CellFailure:
    """Record of a grid cell that could not be populated."""

    method: str
    delta: float
    rule: TruncationRule
    stage: str
    message: str


@dataclass
class RunReport:
    """Everything a finished run produced, cell by cell.

    ``snapshots`` maps each delta to the ``SnapshotSet`` sliced from the
    truth solve, and ``factorizations`` maps (method, delta) to the SVD of
    the snapshot matrix built from it, with its numerical rank and Jacobi
    work.  ``timings`` holds wall-clock seconds per stage that ran without
    raising, in the order fom, snapshots, constants, svd, rom, bounds,
    total.  ``counters``
    holds only the work the report cannot show otherwise (a run makes one
    truth solve).  The integrator's work counters (``step_attempts``,
    ``rejected_steps``) appear with the prefix ``fom_`` for the truth solve
    and ``rom_`` summed over the fresh reduced solves (cache hits add
    nothing); a reduced solve that is exact in time, as on preset A, adds 0
    to them.
    """

    cells: Tuple[CellResult, ...]
    failures: Tuple[CellFailure, ...]
    snapshots: Dict[float, SnapshotSet]
    factorizations: Dict[Tuple[str, float], SvdResult]
    timings: Dict[str, float]
    counters: Dict[str, int]
    config: RunConfig


def _uniform_grid(horizon: float, intervals: int) -> np.ndarray:
    # (T * k) / D keeps shared points of nested refinements bit-identical,
    # which is what lets every subgrid be sliced out of the union grid.
    return (horizon * np.arange(intervals + 1)) / intervals


def _restrict(fom: Trajectory, grid: np.ndarray) -> Trajectory:
    """A copy of the samples of ``fom`` on ``grid``, whose points must all be on its grid."""
    return Trajectory(times=grid, states=fom.states[fom.rows(grid)])


_WORK_COUNTERS = ("step_attempts", "rejected_steps")


def _add_work(counters: Dict[str, int], prefix: str, trajectory: Trajectory) -> None:
    """Add an integrated trajectory's work counters under ``prefix``."""
    for name in _WORK_COUNTERS:
        counters[prefix + name] += getattr(trajectory, name)


def _largest_row_norm(rows: np.ndarray) -> float:
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", rows, rows))))


def _projection_floor(states: np.ndarray, vectors: np.ndarray, peak: float) -> float:
    """rho = max_t ||x(t) - U U^T x(t)|| / peak over the rows x(t) of ``states``.

    ``peak`` is the largest norm of those rows.  The residual is formed in
    one temporary of the states' size: U U^T x - x, not ||x||^2 - ||U^T x||^2,
    which cancels to noise when rho is small.
    """
    residual = (states @ vectors) @ vectors.T
    residual -= states
    return _largest_row_norm(residual) / peak if peak > 0.0 else 0.0


def _tolerance_scale(rho: float, rel_tol: float) -> float:
    """k = max(1, f rho / rel_tol), by which a DP5 reduced solve loosens the truth's tolerances."""
    return max(1.0, FLOOR_FRACTION * rho / rel_tol)


@contextmanager
def _timed(timings: Dict[str, float], stage: str):
    """Add the block's wall-clock seconds to ``timings[stage]``; a block that raises adds none."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - start)


def run_experiment(config: RunConfig) -> RunReport:
    """Run the full sweep and collect every cell (or its failure record).

    The truth trajectory is integrated once on the union of the evaluation
    grid, all snapshot grids, and (with bounds on) the dense sampling grids,
    and stores only its rows on the evaluation and snapshot grids: the
    states on each spacing's dense grid go to that spacing's
    ``bounds.interval_reader`` as the solve lands on them, and are folded
    into the bound constants one snapshot interval at a time.  A cell
    failure is recorded with its stage and message and the remaining cells
    still run.  A config without rules gives the truth solve, the snapshot
    sets and the factorizations only.  A fresh reduced solve through DP5
    runs at the config's tolerances times its cell's ``_tolerance_scale``
    (see the module docstring); an exact flow computes no floor.
    """
    start = time.perf_counter()
    timings: Dict[str, float] = {}
    counters = {
        "rom_solves": 0,
        "rom_cache_hits": 0,
        **{prefix + name: 0 for prefix in ("fom_", "rom_") for name in _WORK_COUNTERS},
    }

    system = build_fhn(config.params)
    x0 = np.zeros(system.dimension)
    horizon = config.final_time
    eval_times = _uniform_grid(horizon, EVAL_GRID_SIZE - 1)
    snap_grids = {
        delta: _uniform_grid(horizon, _grid_intervals(horizon, delta))
        for delta in config.deltas
    }
    readers = {}
    if config.evaluate_bounds:
        readers = {
            delta: interval_reader(
                system,
                grid,
                _uniform_grid(horizon, _BOUND_SAMPLES_PER_INTERVAL * (grid.size - 1)),
            )
            for delta, grid in snap_grids.items()
        }
    kept = reduce(np.union1d, snap_grids.values(), eval_times)
    union = reduce(np.union1d, [reader.sample_times for reader in readers.values()], kept)

    def marks(grid: np.ndarray) -> list:
        """Per union row, whether its time is a point of ``grid``."""
        on_grid = [False] * union.size
        for index in np.searchsorted(union, grid).tolist():
            on_grid[index] = True
        return on_grid

    feeds = [(marks(reader.sample_times), reader.take) for reader in readers.values()]
    kept_rows = dict(zip(np.searchsorted(union, kept).tolist(), range(kept.size)))
    states = np.empty((kept.size, system.dimension))

    def sink(index: int, state: np.ndarray) -> None:
        for on_grid, take in feeds:
            if on_grid[index]:
                take(state)
        row = kept_rows.get(index)
        if row is not None:
            states[row] = state

    with _timed(timings, "fom"):
        # with a sink, the trajectory returned holds only the last state
        end = integrate(system, x0, config.rel_tol, config.abs_tol, union, sink=sink)
        _add_work(counters, "fom_", end)
    fom = Trajectory(times=kept, states=states)

    with _timed(timings, "snapshots"):
        snapshots = {
            delta: collect_snapshots(system, _restrict(fom, grid))
            for delta, grid in snap_grids.items()
        }
    fom_eval = _restrict(fom, eval_times)

    constants: Dict[float, BoundConstants] = {}
    if config.evaluate_bounds:
        with _timed(timings, "constants"):
            constants = {delta: reader.constants() for delta, reader in readers.items()}
    # the kept truth lives on in its copies: free it before the SVDs
    del end, fom, states

    svds: Dict[Tuple[str, float], SvdResult] = {}
    for method in config.methods:
        for delta in config.deltas:
            with _timed(timings, "svd"):
                matrix = build_snapshot_matrix(snapshots[delta], method)
                svds[(method, delta)] = svd_one_sided_jacobi(matrix)

    # an exact flow takes no tolerance, so only a DP5 reduced solve needs the floor
    exact_flow = system.structure.linear_time_invariant
    peak = 0.0 if exact_flow else _largest_row_norm(fom_eval.states)

    cells = []
    failures = []
    # (method, delta, l) -> the error curve and the relative tolerance it was solved at
    curve_cache: Dict[Tuple[str, float, int], Tuple[ErrorCurve, Optional[float]]] = {}
    for method in config.methods:
        for delta in config.deltas:
            for rule in config.rules:
                stage = "basis"
                try:
                    basis = truncate_basis(svds[(method, delta)], rule)

                    stage = "rom"
                    cache_key = (method, delta, basis.l)
                    cached = curve_cache.get(cache_key)
                    if cached is None:
                        with _timed(timings, "rom"):
                            rel_tol, abs_tol = config.rel_tol, config.abs_tol
                            if not exact_flow:
                                rho = _projection_floor(
                                    fom_eval.states, basis.reduced_vectors, peak
                                )
                                scale = _tolerance_scale(rho, rel_tol)
                                rel_tol, abs_tol = scale * rel_tol, scale * abs_tol
                            lifted = solve_rom_lifted(
                                system, basis, x0, fom_eval.times, rel_tol, abs_tol
                            )
                            counters["rom_solves"] += 1
                            _add_work(counters, "rom_", lifted)

                        stage = "error"
                        cached = curve_cache[cache_key] = (
                            error_curve(fom_eval, lifted), None if exact_flow else rel_tol
                        )
                    else:
                        counters["rom_cache_hits"] += 1
                    curve, rom_rel_tol = cached

                    bound = None
                    if config.evaluate_bounds:
                        stage = "bound"
                        bound_of = method1_bound if method == "Y" else method2_bound
                        with _timed(timings, "bounds"):
                            bound = bound_of(basis.sigma_next, constants[delta], fom_eval.times)

                    cells.append(
                        CellResult(
                            method=method,
                            delta=delta,
                            rule=rule,
                            l=basis.l,
                            sigma_next=basis.sigma_next,
                            curve=curve,
                            bound=bound,
                            rom_rel_tol=rom_rel_tol,
                        )
                    )
                except PodromError as err:
                    failures.append(
                        CellFailure(
                            method=method,
                            delta=delta,
                            rule=rule,
                            stage=stage,
                            message=str(err),
                        )
                    )

    timings["total"] = time.perf_counter() - start
    return RunReport(
        cells=tuple(cells),
        failures=tuple(failures),
        snapshots=snapshots,
        factorizations=svds,
        timings=timings,
        counters=counters,
        config=config,
    )
