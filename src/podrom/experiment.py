"""Experiment driver: the sweep over a (method, spacing, rule) grid.

One shared high-accuracy reference solve per run, a snapshot matrix and
its SVD per (method, spacing), a reduced solve per cell, and optional
a-priori bound curves, with one set of bound constants per spacing
(``bounds.bound_constants`` picks their route).  No stage draws random
numbers, so a run's outputs depend on its configuration alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .bounds import BoundConstants, BoundCurve, bound_constants, method1_bound, method2_bound
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
    "RunConfig",
    "CellResult",
    "CellFailure",
    "RunReport",
    "run_experiment",
    "run_spectra",
]

# Failure kinds that stay confined to one grid cell.
_CELL_ERRORS = (InvalidInputError, ConvergenceError, StiffnessError, RhsEvaluationError)

# Points of the evaluation grid, on which every error and bound curve is
# sampled: uniform on [0, T], both ends included.
EVAL_GRID_SIZE = 400

# Dense trajectory samples per snapshot interval for the bound constants;
# the sampled route's third differences need at least 5 per interval.
_BOUND_SAMPLES_PER_INTERVAL = 64


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on.

    Exactly the grid cells (method, delta, rule) are produced, in that loop order.
    Repeated methods and spacings are dropped; repeated rules are kept and
    share their reduced solve.
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
        if not rules:
            raise InvalidInputError("at least one truncation rule is required")
        for rule in rules:
            if not isinstance(rule, TruncationRule):
                raise InvalidInputError(f"rules must be TruncationRule instances, got {rule!r}")
        object.__setattr__(self, "rules", rules)

        for name in ("rel_tol", "abs_tol"):
            tol = float(getattr(self, name))
            if not (tol > 0.0 and math.isfinite(tol)):
                raise InvalidInputError(f"{name} must be positive and finite, got {tol!r}")
            object.__setattr__(self, name, tol)

    @classmethod
    def for_preset(
        cls,
        preset_id: str,
        deltas: Optional[Tuple[float, ...]] = None,
        epsilons: Optional[Tuple[float, ...]] = None,
        dims: Optional[Tuple[int, ...]] = None,
        **kwargs,
    ) -> "RunConfig":
        """Build a config from a bundled preset, optionally overriding its schedule.

        When neither ``epsilons`` nor ``dims`` is given the preset's full rule
        schedule (all cutoffs, then all fixed dimensions) is used; giving
        either replaces the schedule with exactly the rules named.  Other
        keywords, ``methods`` among them, are ``RunConfig`` fields.
        """
        spec = preset(preset_id)
        if epsilons is None and dims is None:
            epsilons, dims = spec.epsilon_list, spec.l_list
        return cls(
            params=spec.params,
            final_time=spec.T,
            deltas=spec.delta_list if deltas is None else deltas,
            rules=tuple(TruncationRule.cutoff(e) for e in epsilons or ())
            + tuple(TruncationRule.fixed(l) for l in dims or ()),
            **kwargs,
        )


@dataclass(frozen=True)
class CellResult:
    """One populated grid cell: its truncation, error curve and optional bound."""

    method: str
    delta: float
    rule: TruncationRule
    l: int
    sigma_next: float
    curve: ErrorCurve
    bound: Optional[BoundCurve] = None

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

    ``factorizations`` maps (method, delta) to the SVD of that snapshot
    matrix, with its numerical rank and Jacobi work.  ``timings`` holds
    wall-clock seconds per stage.  ``counters`` holds only the work the
    report cannot show otherwise (a run makes one truth solve).  The
    integrator's work counters (``step_attempts``, ``rejected_steps``)
    appear with the prefix ``fom_`` for the truth solve and ``rom_`` summed
    over the fresh reduced solves (cache hits add nothing); a reduced solve
    that is exact in time, as on preset A, adds 0 to them.
    """

    cells: Tuple[CellResult, ...]
    failures: Tuple[CellFailure, ...]
    factorizations: Dict[Tuple[str, float], SvdResult]
    timings: Dict[str, float]
    counters: Dict[str, int]
    eval_times: np.ndarray
    config: RunConfig

    @property
    def cell_count(self) -> int:
        return len(self.cells)


def _grid_intervals(horizon: float, delta: float) -> int:
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


_WORK_COUNTERS = ("step_attempts", "rejected_steps")


def _add_work(counters: Dict[str, int], prefix: str, trajectory: Trajectory) -> None:
    """Add an integrated trajectory's work counters under ``prefix``."""
    for name in _WORK_COUNTERS:
        counters[prefix + name] += getattr(trajectory, name)


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
    counters = {
        "rom_solves": 0,
        "rom_cache_hits": 0,
        **{prefix + name: 0 for prefix in ("fom_", "rom_") for name in _WORK_COUNTERS},
    }

    system = build_fhn(config.params)
    n = config.params.dimension
    x0 = np.zeros(n)
    horizon = config.final_time

    eval_times = _uniform_grid(horizon, EVAL_GRID_SIZE - 1)
    snap_grids = {
        delta: _uniform_grid(horizon, _grid_intervals(horizon, delta))
        for delta in config.deltas
    }
    dense_grids: Dict[float, np.ndarray] = {}
    if config.evaluate_bounds:
        dense_grids = {
            delta: _uniform_grid(
                horizon, _BOUND_SAMPLES_PER_INTERVAL * _grid_intervals(horizon, delta)
            )
            for delta in config.deltas
        }

    union = reduce(
        np.union1d, list(snap_grids.values()) + list(dense_grids.values()), eval_times
    )

    start = time.perf_counter()
    fom = integrate(system, x0, 0.0, config.rel_tol, config.abs_tol, union)
    _add_work(counters, "fom_", fom)
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


def _factorize(config: RunConfig, ctx: _RunContext) -> Dict[Tuple[str, float], SvdResult]:
    svds: Dict[Tuple[str, float], SvdResult] = {}
    for method in config.methods:
        for delta in config.deltas:
            start = time.perf_counter()
            matrix = build_snapshot_matrix(ctx.snapshots[delta], method)
            svds[(method, delta)] = svd_one_sided_jacobi(matrix)
            ctx.timer.add("svd", start)
    return svds


def _finish_report(
    config: RunConfig,
    ctx: _RunContext,
    svds: Dict[Tuple[str, float], SvdResult],
    total_start: float,
    cells=(),
    failures=(),
) -> RunReport:
    """The report of a finished run, its total time added."""
    ctx.timer.add("total", total_start)
    return RunReport(
        cells=tuple(cells),
        failures=tuple(failures),
        factorizations=svds,
        timings=dict(ctx.timer.totals),
        counters=dict(ctx.counters),
        eval_times=ctx.eval_times,
        config=config,
    )


def run_spectra(config: RunConfig) -> RunReport:
    """The truth solve and the factorizations only: a report without cells.

    The config's rules are not used.
    """
    total_start = time.perf_counter()
    ctx = _prepare(config)
    return _finish_report(config, ctx, _factorize(config, ctx), total_start)


def run_experiment(config: RunConfig) -> RunReport:
    """Run the full sweep and collect every cell (or its failure record).

    The truth trajectory is integrated once on the union of the evaluation
    grid, all snapshot grids, and (with bounds on) the dense sampling grids;
    every later stage slices it.  A cell failure is recorded with its stage
    and message and the remaining cells still run.
    """
    total_start = time.perf_counter()

    ctx = _prepare(config)
    svds = _factorize(config, ctx)
    constants: Dict[float, BoundConstants] = {}
    if config.evaluate_bounds:
        start = time.perf_counter()
        constants = {
            delta: bound_constants(ctx.system, ctx.dense_trajectories[delta], snaps.times)
            for delta, snaps in ctx.snapshots.items()
        }
        ctx.timer.add("constants", start)

    cells = []
    failures = []
    curve_cache: Dict[Tuple[str, float, int], ErrorCurve] = {}
    for method in config.methods:
        for delta in config.deltas:
            for rule in config.rules:
                stage = "basis"
                try:
                    basis = truncate_basis(svds[(method, delta)], rule)

                    stage = "rom"
                    cache_key = (method, delta, basis.l)
                    curve = curve_cache.get(cache_key)
                    if curve is None:
                        start = time.perf_counter()
                        lifted = solve_rom_lifted(
                            ctx.system, basis, ctx.x0, ctx.eval_times,
                            config.rel_tol, config.abs_tol,
                        )
                        ctx.counters["rom_solves"] += 1
                        _add_work(ctx.counters, "rom_", lifted)
                        ctx.timer.add("rom", start)

                        stage = "error"
                        curve = curve_cache[cache_key] = error_curve(ctx.fom_eval, lifted)
                    else:
                        ctx.counters["rom_cache_hits"] += 1

                    bound = None
                    if config.evaluate_bounds:
                        stage = "bound"
                        start = time.perf_counter()
                        bound_of = method1_bound if method == "Y" else method2_bound
                        bound = bound_of(basis.sigma_next, constants[delta], ctx.eval_times)
                        ctx.timer.add("bounds", start)

                    cells.append(
                        CellResult(
                            method=method,
                            delta=delta,
                            rule=rule,
                            l=basis.l,
                            sigma_next=basis.sigma_next,
                            curve=curve,
                            bound=bound,
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
