"""A-priori error bounds for snapshot-based reduced models.

Two interpolation operators (piecewise linear, piecewise cubic Hermite)
drive two bound families evaluated per snapshot interval:

    solution-only basis:     [2 s + Psi_i Delta_i^2 / 8] exp(Lambda t)
    with-derivative basis:   [s (59/54 + c Delta_i) + Delta_i^4 Phi_i / 384]
                             exp(Lambda t)

with s the first discarded singular value and c = 8/27: the two published
forms of the with-derivative bound disagree on c by a factor of two, and
8/27 is the conservative one.

Constants carry the snapshot grid they were built on, with one Psi_i,
Phi_i and theta_i per interval, and a bound takes its Delta_i from that
grid.  They come from the system's ``RhsStructure``, and
``bound_constants`` picks the route: exactly from the linear operator A
when the structure is affine (Lambda = ||A||_2), and otherwise from the exact
Jacobian J(x) = A + diag(g'(x)) sampled along a dense reference
trajectory (Lambda = max ||J||_2, Psi = max ||J f + B s'||).  Every
spectral norm is LAPACK's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, as_real_array, as_time_grid, read_only
from .ode import OdeSystem, Trajectory, sample_rhs
from .pod import SnapshotSet

__all__ = [
    "BoundConstants",
    "BoundCurve",
    "lagrange_piecewise",
    "hermite_piecewise",
    "bound_constants",
    "linear_bound_constants",
    "sampled_bound_constants",
    "method1_bound",
    "method2_bound",
]

PROVENANCES = ("linear_exact", "sampled_estimate")

# The coefficient c of the with-derivative bound.
_C = 8.0 / 27.0

# exp arguments are clamped at ln(1e300) and bound values at 1e300; the
# curve carries a flag when either clamp fires.
_EXP_ARG_CAP = 690.0
_VALUE_CAP = 1e300

_EPS = float(np.finfo(float).eps)

# The sampled Lambda takes Jacobian norms at this many trajectory samples.
_JACOBIAN_SAMPLES = 9


@dataclass(frozen=True)
class BoundConstants:
    """Per-interval constants entering the bound formulas.

    ``snapshot_times`` is the grid they were built on, kept read-only, with
    one ``psi``, ``phi`` and ``theta`` entry per interval.  ``lambda_``
    bounds the Jacobian norm, ``psi``/``phi`` bound the first and third
    time derivative of f along the solution, ``theta`` the solution norm;
    ``provenance`` records how they were obtained.
    """

    snapshot_times: np.ndarray
    lambda_: float
    psi: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        lam = float(self.lambda_)
        if not (math.isfinite(lam) and lam >= 0.0):
            raise InvalidInputError(f"lambda_ must be finite and >= 0, got {self.lambda_!r}")
        object.__setattr__(self, "lambda_", lam)
        times = read_only(as_time_grid(self.snapshot_times, "snapshot_times", 2))
        object.__setattr__(self, "snapshot_times", times)
        for name in ("psi", "phi", "theta"):
            arr = as_real_array(getattr(self, name), name).copy()
            if arr.shape != (times.size - 1,):
                raise InvalidInputError(f"{name} needs one entry per snapshot interval")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise InvalidInputError(f"{name} entries must be finite and >= 0")
            object.__setattr__(self, name, arr)
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"provenance must be one of {PROVENANCES}")


@dataclass(frozen=True)
class BoundCurve:
    """Bound values on an evaluation grid; ``saturated`` marks capped values."""

    times: np.ndarray
    values: np.ndarray
    saturated: bool = False

    def __post_init__(self) -> None:
        times = read_only(as_time_grid(self.times))
        values = as_real_array(self.values, "values").copy()
        if values.shape != times.shape:
            raise InvalidInputError("times and values must be of equal length")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InvalidInputError("bound values must be finite and >= 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _bracket_indices(grid: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interval index i with grid[i] <= t <= grid[i+1], clamped at the ends."""
    idx = np.searchsorted(grid, t, side="right") - 1
    return np.clip(idx, 0, grid.size - 2)


def _check_range(times: np.ndarray, t: float) -> None:
    if not (times[0] <= t <= times[-1]):
        raise InvalidInputError(
            f"t = {t!r} outside the snapshot range [{times[0]!r}, {times[-1]!r}]"
        )


def lagrange_piecewise(snapshots: SnapshotSet, t: float) -> np.ndarray:
    """Piecewise-linear interpolant through the solution snapshots."""
    t = float(t)
    times = snapshots.times
    _check_range(times, t)
    i = int(_bracket_indices(times, np.asarray(t)))
    s = (t - times[i]) / (times[i + 1] - times[i])
    columns = snapshots.solution_columns
    return (1.0 - s) * columns[:, i] + s * columns[:, i + 1]


def hermite_piecewise(snapshots: SnapshotSet, t: float) -> np.ndarray:
    """Piecewise-cubic interpolant matching values and derivatives at the nodes."""
    if snapshots.derivative_columns is None:
        raise InvalidInputError("hermite interpolation requires derivative columns")
    t = float(t)
    times = snapshots.times
    _check_range(times, t)
    i = int(_bracket_indices(times, np.asarray(t)))
    delta = times[i + 1] - times[i]
    s = (t - times[i]) / delta
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    y = snapshots.solution_columns
    f = snapshots.derivative_columns
    return (
        h00 * y[:, i]
        + (h10 * delta) * f[:, i]
        + h01 * y[:, i + 1]
        + (h11 * delta) * f[:, i + 1]
    )


def _interval_max(values: np.ndarray, slices: List[Tuple[int, int]]) -> np.ndarray:
    return np.array([float(np.max(values[left:right])) for left, right in slices])


def _interval_slices(
    fom_times: np.ndarray, snapshot_times: np.ndarray, min_count: int
) -> List[Tuple[int, int]]:
    if snapshot_times[0] < fom_times[0] or snapshot_times[-1] > fom_times[-1]:
        raise InvalidInputError("snapshot_times extend beyond the trajectory range")
    slices = []
    for i in range(snapshot_times.size - 1):
        left = int(np.searchsorted(fom_times, snapshot_times[i], side="left"))
        right = int(np.searchsorted(fom_times, snapshot_times[i + 1], side="right"))
        if right - left < min_count:
            raise InvalidInputError(
                f"interval [{snapshot_times[i]!r}, {snapshot_times[i + 1]!r}] holds "
                f"{right - left} trajectory samples, need at least {min_count}"
            )
        slices.append((left, right))
    return slices


def bound_constants(system: OdeSystem, fom: Trajectory, snapshot_times) -> BoundConstants:
    """Bound constants of ``system`` along ``fom``, per interval of ``snapshot_times``.

    The exact route (``linear_bound_constants``) is taken when the system's
    structure is ``affine``, with A the structure's linear operator applied
    to the identity.  Any other system takes the sampled route
    (``sampled_bound_constants``), which raises ``InvalidInputError`` for a
    system without a structure.
    """
    structure = system.structure
    if structure is not None and structure.affine:
        matrix = structure.apply_linear(np.eye(system.dimension))
        return linear_bound_constants(matrix, fom, snapshot_times)
    return sampled_bound_constants(system, fom, snapshot_times)


def linear_bound_constants(A, fom: Trajectory, snapshot_times) -> BoundConstants:
    """Exact constants for x' = A x + b(t).

    Lambda is the largest singular value of A, padded for rounding; theta_i
    the max solution norm over the interval's trajectory samples,
    Psi_i = Lambda theta_i, Phi_i = Lambda^3 theta_i.
    """
    matrix = as_matrix(A, "A")
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"A must be square, got shape {matrix.shape}")
    if matrix.shape[0] != fom.dimension:
        raise InvalidInputError(
            f"A dimension {matrix.shape[0]} does not match trajectory "
            f"dimension {fom.dimension}"
        )
    times = as_time_grid(snapshot_times, "snapshot_times", 2)
    slices = _interval_slices(fom.times, times, 2)
    # LAPACK's sigma_1 is exact for some A + E with ||E|| of order n eps ||A||,
    # and sigma_1 moves by at most ||E|| (Weyl), so the pad keeps Lambda at
    # or above the true sigma_1(A).
    lam = float(np.linalg.norm(matrix, 2)) * (1.0 + matrix.shape[0] * _EPS)
    theta = _interval_max(np.linalg.norm(fom.states, axis=1), slices)
    return BoundConstants(
        snapshot_times=times,
        lambda_=lam,
        psi=lam * theta,
        phi=lam**3 * theta,
        theta=theta,
        provenance="linear_exact",
    )


def sampled_bound_constants(
    system: OdeSystem, fom: Trajectory, snapshot_times
) -> BoundConstants:
    """Bound constants from the exact Jacobian, sampled along a trajectory.

    The system must carry an ``RhsStructure``; J(x) is its
    ``apply_jacobian``.  All values are maxima over finitely many samples,
    so they are heuristic lower approximations of the true suprema:

    - Psi_i: max over the interval's samples of ||d/dt f|| =
      ||J(x) f + B s'(t)||, with s' the structure's forcing rates.
    - Phi_i: third central differences of the sampled f columns, which
      requires a uniform sample grid of at least 5 points per interval.
    - Lambda: the largest ||J(x)||_2 (LAPACK) over a thinned set of
      trajectory samples.
    """
    structure = system.structure
    if structure is None:
        raise InvalidInputError("sampled bound constants need a system with a structure")
    times = as_time_grid(snapshot_times, "snapshot_times", 2)
    slices = _interval_slices(fom.times, times, 5)

    f_columns = sample_rhs(system, fom)
    states = fom.states.T
    theta = _interval_max(np.linalg.norm(fom.states, axis=1), slices)

    m = fom.times.size
    rates = np.array([structure.forcing_rates(float(t)) for t in fom.times], dtype=float)
    # k x m and C-ordered, the layout the product has always been given;
    # with no forcing vectors the block is 0 x m
    rates = np.ascontiguousarray(rates.reshape(m, -1).T)
    slopes = structure.apply_jacobian(states, f_columns)
    slopes += structure.forcing_vectors @ rates
    psi = _interval_max(np.linalg.norm(slopes, axis=0), slices)

    phi = np.empty(len(slices))
    for pos, (left, right) in enumerate(slices):
        local_times = fom.times[left:right]
        spacings = np.diff(local_times)
        mean_h = float(np.mean(spacings))
        if float(np.max(np.abs(spacings - mean_h))) > 1e-9 * mean_h:
            raise InvalidInputError(
                "third-derivative estimation needs a uniform sample grid "
                f"inside [{times[pos]!r}, {times[pos + 1]!r}]"
            )
        block = f_columns[:, left:right]
        third = (
            -block[:, :-4] + 2.0 * block[:, 1:-3] - 2.0 * block[:, 3:-1] + block[:, 4:]
        ) / (2.0 * mean_h**3)
        phi[pos] = float(np.max(np.sqrt(np.sum(third * third, axis=0))))

    n = system.dimension
    sample_count = min(_JACOBIAN_SAMPLES, fom.times.size)
    picks = np.unique(np.linspace(0, fom.times.size - 1, sample_count).astype(int))
    identity = np.eye(n)
    lam = 0.0
    for idx in picks:
        at_sample = np.broadcast_to(states[:, idx : idx + 1], (n, n))
        jacobian = structure.apply_jacobian(at_sample, identity)
        lam = max(lam, float(np.linalg.norm(jacobian, 2)))

    return BoundConstants(
        snapshot_times=times,
        lambda_=lam,
        psi=psi,
        phi=phi,
        theta=theta,
        provenance="sampled_estimate",
    )


def _evaluate_bound(
    prefactors: np.ndarray, constants: BoundConstants, eval_times: np.ndarray
) -> BoundCurve:
    intervals = _bracket_indices(constants.snapshot_times, eval_times)
    args = constants.lambda_ * eval_times
    clamped = args > _EXP_ARG_CAP
    pref = prefactors[intervals]
    # overflow to inf is fine here; the cap right below turns it into 1e300
    with np.errstate(over="ignore"):
        raw = pref * np.exp(np.minimum(args, _EXP_ARG_CAP))
    over = raw > _VALUE_CAP
    values = np.minimum(raw, _VALUE_CAP)
    saturated = bool(np.any((clamped & (pref > 0.0)) | over))
    return BoundCurve(times=eval_times, values=values, saturated=saturated)


def _validate_bound_inputs(
    sigma_next: float, constants: BoundConstants, eval_times
) -> Tuple[float, np.ndarray]:
    sigma = float(sigma_next)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise InvalidInputError(f"sigma_next must be finite and >= 0, got {sigma_next!r}")
    times = constants.snapshot_times
    evals = as_time_grid(eval_times, "eval_times")
    if evals[0] < times[0] or evals[-1] > times[-1]:
        raise InvalidInputError("eval_times must lie within the snapshot range")
    return sigma, evals


def method1_bound(sigma_next: float, constants: BoundConstants, eval_times) -> BoundCurve:
    """Bound for the solution-only basis: [2 s + Psi_i Delta_i^2 / 8] exp(Lambda t)."""
    sigma, evals = _validate_bound_inputs(sigma_next, constants, eval_times)
    deltas = np.diff(constants.snapshot_times)
    prefactors = 2.0 * sigma + constants.psi * deltas**2 / 8.0
    return _evaluate_bound(prefactors, constants, evals)


def method2_bound(sigma_next: float, constants: BoundConstants, eval_times) -> BoundCurve:
    """Bound for the with-derivative basis.

    [s (59/54 + c Delta_i) + Delta_i^4 Phi_i / 384] exp(Lambda t), c = 8/27.
    """
    sigma, evals = _validate_bound_inputs(sigma_next, constants, eval_times)
    deltas = np.diff(constants.snapshot_times)
    prefactors = sigma * (59.0 / 54.0 + _C * deltas) + deltas**4 * constants.phi / 384.0
    return _evaluate_bound(prefactors, constants, evals)
