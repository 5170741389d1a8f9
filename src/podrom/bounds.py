"""A-priori error bounds for snapshot-based reduced models.

Two interpolation operators (piecewise linear, piecewise cubic Hermite)
drive two bound families evaluated per snapshot interval:

    solution-only basis:     [2 s + Psi_i Delta_i^2 / 8] exp(Lambda t)
    with-derivative basis:   [s (59/54 + c Delta_i) + Delta_i^4 Phi_i / 384]
                             exp(Lambda t)

with s the first discarded singular value.  The coefficient c is 8/27 by
default; a "literal" variant with 4/27 is kept switchable because the two
published forms of the with-derivative bound disagree by that factor of
two, and the larger coefficient is the conservative choice.

Constants come from the system's ``RhsStructure``: exactly from the linear
operator A when the cubic is off (Lambda = ||A||_2), and otherwise from
the exact Jacobian J(x) = A + diag(g'(x)) sampled along a dense reference
trajectory (Lambda = max ||J||_2, Psi = max ||J f + B s'||).  Every
spectral norm is LAPACK's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix
from .ode import OdeSystem, Trajectory, sample_rhs
from .pod import SnapshotSet

__all__ = [
    "BoundConstants",
    "BoundCurve",
    "lagrange_piecewise",
    "hermite_piecewise",
    "linear_bound_constants",
    "sampled_bound_constants",
    "method1_bound",
    "method2_bound",
]

PROVENANCES = ("linear_exact", "sampled_estimate", "user_supplied")

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

    ``lambda_`` bounds the Jacobian norm, ``psi``/``phi`` bound the first
    and third time derivative of f along the solution, ``theta`` the
    solution norm; ``provenance`` records how they were obtained.
    """

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
        arrays = {}
        for name in ("psi", "phi", "theta"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise InvalidInputError(f"{name} must be a nonempty 1-D array")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise InvalidInputError(f"{name} entries must be finite and >= 0")
            arrays[name] = arr
        if not (arrays["psi"].size == arrays["phi"].size == arrays["theta"].size):
            raise InvalidInputError("psi, phi, and theta must have equal length")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"provenance must be one of {PROVENANCES}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def interval_count(self) -> int:
        return int(self.psi.size)


@dataclass(frozen=True)
class BoundCurve:
    """Bound values on an evaluation grid; ``saturated`` marks capped values."""

    times: np.ndarray
    values: np.ndarray
    method_tag: str
    saturated: bool = False

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise InvalidInputError("times and values must be 1-D of equal length")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InvalidInputError("bound values must be finite and >= 0")
        if self.method_tag not in ("Y", "Z"):
            raise InvalidInputError(f"method_tag must be 'Y' or 'Z', got {self.method_tag!r}")
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
    s = (t - times[i]) / snapshots.spacings[i]
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
    delta = snapshots.spacings[i]
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


def _validate_snapshot_times(snapshot_times) -> np.ndarray:
    times = np.array(snapshot_times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise InvalidInputError("snapshot_times must be 1-D with at least two entries")
    if not np.all(np.isfinite(times)):
        raise InvalidInputError("snapshot_times contains non-finite entries")
    if not np.all(np.diff(times) > 0.0):
        raise InvalidInputError("snapshot_times must be strictly increasing")
    return times


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
    times = _validate_snapshot_times(snapshot_times)
    slices = _interval_slices(fom.times, times, 2)
    # LAPACK's sigma_1 is exact for some A + E with ||E|| of order n eps ||A||,
    # and sigma_1 moves by at most ||E|| (Weyl), so the pad keeps Lambda at
    # or above the true sigma_1(A).
    lam = float(np.linalg.norm(matrix, 2)) * (1.0 + matrix.shape[0] * _EPS)
    theta = _interval_max(np.linalg.norm(fom.states, axis=1), slices)
    return BoundConstants(
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
    if system.dimension != fom.dimension:
        raise InvalidInputError(
            f"system dimension {system.dimension} does not match trajectory "
            f"dimension {fom.dimension}"
        )
    structure = system.structure
    if structure is None:
        raise InvalidInputError("sampled bound constants need a system with a structure")
    times = _validate_snapshot_times(snapshot_times)
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
        lambda_=lam,
        psi=psi,
        phi=phi,
        theta=theta,
        provenance="sampled_estimate",
    )


def _evaluate_bound(
    prefactors: np.ndarray,
    lam: float,
    snapshot_times: np.ndarray,
    eval_times: np.ndarray,
    tag: str,
) -> BoundCurve:
    intervals = _bracket_indices(snapshot_times, eval_times)
    args = lam * eval_times
    clamped = args > _EXP_ARG_CAP
    pref = prefactors[intervals]
    # overflow to inf is fine here; the cap right below turns it into 1e300
    with np.errstate(over="ignore"):
        raw = pref * np.exp(np.minimum(args, _EXP_ARG_CAP))
    over = raw > _VALUE_CAP
    values = np.minimum(raw, _VALUE_CAP)
    saturated = bool(np.any((clamped & (pref > 0.0)) | over))
    return BoundCurve(
        times=eval_times.copy(), values=values, method_tag=tag, saturated=saturated
    )


def _validate_bound_inputs(
    sigma_next: float, constants: BoundConstants, snapshot_times, eval_times
) -> Tuple[float, np.ndarray, np.ndarray]:
    sigma = float(sigma_next)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise InvalidInputError(f"sigma_next must be finite and >= 0, got {sigma_next!r}")
    times = _validate_snapshot_times(snapshot_times)
    if constants.interval_count != times.size - 1:
        raise InvalidInputError(
            f"constants cover {constants.interval_count} intervals, "
            f"snapshot grid has {times.size - 1}"
        )
    evals = np.array(eval_times, dtype=float)
    if evals.ndim != 1 or evals.size == 0:
        raise InvalidInputError("eval_times must be a nonempty 1-D array")
    if not np.all(np.isfinite(evals)):
        raise InvalidInputError("eval_times contains non-finite entries")
    if np.min(evals) < times[0] or np.max(evals) > times[-1]:
        raise InvalidInputError("eval_times must lie within the snapshot range")
    return sigma, times, evals


def method1_bound(
    sigma_next: float, constants: BoundConstants, snapshot_times, eval_times
) -> BoundCurve:
    """Bound for the solution-only basis: [2 s + Psi_i Delta_i^2 / 8] exp(Lambda t)."""
    sigma, times, evals = _validate_bound_inputs(
        sigma_next, constants, snapshot_times, eval_times
    )
    deltas = np.diff(times)
    prefactors = 2.0 * sigma + constants.psi * deltas**2 / 8.0
    return _evaluate_bound(prefactors, constants.lambda_, times, evals, "Y")


def method2_bound(
    sigma_next: float,
    constants: BoundConstants,
    snapshot_times,
    eval_times,
    variant: str = "consistent",
) -> BoundCurve:
    """Bound for the with-derivative basis.

    [s (59/54 + c Delta_i) + Delta_i^4 Phi_i / 384] exp(Lambda t), where
    c = 8/27 for the default "consistent" variant and 4/27 for "literal"
    (the smaller published coefficient, kept for comparison).
    """
    if variant not in ("consistent", "literal"):
        raise InvalidInputError(f"variant must be 'consistent' or 'literal', got {variant!r}")
    sigma, times, evals = _validate_bound_inputs(
        sigma_next, constants, snapshot_times, eval_times
    )
    coefficient = 8.0 / 27.0 if variant == "consistent" else 4.0 / 27.0
    deltas = np.diff(times)
    prefactors = (
        sigma * (59.0 / 54.0 + coefficient * deltas) + deltas**4 * constants.phi / 384.0
    )
    return _evaluate_bound(prefactors, constants.lambda_, times, evals, "Z")
