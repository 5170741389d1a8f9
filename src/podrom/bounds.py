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
spectral norm is LAPACK's.  Either route folds the trajectory's samples
one snapshot interval at a time, in an ``IntervalReader`` that takes them
in time order, so a truth solve can feed it as it lands on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, as_real_array, as_time_grid, read_only
from .ode import OdeSystem, Trajectory, sample_rhs
from .pod import SnapshotSet

__all__ = [
    "BoundConstants",
    "BoundCurve",
    "IntervalReader",
    "lagrange_piecewise",
    "hermite_piecewise",
    "bound_constants",
    "interval_reader",
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
            f"t = {t!r} outside the snapshot range [{float(times[0])!r}, {float(times[-1])!r}]"
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


class IntervalReader:
    """Bound constants folded from a truth's states as they arrive, in time order.

    ``interval_reader`` builds one on a snapshot grid and a sample grid and
    checks both up front: the snapshot grid lies within the sample grid and
    each of its intervals holds enough samples, ends included.
    ``take(state)`` hands it the state at the next point of
    ``sample_times``; a state at a snapshot time on the sample grid belongs
    to both intervals that share it.  The reader holds one interval's
    states in a C-ordered block and folds the block into that interval's
    constants as its last sample arrives, so the truth need never be
    stored.  Once every sample is taken, ``constants()`` gives the
    ``BoundConstants``.
    """

    # samples an interval needs, its ends included
    _min_count = 2

    def __init__(self, dimension: int, snapshot_times, sample_times) -> None:
        times = as_time_grid(snapshot_times, "snapshot_times", 2)
        grid = as_time_grid(sample_times, "sample_times")
        if times[0] < grid[0] or times[-1] > grid[-1]:
            raise InvalidInputError("snapshot_times extend beyond the sample grid")
        # first sample at or after each snapshot time; one past the last at or
        # before it, so a snapshot time on the grid belongs to both its intervals
        first = np.searchsorted(grid, times)
        stop = first + (grid[first] == times)
        counts = stop[1:] - first[:-1]
        short = np.flatnonzero(counts < self._min_count)
        if short.size:
            i = int(short[0])
            raise InvalidInputError(
                f"interval [{float(times[i])!r}, {float(times[i + 1])!r}] holds "
                f"{counts[i]} trajectory samples, need at least {self._min_count}"
            )
        self.dimension = dimension
        self.snapshot_times = times
        self.sample_times = grid
        self._theta = np.empty(times.size - 1)
        self._starts = first[:-1].tolist()
        self._stops = stop[1:].tolist()
        self._block = np.empty((int(np.max(counts)), dimension))
        self._taken = 0
        self._open = 0

    def take(self, state: np.ndarray) -> None:
        """Take the state at the next sample time, copying what the reader keeps."""
        if state.shape != (self.dimension,):
            raise InvalidInputError(
                f"state has shape {state.shape}, the reader takes ({self.dimension},)"
            )
        index = self._taken
        if index == self.sample_times.size:
            raise InvalidInputError("every sample has been taken")
        self._taken = index + 1
        self._keep(index, state)
        pos = self._open
        if pos == len(self._starts) or index < self._starts[pos]:
            return
        start = self._starts[pos]
        self._block[index - start] = state
        stop = index + 1
        if stop == self._stops[pos]:
            self._fold(pos, self.sample_times[start:stop], self._block[: stop - start])
            self._open = pos + 1
            # a snapshot time on the grid also opens the next interval
            if self._open < len(self._starts) and self._starts[self._open] == index:
                self._block[0] = state

    def constants(self) -> BoundConstants:
        """The constants, once every sample is taken (``InvalidInputError`` before)."""
        if self._taken < self.sample_times.size:
            raise InvalidInputError(
                f"{self._taken} of {self.sample_times.size} samples taken"
            )
        return self._constants()

    def _keep(self, index: int, state: np.ndarray) -> None:
        """Keep what ``constants`` needs of the sample at ``index`` beyond its interval."""

    def _fold(self, pos: int, times: np.ndarray, states: np.ndarray) -> None:
        """Fold interval ``pos``'s samples, a C-ordered block of states at ``times``."""
        self._theta[pos] = float(np.max(np.linalg.norm(states, axis=1)))

    def _constants(self) -> BoundConstants:
        raise NotImplementedError


class _LinearReader(IntervalReader):
    """``linear_bound_constants``' route: theta_i per interval, the rest from
    sigma_1(A) = ``norm()``, asked for only when the constants are."""

    def __init__(
        self, dimension: int, snapshot_times, sample_times, norm: Callable[[], float]
    ) -> None:
        super().__init__(dimension, snapshot_times, sample_times)
        self._norm = norm

    def _constants(self) -> BoundConstants:
        # LAPACK's sigma_1 is exact for some A + E with ||E|| of order n eps ||A||,
        # and sigma_1 moves by at most ||E|| (Weyl), so the pad keeps Lambda at
        # or above the true sigma_1(A).
        lam = self._norm() * (1.0 + self.dimension * _EPS)
        return BoundConstants(
            snapshot_times=self.snapshot_times,
            lambda_=lam,
            psi=lam * self._theta,
            phi=lam**3 * self._theta,
            theta=self._theta,
            provenance="linear_exact",
        )


class _SampledReader(IntervalReader):
    """``sampled_bound_constants``' route: theta_i, Psi_i and Phi_i per interval,
    and the states Lambda's Jacobians are taken at."""

    _min_count = 5

    def __init__(self, system: OdeSystem, snapshot_times, sample_times) -> None:
        if system.structure is None:
            raise InvalidInputError("sampled bound constants need a system with a structure")
        super().__init__(system.dimension, snapshot_times, sample_times)
        self._system = system
        grid = self.sample_times
        times = self.snapshot_times
        self._mean_h = []
        for pos, (start, stop) in enumerate(zip(self._starts, self._stops)):
            spacings = np.diff(grid[start:stop])
            mean_h = float(np.mean(spacings))
            if float(np.max(np.abs(spacings - mean_h))) > 1e-9 * mean_h:
                raise InvalidInputError(
                    "third-derivative estimation needs a uniform sample grid "
                    f"inside [{float(times[pos])!r}, {float(times[pos + 1])!r}]"
                )
            self._mean_h.append(mean_h)
        self._psi = np.empty(times.size - 1)
        self._phi = np.empty(times.size - 1)
        size = grid.size
        count = min(_JACOBIAN_SAMPLES, size)
        self._picks = set(np.unique(np.linspace(0, size - 1, count).astype(int)).tolist())
        self._picked = []

    def _keep(self, index: int, state: np.ndarray) -> None:
        if index in self._picks:
            self._picked.append(np.array(state))

    def _fold(self, pos: int, times: np.ndarray, states: np.ndarray) -> None:
        super()._fold(pos, times, states)
        structure = self._system.structure
        local = Trajectory(times=times, states=states)
        # n x k and C-ordered, so the axis-0 sums below add the rows in
        # order and give the bits a copy of the rows would
        f_block = sample_rhs(self._system, local)

        k = times.size
        rates = np.array([structure.forcing_rates(float(t)) for t in times], dtype=float)
        # with no forcing vectors the block is 0 x k
        rates = np.ascontiguousarray(rates.reshape(k, -1).T)
        slopes = structure.apply_jacobian(local.states.T, f_block)
        slopes += structure.forcing_vectors @ rates
        self._psi[pos] = float(np.max(np.linalg.norm(slopes, axis=0)))

        mean_h = self._mean_h[pos]
        third = (
            -f_block[:, :-4] + 2.0 * f_block[:, 1:-3] - 2.0 * f_block[:, 3:-1] + f_block[:, 4:]
        ) / (2.0 * mean_h**3)
        self._phi[pos] = float(np.max(np.sqrt(np.sum(third * third, axis=0))))

    def _constants(self) -> BoundConstants:
        structure = self._system.structure
        n = self.dimension
        identity = np.eye(n)
        lam = 0.0
        for state in self._picked:
            at_sample = np.broadcast_to(state[:, None], (n, n))
            jacobian = structure.apply_jacobian(at_sample, identity)
            lam = max(lam, float(np.linalg.norm(jacobian, 2)))
        return BoundConstants(
            snapshot_times=self.snapshot_times,
            lambda_=lam,
            psi=self._psi,
            phi=self._phi,
            theta=self._theta,
            provenance="sampled_estimate",
        )


def _affine(system: OdeSystem) -> bool:
    """Whether ``system`` takes the exact route: its structure is affine."""
    return system.structure is not None and system.structure.affine


def _linear_operator(system: OdeSystem) -> np.ndarray:
    """A, the structure's linear operator applied to the identity."""
    return system.structure.apply_linear(np.eye(system.dimension))


def interval_reader(system: OdeSystem, snapshot_times, sample_times) -> IntervalReader:
    """The ``IntervalReader`` of ``system``'s route, as ``bound_constants`` picks it.

    Its ``constants()`` are those of ``linear_bound_constants`` on A when
    the system's structure is ``affine`` and of ``sampled_bound_constants``
    otherwise, bit for bit, once it has taken the truth's states at every
    point of ``sample_times``.
    """
    if _affine(system):
        structure = system.structure
        return _LinearReader(
            system.dimension, snapshot_times, sample_times, lambda: structure.linear_norm
        )
    return _SampledReader(system, snapshot_times, sample_times)


def _read(reader: IntervalReader, fom: Trajectory) -> BoundConstants:
    """The reader's constants from the rows of ``fom`` at its sample times, fed one by one."""
    for row in fom.rows(reader.sample_times).tolist():
        reader.take(fom.states[row])
    return reader.constants()


def bound_constants(
    system: OdeSystem, fom: Trajectory, snapshot_times, sample_times
) -> BoundConstants:
    """Bound constants of ``system`` along ``fom``, per interval of ``snapshot_times``.

    The constants are taken over the samples of ``fom`` at ``sample_times``,
    each of which must be a time of ``fom`` (``InvalidInputError``
    otherwise).  The rows are fed in time order, without a copy of them
    all, to the route's ``IntervalReader``, so ``fom`` may be a truth on a
    finer grid.  The exact route (``linear_bound_constants``) is
    taken when the system's structure is ``affine``, with A the structure's
    linear operator applied to the identity.  Any other system takes the
    sampled route (``sampled_bound_constants``), which raises
    ``InvalidInputError`` for a system without a structure.
    """
    if _affine(system):
        return linear_bound_constants(_linear_operator(system), fom, snapshot_times, sample_times)
    return sampled_bound_constants(system, fom, snapshot_times, sample_times)


def linear_bound_constants(
    A, fom: Trajectory, snapshot_times, sample_times
) -> BoundConstants:
    """Exact constants for x' = A x + b(t).

    Lambda is the largest singular value of A, padded for rounding; theta_i
    the max solution norm over the interval's samples of ``fom`` at
    ``sample_times``, Psi_i = Lambda theta_i, Phi_i = Lambda^3 theta_i.
    """
    matrix = as_matrix(A, "A")
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"A must be square, got shape {matrix.shape}")
    if matrix.shape[0] != fom.dimension:
        raise InvalidInputError(
            f"A dimension {matrix.shape[0]} does not match trajectory "
            f"dimension {fom.dimension}"
        )
    reader = _LinearReader(
        matrix.shape[0], snapshot_times, sample_times, lambda: float(np.linalg.norm(matrix, 2))
    )
    return _read(reader, fom)


def sampled_bound_constants(
    system: OdeSystem, fom: Trajectory, snapshot_times, sample_times
) -> BoundConstants:
    """Bound constants from the exact Jacobian, sampled along a trajectory.

    The samples are those of ``fom`` at ``sample_times``.  The system must
    carry an ``RhsStructure``; J(x) is its ``apply_jacobian``.  All values
    are maxima over finitely many samples, so they are heuristic lower
    approximations of the true suprema:

    - Psi_i: max over the interval's samples of ||d/dt f|| =
      ||J(x) f + B s'(t)||, with s' the structure's forcing rates.
    - Phi_i: third central differences of the sampled f columns, which
      requires a uniform sample grid of at least 5 points per interval.
    - Lambda: the largest ||J(x)||_2 (LAPACK) over a thinned set of
      trajectory samples.

    One interval's samples are evaluated at a time, so an endpoint shared
    by two intervals is evaluated in both.
    """
    return _read(_SampledReader(system, snapshot_times, sample_times), fom)


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
