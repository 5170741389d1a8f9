"""Initial value problem integration with exact landing on output times.

The driver is an adaptive embedded Runge-Kutta 5(4) pair (Dormand-Prince
coefficients) with proportional-integral step control and first-same-as-last
stage reuse.  Integration steps are truncated so that every requested output
time is hit exactly by a step endpoint; states are never interpolated, and a
solve runs from t = 0 to its last output time.

A linear time-invariant system x' = K x + c is also solved exactly in time
(``affine_flow``): one matrix exponential per distinct interval length, with
no step control.  A helper evaluates the right-hand side along a stored
trajectory (used for derivative snapshots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidInputError, RhsEvaluationError, StiffnessError
from .linalg import as_matrix, as_time_grid, as_vector, expm, read_only

__all__ = [
    "RhsStructure",
    "OdeSystem",
    "Trajectory",
    "affine_flow",
    "integrate",
    "sample_rhs",
]


@dataclass(frozen=True)
class RhsStructure:
    """Split f(t, x) = A x + g(x) + sum_k b_k s_k(t) of a right-hand side.

    ``apply_linear`` applies A to a state vector or, column by column, to an
    n x k block.  The elementwise cubic g acts on the rows ``cubic_rows``
    only: with v = x[cubic_rows], g puts scale * v^2 (v - root) there and
    zero elsewhere, with scale = ``cubic_scale`` and root = ``cubic_root``.
    The forcing is the n x k matrix ``forcing_vectors`` times the k values
    of ``forcing_signals(t)``, one per column; ``forcing_rates(t)`` gives
    their time derivatives, in the same order.  Each is one callable
    ``t -> k values``, so a right-hand-side call evaluates all signals at
    once.  Both are checked once, at t = 0, for k finite values.
    ``forcing_constant`` states that no signal varies in time, so that
    ``forcing_signals(0)`` holds for every t; the rates at t = 0 must then
    be zero.
    """

    apply_linear: Callable[[np.ndarray], np.ndarray]
    cubic_rows: slice
    cubic_scale: float
    cubic_root: float
    forcing_vectors: np.ndarray
    forcing_signals: Callable[[float], Sequence[float]]
    forcing_rates: Callable[[float], Sequence[float]]
    forcing_constant: bool = False

    def __post_init__(self) -> None:
        if not callable(self.apply_linear):
            raise InvalidInputError("apply_linear must be callable")
        if not isinstance(self.cubic_rows, slice):
            raise InvalidInputError("cubic_rows must be a slice")
        for name in ("cubic_scale", "cubic_root"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        vectors = np.array(self.forcing_vectors, dtype=float)
        if vectors.ndim != 2 or not np.all(np.isfinite(vectors)):
            raise InvalidInputError("forcing_vectors must be a finite 2-D array")
        object.__setattr__(self, "forcing_vectors", vectors)
        k = vectors.shape[1]
        for name in ("forcing_signals", "forcing_rates"):
            func = getattr(self, name)
            if not callable(func):
                raise InvalidInputError(f"{name} must be callable")
            values = np.asarray(func(0.0), dtype=float)
            if values.shape != (k,) or not np.all(np.isfinite(values)):
                raise InvalidInputError(
                    f"{name} must give {k} finite values, one per forcing vector; "
                    f"got {values.shape} at t=0"
                )
        object.__setattr__(self, "forcing_constant", bool(self.forcing_constant))
        if self.forcing_constant and np.any(np.asarray(self.forcing_rates(0.0)) != 0.0):
            raise InvalidInputError("a constant forcing must have zero rates")

    @property
    def affine(self) -> bool:
        """Whether the cubic is off, so that f(t, x) = A x + B s(t)."""
        return self.cubic_scale == 0.0

    @property
    def linear_time_invariant(self) -> bool:
        """Whether f(t, x) = A x + b with a fixed b: affine, constant forcing."""
        return self.affine and self.forcing_constant

    def apply_jacobian(self, x: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The Jacobian J(x) = A + diag(g'(x)) applied to ``directions``.

        g'(v) = scale * (3 v^2 - 2 root v) on the cubic rows and zero
        elsewhere.  ``x`` and ``directions`` have the same shape: one state
        and one direction, or n x m blocks whose column j is taken at the
        state in column j.
        """
        # a copy: apply_linear may hand back its argument
        out = np.array(self.apply_linear(directions), dtype=float)
        v = x[self.cubic_rows]
        slope = self.cubic_scale * (3.0 * v - 2.0 * self.cubic_root) * v
        out[self.cubic_rows] += slope * directions[self.cubic_rows]
        return out


@dataclass(frozen=True)
class OdeSystem:
    """First-order system x' = f(t, x) of a fixed dimension.

    Integration only ever calls ``rhs``.  The optional ``structure``
    describes the same f and never replaces it: it splits f into a linear
    operator, an elementwise cubic and a fixed-vector forcing
    (:class:`RhsStructure`), so that a Galerkin reduction can project each
    part once, offline.  When the structure is ``affine``, its linear
    operator gives the exact error-bound constants.

    The optional ``lift`` is an N x ``dimension`` matrix (N >= dimension)
    that maps a state into the space it stands for; a Galerkin reduced
    system carries its basis U here.  ``integrate`` then applies its error
    test to the lifted local error and state, so a reduced solve is held to
    the standard of the full solve it approximates.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    structure: Optional[RhsStructure] = None
    lift: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        dim = int(self.dimension)
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "dimension", dim)
        if not callable(self.rhs):
            raise InvalidInputError("rhs must be callable")
        if self.structure is not None:
            if not isinstance(self.structure, RhsStructure):
                raise InvalidInputError("structure must be an RhsStructure or None")
            if self.structure.forcing_vectors.shape[0] != dim:
                raise InvalidInputError(
                    f"forcing_vectors must have {dim} rows, "
                    f"got {self.structure.forcing_vectors.shape[0]}"
                )
            if len(range(dim)[self.structure.cubic_rows]) == 0:
                raise InvalidInputError("cubic_rows selects no state row")
        if self.lift is not None:
            lift = read_only(as_matrix(self.lift, "lift"))
            if lift.shape[1] != dim or lift.shape[0] < dim:
                raise InvalidInputError(
                    f"lift must have {dim} columns and at least {dim} rows, "
                    f"got shape {lift.shape}"
                )
            object.__setattr__(self, "lift", lift)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[i]`` is the state vector at ``times[i]``.

    The work counters are filled in by ``integrate``: trial steps
    attempted (accepted or rejected) and the rejected ones among them.  Such
    a solve makes 1 + 6 * ``step_attempts`` right-hand-side calls.  The
    counters stay 0 on a trajectory built any other way.
    ``times`` and ``states`` are kept as read-only views of the inputs, not
    copies.
    """

    times: np.ndarray
    states: np.ndarray
    step_attempts: int = 0
    rejected_steps: int = 0

    def __post_init__(self) -> None:
        times = read_only(as_time_grid(self.times))
        states = read_only(np.asarray(self.states, dtype=float))
        if states.ndim != 2 or states.shape[0] != times.size:
            raise InvalidInputError(
                f"states must be 2-D with one row per time, got shape {states.shape}"
            )
        if not np.all(np.isfinite(states)):
            raise InvalidInputError("states contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        for name in ("step_attempts", "rejected_steps"):
            count = int(getattr(self, name))
            if count < 0:
                raise InvalidInputError(f"{name} must be >= 0, got {count}")
            object.__setattr__(self, name, count)

    @property
    def dimension(self) -> int:
        return int(self.states.shape[1])


def _output_grid(output_times) -> np.ndarray:
    """A copy of the checked grid, which the trajectory keeps a view of; no time < 0."""
    out = as_time_grid(output_times, "output_times").copy()
    if out[0] < 0.0:
        raise InvalidInputError("output_times must be >= 0, the start of every solve")
    return out


def _checked_rhs(system: OdeSystem) -> Callable[[float, np.ndarray], np.ndarray]:
    """``system.rhs`` with its value made a float array and its shape checked."""
    rhs = system.rhs
    shape = (system.dimension,)
    asarray = np.asarray

    def eval_rhs(t: float, x: np.ndarray) -> np.ndarray:
        value = asarray(rhs(t, x), dtype=float)
        if value.shape != shape:
            raise InvalidInputError(f"rhs returned shape {value.shape}, expected {shape}")
        return value

    return eval_rhs


# Dormand-Prince 5(4) tableau.  The seventh stage sits at the step endpoint
# and doubles as the first stage of the following step (FSAL).
_RK_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_RK_A = (
    np.array([]),
    np.array([0.2]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array(
        [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0]
    ),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0]),
)
# Difference between the fifth- and fourth-order weight rows.
_RK_ERR = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)

# The work cap: hitting it raises, never returns a partial trajectory.  It
# sits far above the largest solve the presets run (preset C: about 132k
# truth steps and 186k reduced steps) and only guards against runaway.
MAX_STEP_ATTEMPTS = 10_000_000

_SAFETY = 0.9
_PI_ALPHA = 0.14
_PI_BETA = 0.08
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def integrate(
    system: OdeSystem,
    x0: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    output_times,
) -> Trajectory:
    """Integrate ``system`` from x(0) = ``x0`` to its last output time.

    The solve starts at t = 0 and ends at ``output_times[-1]``; no output
    time may be negative, and the grid [0.0] alone gives ``x0`` back with
    no step taken.  The returned trajectory holds exactly ``output_times``
    (bit-for-bit), the states the integrator produced there, and the work
    counters (``step_attempts``, ``rejected_steps``).  Steps are shortened so each
    output time coincides with a step endpoint.  The local error per step
    is controlled in a scaled RMS norm with per-component scale
    ``abs_tol + rel_tol * max(|x_old|, |x_new|)``; both tolerances must be
    positive and finite.  A system with a ``lift`` is measured in the
    lifted space: the norm runs over the components of ``lift @ error`` and
    the scale takes ``|lift @ x_old|`` and ``|lift @ x_new|``, so a reduced
    solve meets the full solve's test.

    Raises :class:`StiffnessError` when the controller drives the step below
    ``1e-14 * output_times[-1]`` (persistently failing trial steps end up
    here too), :class:`ConvergenceError` when ``MAX_STEP_ATTEMPTS`` trial
    steps (accepted or rejected) did not reach the last output time, and
    :class:`RhsEvaluationError` when the right-hand side is non-finite at
    the initial state.  Overflow in a trial step is not warned about: it
    gives a non-finite error norm, and the step is rejected.
    """
    rel_tol = float(rel_tol)
    abs_tol = float(abs_tol)
    if not all(math.isfinite(tol) and tol > 0.0 for tol in (rel_tol, abs_tol)):
        raise InvalidInputError("tolerances must be positive and finite")
    state = as_vector(x0, "x0")
    n = system.dimension
    if state.shape != (n,):
        raise InvalidInputError(f"x0 has length {state.size}, system dimension is {n}")
    out = _output_grid(output_times)
    span = float(out[-1])
    min_step = 1e-14 * span
    # Safety net for sub-ulp overshoot of an accumulating step endpoint.
    snap_tol = 32.0 * np.finfo(float).eps * max(span, 1.0)

    eval_rhs = _checked_rhs(system)
    stages = np.empty((7, n))
    stages[0] = eval_rhs(0.0, state)
    if not np.all(np.isfinite(stages[0])):
        raise RhsEvaluationError("rhs is not finite at t=0.0")

    states_out = np.empty((out.size, n))
    index = 0
    if out[0] == 0.0:
        states_out[0] = state
        index = 1

    t = 0.0
    h = 1e-6 * span
    prev_err = 1e-4
    just_rejected = False
    attempts = 0
    rejected = 0

    # Work buffers, written through ``out=``.  Each value is formed by the
    # same operations in the same order as the plain expression in the
    # comment beside it, so the results are bit-identical; every state that
    # reaches the rhs is a fresh array, so an rhs may keep its argument.
    # The scalar operands are 0-d float64 arrays, which numpy takes with
    # less per-call overhead than Python floats; h_step is copied into one
    # at each attempt.
    rel = np.array(rel_tol)
    absolute = np.array(abs_tol)
    step = np.empty(())
    combo = np.empty(n)
    # With a lift, the error test runs on its m lifted components.
    lift = system.lift
    if lift is None:
        m = n
        error = combo
        abs_state = np.abs(state)
    else:
        m = lift.shape[0]
        error = np.empty(m)
        abs_state = np.abs(lift @ state)
    scale = np.empty(m)
    abs_trial = np.empty(m)
    matmul = np.matmul
    multiply = np.multiply
    add = np.add
    inner_stages = [(i, _RK_C[i], _RK_A[i], stages[:i]) for i in range(1, 6)]
    first_six = stages[:6]

    # Overflow in a trial step makes err non-finite, which rejects the step.
    with np.errstate(over="ignore", invalid="ignore"):
        while index < out.size:
            target = float(out[index])
            remaining = target - t
            if remaining <= snap_tol:
                t = target
                states_out[index] = state
                index += 1
                continue
            if h < min_step:
                raise StiffnessError(f"step size underflow at t={t!r}", t=t)
            h_step = h if h < remaining else remaining
            if t + h_step == t:
                raise StiffnessError(f"step size below time resolution at t={t!r}", t=t)
            if attempts == MAX_STEP_ATTEMPTS:
                raise ConvergenceError(
                    f"integration reached the cap of {MAX_STEP_ATTEMPTS} step attempts "
                    f"at t={t!r}"
                )
            attempts += 1
            landing = h_step >= remaining
            step[()] = h_step

            for i, c_i, a_i, previous in inner_stages:
                # state + h_step * (_RK_A[i] @ stages[:i])
                matmul(a_i, previous, out=combo)
                multiply(combo, step, out=combo)
                stages[i] = eval_rhs(t + c_i * h_step, add(state, combo))
            # trial = state + h_step * (_RK_A[6] @ stages[:6])
            matmul(_RK_A[6], first_six, out=combo)
            multiply(combo, step, out=combo)
            trial = add(state, combo)
            t_end = target if landing else t + h_step
            stages[6] = eval_rhs(t_end, trial)

            # err = sqrt(mean((h_step * (_RK_ERR @ stages) / scale) ** 2)) with
            # scale = abs_tol + rel_tol * max(|state|, |trial|); np.mean is
            # np.add.reduce divided by the count, and |state| is the |trial|
            # of the step that accepted it.  With a lift, the error vector and
            # both states are multiplied by it first.
            matmul(_RK_ERR, stages, out=combo)
            multiply(combo, step, out=combo)
            if lift is None:
                np.abs(trial, out=abs_trial)
            else:
                matmul(lift, combo, out=error)
                matmul(lift, trial, out=abs_trial)
                np.abs(abs_trial, out=abs_trial)
            np.maximum(abs_state, abs_trial, out=scale)
            multiply(scale, rel, out=scale)
            add(scale, absolute, out=scale)
            np.divide(error, scale, out=error)
            multiply(error, error, out=error)
            err = math.sqrt(float(add.reduce(error)) / m)

            if not math.isfinite(err):
                h = h_step * _MIN_FACTOR
                just_rejected = True
                rejected += 1
                continue
            if err > 1.0:
                h = h_step * min(max(_SAFETY * err**-0.2, 0.1), 1.0)
                just_rejected = True
                rejected += 1
                continue

            state = trial
            abs_state, abs_trial = abs_trial, abs_state
            t = t_end
            stages[0] = stages[6]
            if landing:
                states_out[index] = state
                index += 1

            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err**-_PI_ALPHA * prev_err**_PI_BETA
                factor = min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
            if just_rejected:
                factor = min(factor, 1.0)
            just_rejected = False
            prev_err = max(err, 1e-10)
            h = h_step * factor

    return Trajectory(
        times=out,
        states=states_out,
        step_attempts=attempts,
        rejected_steps=rejected,
    )


def affine_flow(matrix, shift, x0, output_times) -> Trajectory:
    """Exact solution of x' = K x + c, x(0) = ``x0``, on ``output_times``.

    K is the square ``matrix`` and c the constant ``shift``.  No output
    time may be negative.  Each interval between consecutive times (the
    first starting at t = 0) of length h is
    one step x -> E x + F, where [E F; 0 1] = exp(h [K c; 0 0]) (Van Loan,
    IEEE Trans. Automat. Control 23(3), 1978).  One exponential is computed
    per distinct interval length, keyed by its exact float value; a uniform
    grid of computed times has only a few.  The trajectory holds exactly
    ``output_times`` and its work counters stay 0: nothing is controlled.

    Raises :class:`RhsEvaluationError` when the flow leaves float range
    (a non-finite step or state), and no trajectory is returned.
    """
    K = as_matrix(matrix, "matrix")
    n = K.shape[0]
    if K.shape != (n, n):
        raise InvalidInputError(f"matrix must be square, got shape {K.shape}")
    c = as_vector(shift, "shift")
    state = as_vector(x0, "x0")
    if c.shape != (n,) or state.shape != (n,):
        raise InvalidInputError(
            f"shift and x0 must have length {n}, got {c.size} and {state.size}"
        )
    out = _output_grid(output_times)

    generator = np.zeros((n + 1, n + 1))
    generator[:n, :n] = K
    generator[:n, n] = c
    steps = {}
    states = np.empty((out.size, n))
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, target in enumerate(out.tolist()):
            h = target - t
            if h > 0.0:
                step = steps.get(h)
                if step is None:
                    flow = expm(h * generator)
                    step = steps[h] = (flow[:n, :n].copy(), flow[:n, n].copy())
                state = step[0] @ state + step[1]
            states[i] = state
            t = target
    if not np.all(np.isfinite(states)):
        raise RhsEvaluationError("the affine flow left float range")
    return Trajectory(times=out, states=states)


def sample_rhs(system: OdeSystem, trajectory: Trajectory) -> np.ndarray:
    """Evaluate the right-hand side at every trajectory sample.

    Returns an n x m matrix whose column j is f(times[j], states[j]).
    """
    if trajectory.dimension != system.dimension:
        raise InvalidInputError(
            f"trajectory dimension {trajectory.dimension} does not match "
            f"system dimension {system.dimension}"
        )
    m = trajectory.times.size
    columns = np.empty((system.dimension, m))
    eval_rhs = _checked_rhs(system)
    for j in range(m):
        value = eval_rhs(float(trajectory.times[j]), trajectory.states[j])
        if not np.all(np.isfinite(value)):
            raise RhsEvaluationError(f"rhs is not finite at t={trajectory.times[j]!r}")
        columns[:, j] = value
    return columns
