"""Initial value problem integration with exact landing on output times.

The driver is an adaptive embedded Runge-Kutta 5(4) pair (Dormand-Prince
coefficients) with proportional-integral step control and first-same-as-last
stage reuse.  Integration steps are truncated so that every requested output
time is hit exactly by a step endpoint; states are never interpolated, and a
solve runs from t = 0 to its last output time.

One step controller drives two kernels: ``integrate``'s, the truth kernel,
which calls a system's right-hand side, and ``integrate_galerkin``'s fused
stages for a Galerkin-reduced structured system, which never call one and
apply the full solve's error test to the lifted state U z.  That reduced
system is a :class:`GalerkinModel`, built once per basis U by
``RhsStructure.project(U)``; this module alone knows its block layout.

A linear time-invariant system x' = K x + c is also solved exactly in time
(``affine_flow``): one matrix exponential per distinct interval length, with
no step control.  A helper evaluates the right-hand side along a stored
trajectory (used for derivative snapshots).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, InvalidInputError, RhsEvaluationError, StiffnessError
from .linalg import as_matrix, as_real_array, as_time_grid, as_vector, expm, read_only

__all__ = [
    "RhsStructure",
    "GalerkinModel",
    "OdeSystem",
    "Trajectory",
    "affine_flow",
    "integrate",
    "integrate_galerkin",
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
        vectors = as_real_array(self.forcing_vectors, "forcing_vectors").copy()
        if vectors.ndim != 2 or not np.all(np.isfinite(vectors)):
            raise InvalidInputError("forcing_vectors must be a finite 2-D array")
        object.__setattr__(self, "forcing_vectors", vectors)
        k = vectors.shape[1]
        for name in ("forcing_signals", "forcing_rates"):
            func = getattr(self, name)
            if not callable(func):
                raise InvalidInputError(f"{name} must be callable")
            values = as_real_array(func(0.0), name)
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

    @cached_property
    def linear_norm(self) -> float:
        """sigma_1(A), LAPACK's spectral norm of A = ``apply_linear`` on the identity.

        Formed on first use and kept, so the bound constants of every
        snapshot grid of one system share one.
        """
        operator = self.apply_linear(np.eye(self.forcing_vectors.shape[0]))
        return float(np.linalg.norm(operator, 2))

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

    def project(self, vectors) -> GalerkinModel:
        """The Galerkin model z' = U^T f(t, U z) on the basis U = ``vectors``.

        U must be a finite n x l matrix with n >= l, n the number of rows
        of ``forcing_vectors``, and ``apply_linear(U)`` must give an n x l
        block; otherwise :class:`InvalidInputError` is raised.  A and B are
        projected here, once, and U is not checked to be orthonormal.
        """
        vectors = as_matrix(vectors, "basis")
        n, l = vectors.shape
        dimension = self.forcing_vectors.shape[0]
        if n != dimension:
            raise InvalidInputError(
                f"basis dimension {n} does not match structure dimension {dimension}"
            )
        if n < l:
            raise InvalidInputError("basis cannot have more columns than rows")
        applied = as_real_array(self.apply_linear(vectors), "apply_linear(basis)")
        if applied.shape != (n, l):
            raise InvalidInputError(
                f"apply_linear gave shape {applied.shape} for a basis of shape {(n, l)}"
            )
        rows = vectors[self.cubic_rows]
        if self.affine:
            rows = rows[:0]
        forcing = vectors.T @ self.forcing_vectors
        blocks = np.hstack((self.cubic_scale * rows.T, forcing, vectors.T @ applied))
        return GalerkinModel(self, vectors, rows, blocks)


@dataclass(frozen=True)
class GalerkinModel:
    """A structure's Galerkin model on one basis U: z' = M [r(R z); s(t); z].

    Built by :meth:`RhsStructure.project`, which checks that the parts fit.
    ``lift`` is U (n x l), ``rows`` is R = U_c, the p rows of U that the
    cubic acts on (none when the structure is affine), and ``blocks`` is the
    l x (p + k + l) matrix M = [scale U_c^T | U^T B | U^T A U], applied to
    the packed operand [r(v); s(t); z] with v = R z, r(v) = v^2 (v - root)
    elementwise and s(t) the k values of one ``forcing_signals(t)`` call.
    """

    structure: RhsStructure
    lift: np.ndarray
    rows: np.ndarray
    blocks: np.ndarray

    @property
    def linear(self) -> np.ndarray:
        """U^T A U, the last l columns of ``blocks`` (a view)."""
        return self.blocks[:, -self.lift.shape[1] :]

    @property
    def forcing(self) -> np.ndarray:
        """U^T B, the k columns of ``blocks`` between the first p and the last l (a view)."""
        return self.blocks[:, self.rows.shape[0] : -self.lift.shape[1]]

    def rhs(self, t: float, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """z' = M [r(R z); s(t); z], written into ``out`` (allocated when None) and returned."""
        v = self.rows @ z
        signals = self.structure.forcing_signals(t)
        operand = np.concatenate((v * v * (v - self.structure.cubic_root), signals, z))
        return np.matmul(self.blocks, operand, out=out)


@dataclass(frozen=True)
class OdeSystem:
    """First-order system x' = f(t, x) of a fixed dimension.

    ``rhs(t, x, out=None)`` writes f(t, x) into ``out``, an array of
    ``dimension`` floats, and returns ``out``; with ``out`` None it
    allocates the result, as numpy's ``out=`` does.  It must write every
    entry of ``out`` and leave ``x`` unchanged.  Integration only ever
    calls ``rhs``, and passes ``out`` positionally.  The optional ``structure``
    describes the same f and never replaces it: it splits f into a linear
    operator, an elementwise cubic and a fixed-vector forcing
    (:class:`RhsStructure`), so that a Galerkin reduction can project each
    part once, offline; a reduction needs it.  When the structure is
    ``affine``, its linear operator gives the exact error-bound constants.
    """

    dimension: int
    rhs: Callable[..., np.ndarray]
    structure: Optional[RhsStructure] = None

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


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[i]`` is the state vector at ``times[i]``.

    The work counters are filled in by ``integrate`` and
    ``integrate_galerkin``: trial steps attempted (accepted or rejected)
    and the rejected ones among them.  An ``integrate`` solve makes
    1 + 6 * ``step_attempts`` right-hand-side calls.  The counters stay 0
    on a trajectory built any other way.
    ``times`` and ``states`` are kept as read-only views of the inputs, not
    copies.
    """

    times: np.ndarray
    states: np.ndarray
    step_attempts: int = 0
    rejected_steps: int = 0

    def __post_init__(self) -> None:
        times = read_only(as_time_grid(self.times))
        states = read_only(as_real_array(self.states, "states"))
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

    def rows(self, times) -> np.ndarray:
        """Indices of the rows sampled at ``times``, a strictly increasing grid.

        Every point must be one of ``self.times``, bit for bit; otherwise
        :class:`InvalidInputError` is raised.
        """
        grid = as_time_grid(times, "times")
        idx = np.searchsorted(self.times, grid)
        if idx[-1] >= self.times.size or not np.array_equal(self.times[idx], grid):
            raise InvalidInputError("times are not all on the trajectory's grid")
        return idx


def _output_grid(output_times) -> np.ndarray:
    """A copy of the checked grid, which the trajectory keeps a view of; no time < 0."""
    out = as_time_grid(output_times, "output_times").copy()
    if out[0] < 0.0:
        raise InvalidInputError("output_times must be >= 0, the start of every solve")
    return out


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


def _drive_dp5(kernel, x0: np.ndarray, out: np.ndarray, emit) -> Tuple[int, int, np.ndarray]:
    """The one DP5 step controller: landing, step control, work cap and typed errors.

    ``x0`` is the initial state and ``out`` a grid checked by
    ``_output_grid``.  The controller shortens steps to land on every output
    time, accepts or rejects each attempt by its error norm, and picks the
    next step by PI control.  It hands the state at each output time to
    ``emit(index, state)``, in order, and returns the work counters
    (attempts, rejected) and the last state.  It raises what ``integrate``
    documents.

    The ``kernel`` (start, attempt, accept) does every vector operation on
    the state and stages it owns.  ``start()`` evaluates the first stage at
    x0 and t = 0 and says whether it is finite; ``attempt(t, h, t_end)``
    forms the trial step of length h from t to ``t_end`` (t + h, or the
    output time it lands on) and returns its scaled RMS error norm,
    non-finite when the trial overflowed; ``accept()`` makes the trial the
    state, reuses its last stage as the next first one, and returns the
    state, which ``emit`` must copy if the kernel reuses its memory.
    """
    start, attempt, accept = kernel
    span = float(out[-1])
    min_step = 1e-14 * span
    # Safety net for sub-ulp overshoot of an accumulating step endpoint.
    snap_tol = 32.0 * np.finfo(float).eps * max(span, 1.0)
    cap = MAX_STEP_ATTEMPTS

    state = x0
    index = 0
    t = 0.0
    h = 1e-6 * span
    prev_err = 1e-4
    just_rejected = False
    attempts = 0
    rejected = 0

    # Overflow in a trial step makes err non-finite, which rejects the step.
    with np.errstate(over="ignore", invalid="ignore"):
        if not start():
            raise RhsEvaluationError("rhs is not finite at t=0.0")
        if out[0] == 0.0:
            emit(0, state)
            index = 1
        while index < out.size:
            target = float(out[index])
            remaining = target - t
            if remaining <= snap_tol:
                t = target
                emit(index, state)
                index += 1
                continue
            if h < min_step:
                raise StiffnessError(f"step size underflow at t={t!r}", t=t)
            h_step = h if h < remaining else remaining
            if t + h_step == t:
                raise StiffnessError(f"step size below time resolution at t={t!r}", t=t)
            if attempts == cap:
                raise ConvergenceError(
                    f"integration reached the cap of {cap} step attempts at t={t!r}"
                )
            attempts += 1
            landing = h_step >= remaining
            t_end = target if landing else t + h_step
            err = attempt(t, h_step, t_end)

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

            state = accept()
            t = t_end
            if landing:
                emit(index, state)
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

    return attempts, rejected, state


def _stored(kernel, x0: np.ndarray, out: np.ndarray) -> Trajectory:
    """The trajectory of a ``_drive_dp5`` solve, every output state copied into one array."""
    states = np.empty((out.size, x0.size))
    attempts, rejected, _ = _drive_dp5(kernel, x0, out, states.__setitem__)
    return Trajectory(times=out, states=states, step_attempts=attempts, rejected_steps=rejected)


def _evaluate(rhs, t: float, x: np.ndarray, out: np.ndarray) -> None:
    """``rhs(t, x, out)``, checked to have returned ``out``, the array it writes."""
    if rhs(t, x, out) is not out:
        raise InvalidInputError("rhs must write f(t, x) into its out argument and return it")


def _checked_tolerances(rel_tol: float, abs_tol: float) -> Tuple[float, float]:
    """Both tolerances as floats, checked to be positive and finite."""
    rel_tol = float(rel_tol)
    abs_tol = float(abs_tol)
    if not all(math.isfinite(tol) and tol > 0.0 for tol in (rel_tol, abs_tol)):
        raise InvalidInputError("tolerances must be positive and finite")
    return rel_tol, abs_tol


def integrate(
    system: OdeSystem,
    x0: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    output_times,
    sink: Optional[Callable[[int, np.ndarray], None]] = None,
) -> Trajectory:
    """Integrate ``system`` from x(0) = ``x0`` to its last output time.

    The solve starts at t = 0 and ends at ``output_times[-1]``; no output
    time may be negative, and the grid [0.0] alone gives ``x0`` back with
    no step taken.  The returned trajectory holds exactly ``output_times``
    (bit-for-bit), the states the integrator produced there, and the work
    counters (``step_attempts``, ``rejected_steps``).

    With a ``sink``, no output state is stored: each is handed to
    ``sink(index, state)`` as the solve lands on ``output_times[index]``,
    once per index and in order, as a fresh array that the sink may keep,
    with the bits a solve without a sink stores.  The returned trajectory
    then holds only the last output time and state, and the same work
    counters.

    Steps are shortened so each output time coincides with a step
    endpoint.  The local error per step is controlled in a scaled RMS norm
    with per-component scale
    ``abs_tol + rel_tol * max(|x_old|, |x_new|)``; both tolerances must be
    positive and finite.  Each trial step calls ``system.rhs`` six times,
    ``rhs(t_i, x_i, out)``, with ``out`` the row of the stage array that
    holds that stage and each stage state x_i a fresh array, so an rhs may
    keep its argument; a call that returns anything but its ``out`` raises
    :class:`InvalidInputError`.  The step controller is the one
    ``integrate_galerkin`` runs too.

    Raises :class:`StiffnessError` when the controller drives the step below
    ``1e-14 * output_times[-1]`` (persistently failing trial steps end up
    here too), :class:`ConvergenceError` when ``MAX_STEP_ATTEMPTS`` trial
    steps (accepted or rejected) did not reach the last output time, and
    :class:`RhsEvaluationError` when the right-hand side is non-finite at
    the initial state.  Overflow in a trial step is not warned about: it
    gives a non-finite error norm, and the step is rejected.
    """
    rel_tol, abs_tol = _checked_tolerances(rel_tol, abs_tol)
    x0 = as_vector(x0, "x0")
    n = system.dimension
    if x0.shape != (n,):
        raise InvalidInputError(f"x0 has length {x0.size}, system dimension is {n}")
    out = _output_grid(output_times)
    state = trial = x0
    rhs = system.rhs
    stages = np.empty((7, n))
    first, *inner, last = stages

    # Work buffers, written through ``out=``.  Each value is formed by the
    # same operations in the same order as the plain expression in the
    # comment beside it, so the results are bit-identical; every state that
    # reaches the rhs is a fresh array, so an rhs may keep its argument.
    # The scalar operands are 0-d float64 arrays, which numpy takes with
    # less per-call overhead than Python floats; h_step is copied into one
    # at each attempt.  A tableau row's bound ``.dot`` runs the same gemv as
    # ``@`` on the stages at a third of the call overhead.
    rel = np.array(rel_tol)
    absolute = np.array(abs_tol)
    step = np.empty(())
    combo = np.empty(n)
    abs_state = np.abs(state)
    scale = np.empty(n)
    abs_trial = np.empty(n)
    multiply = np.multiply
    add = np.add
    inner_stages = [
        (_RK_C[i], _RK_A[i].dot, stages[:i], row) for i, row in enumerate(inner, start=1)
    ]
    first_six = stages[:6]

    def start() -> bool:
        _evaluate(rhs, 0.0, state, first)
        return bool(np.all(np.isfinite(first)))

    def attempt(t: float, h_step: float, t_end: float) -> float:
        nonlocal trial
        step[()] = h_step
        for c_i, a_i, previous, row in inner_stages:
            # stages[i] = rhs(t + c_i * h_step, state + h_step * (_RK_A[i] @ stages[:i]))
            a_i(previous, out=combo)
            multiply(combo, step, out=combo)
            _evaluate(rhs, t + c_i * h_step, add(state, combo), row)
        # trial = state + h_step * (_RK_A[6] @ stages[:6])
        _RK_A[6].dot(first_six, out=combo)
        multiply(combo, step, out=combo)
        trial = add(state, combo)
        _evaluate(rhs, t_end, trial, last)

        # err = sqrt(mean((h_step * (_RK_ERR @ stages) / scale) ** 2)) with
        # scale = abs_tol + rel_tol * max(|state|, |trial|); np.mean is
        # np.add.reduce divided by the count, and |state| is the |trial|
        # of the step that accepted it.
        _RK_ERR.dot(stages, out=combo)
        multiply(combo, step, out=combo)
        np.abs(trial, out=abs_trial)
        np.maximum(abs_state, abs_trial, out=scale)
        multiply(scale, rel, out=scale)
        add(scale, absolute, out=scale)
        np.divide(combo, scale, out=combo)
        multiply(combo, combo, out=combo)
        return math.sqrt(float(add.reduce(combo)) / n)

    def accept() -> np.ndarray:
        nonlocal state, abs_state, abs_trial
        state = trial
        abs_state, abs_trial = abs_trial, abs_state
        first[...] = last
        return state

    kernel = (start, attempt, accept)
    if sink is None:
        return _stored(kernel, x0, out)
    attempts, rejected, last = _drive_dp5(kernel, x0, out, sink)
    return Trajectory(
        times=out[-1:], states=last[None], step_attempts=attempts, rejected_steps=rejected
    )


# The tableau as rows over the stages [k_0; ...; k_6]: rows 0-4 form the
# inner stage states, row 5 the trial state and row 6 the error vector.
_STAGE_ROWS = np.array(
    [np.concatenate((_RK_A[i], np.zeros(7 - i))) for i in range(1, 7)] + [_RK_ERR]
)


def integrate_galerkin(
    model: GalerkinModel,
    z0: np.ndarray,
    rel_tol: float,
    abs_tol: float,
    output_times,
) -> Trajectory:
    """Integrate a Galerkin model, z' = M [r(R z); s(t); z], with fused DP5 stages.

    ``model`` is what ``RhsStructure.project`` builds on a basis U; ``z0``
    has one entry per column of U.  The solve runs under ``integrate``'s
    step controller, work counters and typed errors, and holds a reduced
    solve to the full solve's error test: the scaled RMS norm runs over the
    n components of U times the local error, with scale
    ``abs_tol + rel_tol * max(|U z_old|, |U z_new|)``.
    Each stage state is one product of the row [1, h a_i0, ..., h a_i,i-1]
    with the stacked [z; k_0; ...; k_{i-1}], written into the z-slot of the
    packed operand [r(R z_i); s(t_i); z_i], and each stage value one product
    of M with that operand.  The error vector and the trial state are
    lifted together by one 2 x l by l x n product.
    """
    rel_tol, abs_tol = _checked_tolerances(rel_tol, abs_tol)
    z = as_vector(z0, "z0")
    lift = model.lift
    m, l = lift.shape
    if z.shape != (l,):
        raise InvalidInputError(f"z0 has length {z.size}, the model has {l} unknowns")
    blocks = model.blocks
    p = model.rows.shape[0]
    k = blocks.shape[1] - p - l
    signals = model.structure.forcing_signals
    out = _output_grid(output_times)
    stacked = np.empty((8, l))
    stacked[0] = z
    z = stacked[0]
    # Row 1 is the packed operand [r(v); s(t); z_i]; row 0 holds the error
    # vector under the z-slot, so that the error and the trial state (the
    # last z_i) are one 2 x l view with a row stride.
    pair_rows = np.zeros((2, p + k + l))
    packed = pair_rows[1]
    cubic = packed[:p]
    slot = packed[p + k :]
    error = pair_rows[0, p + k :]
    pair = pair_rows[:, p + k :]
    v = np.empty(p)
    # R column-major: R z_i is a faster product that way, U^T row-major, so
    # that [error; trial] @ U^T is one product.
    rows = np.asfortranarray(model.rows)
    lift_rows = np.ascontiguousarray(lift.T)
    lifted = np.empty((2, m))
    lifted_error = lifted[0]
    lifted_trial = lifted[1]
    # [1, h * _STAGE_ROWS] over [z; k_0; ...; k_6]; h is set at each attempt,
    # and the error row (6) skips z's column.
    coefficients = np.ones((7, 8))
    scaled = coefficients[:, 1:]
    # (coefficient row's bound dot, the stacked rows it combines, node,
    # stage row written); the trial's node is None, as it is evaluated at t_end.
    stages = [
        (coefficients[i - 1, : i + 1].dot, stacked[: i + 1], _RK_C[i], stacked[i + 1])
        for i in range(1, 6)
    ] + [(coefficients[5, :7].dot, stacked[:7], None, stacked[7])]
    error_row = coefficients[6, 1:].dot
    all_stages = stacked[1:]
    first_stage = stacked[1]
    last_stage = stacked[7]

    # The k signal values are packed straight into the bytes of
    # packed[p : p + k]: a slice store would take the tuple through numpy's
    # sequence path, and pack_into writes to a byte view faster than to the
    # array itself.
    store_drive = struct.Struct(f"{k}d").pack_into
    packed_bytes = memoryview(packed).cast("B")
    drive_offset = p * packed.itemsize
    root = np.array(model.structure.cubic_root)
    rel = np.array(rel_tol)
    absolute = np.array(abs_tol)
    step = np.empty(())
    abs_state = np.abs(lift @ z)
    abs_trial = np.empty(m)
    scale = np.empty(m)
    # bound ``.dot`` methods: the C routine of ``np.dot``, called faster
    apply_rows = rows.dot
    apply_blocks = blocks.dot
    subtract = np.subtract
    multiply = np.multiply

    def evaluate(t: float, stage: np.ndarray) -> None:
        # stage = M [r(R z_i); s(t); z_i], with z_i in the slot
        if p:
            apply_rows(slot, out=v)
            subtract(v, root, out=cubic)
            multiply(cubic, v, out=cubic)
            multiply(cubic, v, out=cubic)
        store_drive(packed_bytes, drive_offset, *signals(t))
        apply_blocks(packed, out=stage)

    def start() -> bool:
        slot[:] = z
        evaluate(0.0, first_stage)
        return bool(np.all(np.isfinite(first_stage)))

    def attempt(t: float, h_step: float, t_end: float) -> float:
        step[()] = h_step
        multiply(_STAGE_ROWS, step, out=scaled)
        for coefficient, previous, c_i, stage in stages:
            coefficient(previous, out=slot)
            evaluate(t_end if c_i is None else t + c_i * h_step, stage)
        error_row(all_stages, out=error)
        # err = sqrt(mean((U error / scale) ** 2)) with
        # scale = abs_tol + rel_tol * max(|U z|, |U trial|)
        pair.dot(lift_rows, out=lifted)
        np.abs(lifted_trial, out=abs_trial)
        np.maximum(abs_state, abs_trial, out=scale)
        multiply(scale, rel, out=scale)
        np.add(scale, absolute, out=scale)
        np.divide(lifted_error, scale, out=scale)
        return math.sqrt(float(scale.dot(scale)) / m)

    def accept() -> np.ndarray:
        nonlocal abs_state, abs_trial
        z[:] = slot
        first_stage[:] = last_stage
        abs_state, abs_trial = abs_trial, abs_state
        return z

    return _stored((start, attempt, accept), z, out)


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

    Returns an n x m matrix whose column j is f(times[j], states[j]).  Each
    value is written by ``system.rhs(times[j], states[j], out)`` into row j
    of one m x n array, which is then checked once: a call that returns
    anything but its ``out`` raises :class:`InvalidInputError`, and a
    non-finite value :class:`RhsEvaluationError` naming the first time
    where it occurs.
    """
    if trajectory.dimension != system.dimension:
        raise InvalidInputError(
            f"trajectory dimension {trajectory.dimension} does not match "
            f"system dimension {system.dimension}"
        )
    times = trajectory.times
    values = np.empty(trajectory.states.shape)
    for t, x, row in zip(times.tolist(), trajectory.states, values):
        _evaluate(system.rhs, t, x, row)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise RhsEvaluationError(f"rhs is not finite at t={float(times[np.argmin(finite)])!r}")
    # C-ordered n x m: axis-0 sums add rows in order, giving the bits a copy of the rows would
    return np.ascontiguousarray(values.T)
