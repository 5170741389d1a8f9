"""POD bases from trajectory snapshots and Galerkin-reduced systems.

Snapshots of a solution and of its time derivative are stacked into a
matrix (solutions only for method Y, both for method Z), factorized, and
truncated into an orthonormal basis.  The reduced system z' = U^T f(t, U z)
is integrated under the same step controller and error test as the full
system, the test applied to the lifted state U z, and lifted back for
pointwise error curves.

A reduced model is the Galerkin model ``ode.GalerkinModel`` that the full
system's ``structure`` (linear operator, elementwise cubic, fixed-vector
forcing), which every reduction requires, projects onto the basis once
(``RhsStructure.project``); it works with small projected operators and
never forms the full state.  ``build_rom``'s reduced right-hand side is the
model's; a reduced solve, on any basis, the identity included, runs fused
DP5 stages on it (``ode.integrate_galerkin``).  A linear time-invariant
reduced model, z' = (U^T A U) z + U^T b with b constant, is not integrated
at all: its exact flow is stepped with one matrix exponential per interval
length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .linalg import SvdResult, as_matrix, as_real_array, as_time_grid, as_vector, read_only
from .ode import (
    GalerkinModel,
    OdeSystem,
    Trajectory,
    affine_flow,
    integrate_galerkin,
    sample_rhs,
)

__all__ = [
    "SnapshotSet",
    "PodBasis",
    "TruncationRule",
    "ErrorCurve",
    "collect_snapshots",
    "build_snapshot_matrix",
    "truncate_basis",
    "build_rom",
    "solve_rom_lifted",
    "error_curve",
]

# Snapshot methods: Y stacks solutions only, Z solutions then derivatives.
METHODS = ("Y", "Z")


@dataclass(frozen=True)
class SnapshotSet:
    """States (and optional derivatives) sampled on an increasing grid.

    ``solution_columns`` is n x m with one column per sample time; the grid
    starts at t = 0.  The grid and column arrays are kept as read-only
    views of the inputs, not copies.
    """

    times: np.ndarray
    solution_columns: np.ndarray
    derivative_columns: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        times = read_only(as_time_grid(self.times, "times", 2))
        if times[0] != 0.0:
            raise InvalidInputError(f"snapshot grid must start at 0, got {times[0]!r}")
        solution = read_only(as_matrix(self.solution_columns, "solution_columns"))
        if solution.shape[1] != times.size:
            raise InvalidInputError(
                f"solution_columns has {solution.shape[1]} columns "
                f"for {times.size} times"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "solution_columns", solution)
        if self.derivative_columns is not None:
            derivative = read_only(as_matrix(self.derivative_columns, "derivative_columns"))
            if derivative.shape != solution.shape:
                raise InvalidInputError(
                    f"derivative_columns shape {derivative.shape} does not match "
                    f"solution_columns shape {solution.shape}"
                )
            object.__setattr__(self, "derivative_columns", derivative)

    @property
    def dimension(self) -> int:
        return int(self.solution_columns.shape[0])


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal reduced basis of ``l`` columns.

    ``sigma_next`` is the first discarded singular value (0 when nothing
    was discarded).  ``cutoff_saturated`` flags the degenerate case where
    the requested cutoff exceeded the whole spectrum and l fell back to 1.
    """

    reduced_vectors: np.ndarray
    sigma_next: float
    cutoff_saturated: bool = False

    def __post_init__(self) -> None:
        vectors = read_only(as_matrix(self.reduced_vectors, "reduced_vectors"))
        if vectors.shape[0] < vectors.shape[1]:
            raise InvalidInputError("basis cannot have more columns than rows")
        sigma_next = float(self.sigma_next)
        if not 0.0 <= sigma_next < np.inf:
            raise InvalidInputError(f"sigma_next must be finite and >= 0, got {self.sigma_next!r}")
        gram = vectors.T @ vectors
        defect = np.max(np.abs(gram - np.eye(vectors.shape[1])))
        if defect > 1e-10:
            raise InvalidInputError(
                f"basis columns are not orthonormal (defect {defect:.3e})"
            )
        object.__setattr__(self, "reduced_vectors", vectors)
        object.__setattr__(self, "sigma_next", sigma_next)

    @property
    def l(self) -> int:
        return int(self.reduced_vectors.shape[1])

    @property
    def dimension(self) -> int:
        return int(self.reduced_vectors.shape[0])


@dataclass(frozen=True)
class TruncationRule:
    """Either keep a fixed number of modes or cut at a spectrum threshold."""

    fixed_dimension: Optional[int] = None
    cutoff_epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        have_fixed = self.fixed_dimension is not None
        have_cutoff = self.cutoff_epsilon is not None
        if have_fixed == have_cutoff:
            raise InvalidInputError(
                "exactly one of fixed_dimension and cutoff_epsilon must be set"
            )
        if have_fixed:
            l = int(self.fixed_dimension)
            if l < 1:
                raise InvalidInputError(f"fixed_dimension must be >= 1, got {l}")
            object.__setattr__(self, "fixed_dimension", l)
        else:
            eps = float(self.cutoff_epsilon)
            if not eps > 0.0:
                raise InvalidInputError(f"cutoff_epsilon must be > 0, got {eps!r}")
            object.__setattr__(self, "cutoff_epsilon", eps)

    @classmethod
    def fixed(cls, l: int) -> "TruncationRule":
        return cls(fixed_dimension=l)

    @classmethod
    def cutoff(cls, epsilon: float) -> "TruncationRule":
        return cls(cutoff_epsilon=epsilon)

    def label(self) -> str:
        if self.fixed_dimension is not None:
            return f"l={self.fixed_dimension}"
        return f"eps={self.cutoff_epsilon:g}"


@dataclass(frozen=True)
class ErrorCurve:
    """Pointwise 2-norm distance between a reference and a lifted solution."""

    times: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        times = read_only(as_time_grid(self.times))
        norms = as_real_array(self.norms, "norms").copy()
        if norms.shape != times.shape:
            raise InvalidInputError("times and norms must be of equal length")
        if not np.all(np.isfinite(norms)) or np.any(norms < 0.0):
            raise InvalidInputError("norms must be finite and nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "norms", norms)

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))


def collect_snapshots(system: OdeSystem, trajectory: Trajectory) -> SnapshotSet:
    """Snapshot set of a computed trajectory: its states and f at each sample.

    Column j holds the state at ``trajectory.times[j]`` and the right-hand
    side there, so both Y and Z matrices can be stacked from the result.
    Nothing is integrated here; the trajectory's grid is the snapshot grid
    and must start at t = 0.
    """
    return SnapshotSet(
        times=trajectory.times,
        solution_columns=np.ascontiguousarray(trajectory.states.T),
        derivative_columns=sample_rhs(system, trajectory),
    )


def build_snapshot_matrix(snapshots: SnapshotSet, method: str) -> np.ndarray:
    """Stack snapshot columns: method Y (solutions) or Z (solutions then derivatives).

    Method Y returns the set's own read-only solution columns, without a copy.
    """
    if method == "Y":
        return snapshots.solution_columns
    if method == "Z":
        if snapshots.derivative_columns is None:
            raise InvalidInputError("method 'Z' requires derivative columns")
        return np.hstack((snapshots.solution_columns, snapshots.derivative_columns))
    raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")


def truncate_basis(svd: SvdResult, rule: TruncationRule) -> PodBasis:
    """Cut a factorization down to a basis according to the truncation rule.

    The cutoff branch keeps every mode whose singular value is at least
    epsilon (values beyond the numerical rank count as zero); when even the
    leading value falls below epsilon the basis keeps one mode and the
    ``cutoff_saturated`` flag is set.

    A fixed dimension l is honored past the numerical rank, so error curves
    compare across a fixed schedule however fast the spectrum decays: up to
    the column count the factorization's own vectors are taken (past the
    rank these are orthonormal completions carrying no snapshot
    information), and l equal to the state dimension gives the identity
    basis.  Any other l above the column count is rejected.
    """
    sigmas = svd.singular_values
    rank = svd.numerical_rank
    if rank < 1:
        raise InvalidInputError("matrix is numerically zero; no basis can be built")
    n = svd.left_vectors.shape[0]
    identity = rule.fixed_dimension == n
    saturated = False
    if rule.fixed_dimension is not None:
        l = rule.fixed_dimension
        if not identity and l > sigmas.size:
            raise InvalidInputError(
                f"dimension {l} exceeds the {sigmas.size} snapshot columns"
            )
    else:
        kept = int(np.count_nonzero(sigmas[:rank] >= rule.cutoff_epsilon))
        l = max(kept, 1)
        saturated = kept == 0
    sigma_next = float(sigmas[l]) if l < sigmas.size else 0.0
    return PodBasis(
        reduced_vectors=np.eye(n) if identity else svd.left_vectors[:, :l].copy(),
        sigma_next=sigma_next,
        cutoff_saturated=saturated,
    )


def build_rom(system: OdeSystem, basis: PodBasis) -> OdeSystem:
    """Galerkin-reduced system z' = U^T f(t, U z).

    Its right-hand side is that of the ``ode.GalerkinModel`` which the
    system's ``structure`` projects onto the basis; a system without one
    raises ``InvalidInputError``, whatever the basis.  Every basis is
    projected this way, the identity included, and the reduced system
    carries no structure.  ``solve_rom_lifted`` does not integrate this
    system: it runs the fused kernel of ``ode.integrate_galerkin`` on the
    same model, which applies the full system's error test to U z.
    """
    return OdeSystem(dimension=basis.l, rhs=_project(system, basis).rhs)


def _project(system: OdeSystem, basis: PodBasis) -> GalerkinModel:
    """The Galerkin model of ``system``'s structure on ``basis``."""
    if system.structure is None:
        raise InvalidInputError("a reduced model needs a system with a structure")
    return system.structure.project(basis.reduced_vectors)


def solve_rom_lifted(
    system: OdeSystem,
    basis: PodBasis,
    x0: np.ndarray,
    output_times,
    rel_tol: float,
    abs_tol: float,
) -> Trajectory:
    """Solve the reduced system from z(0) = U^T x0 and lift the result.

    The initial state is taken at t = 0, and no output time may be
    negative; on both routes below, the grid [0.0] alone gives the lifted
    initial state with zero work counters.  The structure is checked and
    projected onto the basis once, into the ``ode.GalerkinModel`` that
    ``build_rom`` also builds.  When the structure is
    ``linear_time_invariant``, the model is z' = K z + c with K = its
    ``linear`` and c = its ``forcing`` times s(0), and ``ode.affine_flow``
    gives its exact solution: the tolerances are not used and the work
    counters stay 0.  Any other model, on any basis, the identity included,
    is integrated by ``ode.integrate_galerkin``, whose error test runs on
    the lifted state U z, and the lifted trajectory carries its work
    counters.  A system without a structure raises ``InvalidInputError``,
    as in ``build_rom``.
    """
    model = _project(system, basis)
    start = as_vector(x0, "x0")
    if start.size != basis.dimension:
        raise InvalidInputError(
            f"x0 length {start.size} does not match basis dimension {basis.dimension}"
        )
    out = as_time_grid(output_times, "output_times")
    vectors = basis.reduced_vectors
    z0 = vectors.T @ start
    if model.structure.linear_time_invariant:
        signals = np.asarray(model.structure.forcing_signals(0.0), dtype=float)
        reduced = affine_flow(model.linear, model.forcing @ signals, z0, out)
    else:
        reduced = integrate_galerkin(model, z0, rel_tol, abs_tol, out)
    return replace(reduced, states=reduced.states @ vectors.T)


def error_curve(fom: Trajectory, rom_lifted: Trajectory) -> ErrorCurve:
    """Pointwise Euclidean norms of the trajectory difference."""
    if not np.array_equal(fom.times, rom_lifted.times):
        raise InvalidInputError("trajectories are on different time grids")
    if fom.states.shape != rom_lifted.states.shape:
        raise InvalidInputError(
            f"state shapes differ: {fom.states.shape} vs {rom_lifted.states.shape}"
        )
    diff = fom.states - rom_lifted.states
    norms = np.sqrt(np.sum(diff * diff, axis=1))
    return ErrorCurve(times=fom.times, norms=norms)
