"""POD bases from trajectory snapshots and Galerkin-reduced systems.

Snapshots of a solution and of its time derivative are stacked into a
matrix (solutions only for method Y, both for method Z), factorized, and
truncated into an orthonormal basis.  The reduced system z' = U^T f(t, U z)
is built and integrated with the same driver as the full system, and lifted
back for pointwise error curves.

A reduced model is built in two phases when the full system carries its
``structure`` (linear operator, elementwise cubic, fixed-vector forcing):
offline, each part is projected onto the basis once; online, a reduced
right-hand-side call works with those small projected operators and never
forms the full state.  A system without structure falls back to lifting:
each reduced call evaluates the full right-hand side at U z.  A linear
time-invariant reduced model, z' = (U^T A U) z + U^T b with b constant, is
not integrated at all: its exact flow is stepped with one matrix
exponential per interval length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .linalg import SvdResult, as_matrix, as_time_grid, as_vector, read_only
from .ode import OdeSystem, RhsStructure, Trajectory, affine_flow, integrate, sample_rhs

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
        if not sigma_next >= 0.0:
            raise InvalidInputError(f"sigma_next must be >= 0, got {self.sigma_next!r}")
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
        norms = np.array(self.norms, dtype=float)
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

    When the full system carries its ``structure`` (linear operator A,
    elementwise cubic g on some rows, forcing B s(t)), the reduction runs
    in two phases.  Offline, once per basis: U^T A U from A applied to the
    l basis columns, U_c = the basis rows the cubic acts on, and U^T B.
    Online, per call:

        z' = (U^T A U) z + (U^T B) s(t) + U_c^T g(U_c z),

    where s(t) is the k values of one ``forcing_signals`` call, so no call
    forms the full state or evaluates a signal more than once.  A system
    without structure is lifted instead: every call evaluates the full
    right-hand side at U z.
    The identity basis (U = I, for example the full-dimension basis that
    ``truncate_basis`` builds) keeps the system's own right-hand side.
    The reduced system carries no structure.  Its ``lift`` is U, so
    ``integrate`` holds it to the full system's error test on U z; the
    identity basis needs no lift.
    """
    if basis.dimension != system.dimension:
        raise InvalidInputError(
            f"basis dimension {basis.dimension} does not match "
            f"system dimension {system.dimension}"
        )
    vectors = basis.reduced_vectors

    n = basis.dimension
    if basis.l == n and np.array_equal(vectors, np.eye(n)):
        # U = I: the Galerkin system is the system itself.
        return OdeSystem(dimension=n, rhs=system.rhs)
    if system.structure is not None:
        reduced_rhs = _projected_rhs(system.structure, vectors)
    else:

        def reduced_rhs(t: float, z: np.ndarray) -> np.ndarray:
            return vectors.T @ np.asarray(system.rhs(t, vectors @ z), dtype=float)

    return OdeSystem(dimension=basis.l, rhs=reduced_rhs, lift=vectors)


def _projected_operators(structure: RhsStructure, vectors: np.ndarray):
    """The offline projections (U^T A U, U^T B) of a structured system."""
    linear = vectors.T @ np.asarray(structure.apply_linear(vectors), dtype=float)
    return linear, vectors.T @ structure.forcing_vectors


def _projected_rhs(structure: RhsStructure, vectors: np.ndarray):
    """Online reduced right-hand side from operators projected here, once.

    A call forms v = U_c z, then applies one l x (p + k + l) matrix
    [scale U_c^T | U^T B | U^T A U] to the stacked vector
    [v^2 (v - root); s(t); z], where p is the number of cubic rows and k
    the number of forcing signals, all k from one ``forcing_signals`` call.
    A system without cubic skips the first block.
    """
    linear, forcing = _projected_operators(structure, vectors)
    signals = structure.forcing_signals
    # a 0-d array: numpy takes it with less per-call overhead than a float
    root = np.array(structure.cubic_root)
    rows = vectors[structure.cubic_rows]
    if structure.affine:
        rows = rows[:0]
    p = rows.shape[0]
    k = forcing.shape[1]
    blocks = np.hstack((structure.cubic_scale * rows.T, forcing, linear))
    stacked = np.empty(blocks.shape[1])
    cubic = stacked[:p]
    state = stacked[p + k :]
    # The k signal values are packed straight into the bytes of
    # stacked[p : p + k]; a slice store would take the tuple through numpy's
    # sequence path, and pack_into writes to a byte view faster than to the
    # array itself.
    store_drive = struct.Struct(f"{k}d").pack_into
    stacked_bytes = memoryview(stacked).cast("B")
    drive_offset = p * stacked.itemsize
    # np.dot has less call overhead than the @ operator on these small sizes.
    dot = np.dot
    subtract = np.subtract
    multiply = np.multiply

    def reduced_rhs(t: float, z: np.ndarray) -> np.ndarray:
        if p:
            v = dot(rows, z)
            subtract(v, root, out=cubic)
            multiply(cubic, v, out=cubic)
            multiply(cubic, v, out=cubic)
        store_drive(stacked_bytes, drive_offset, *signals(t))
        state[:] = z
        return dot(blocks, stacked)

    return reduced_rhs


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
    negative; on either route below, the grid [0.0] alone gives the lifted
    initial state with zero work counters.  When the system's structure is
    ``linear_time_invariant``, the reduced model is z' = K z + c with
    K = U^T A U and c = U^T B s(0), projected as ``build_rom`` projects
    them, and ``ode.affine_flow`` gives its exact solution: the tolerances
    are not used and the work counters stay 0.  Any other system's reduced
    model (``build_rom``) is integrated by ``ode.integrate``, and the lifted
    trajectory carries that solve's work counters.
    """
    if basis.dimension != system.dimension:
        raise InvalidInputError(
            f"basis dimension {basis.dimension} does not match "
            f"system dimension {system.dimension}"
        )
    start = as_vector(x0, "x0")
    if start.size != basis.dimension:
        raise InvalidInputError(
            f"x0 length {start.size} does not match basis dimension {basis.dimension}"
        )
    out = as_time_grid(output_times, "output_times")
    vectors = basis.reduced_vectors
    z0 = vectors.T @ start
    structure = system.structure
    if structure is not None and structure.linear_time_invariant:
        linear, forcing = _projected_operators(structure, vectors)
        shift = forcing @ np.asarray(structure.forcing_signals(0.0), dtype=float)
        reduced = affine_flow(linear, shift, z0, out)
    else:
        rom = build_rom(system, basis)
        reduced = integrate(rom, z0, rel_tol, abs_tol, out)
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
