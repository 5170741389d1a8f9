"""Dense real linear algebra kernels.

Provides a one-sided Jacobi SVD that preserves high relative accuracy of
small singular values.  It deliberately avoids forming the Gram matrix:
squaring floors the accuracy of singular values near sqrt(eps) times the
largest one, and the snapshot experiments truncate far below that.  A
spectral norm alone needs no such care; the bound constants take it from
LAPACK (``np.linalg.norm(M, 2)``).  The matrix exponential (``expm``,
Pade scaling and squaring) gives the exact flow of a linear time-invariant
system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from podrom.errors import ConvergenceError, InvalidInputError

__all__ = [
    "MAX_JACOBI_SWEEPS",
    "SvdResult",
    "as_matrix",
    "as_real_array",
    "as_time_grid",
    "as_vector",
    "expm",
    "read_only",
    "svd_one_sided_jacobi",
]

# The sweep cap is part of the module contract: hitting it raises, never
# silently returns a half-converged factorization.  Matrices with a wide
# near-machine noise plateau can spend scores of sweeps draining the last
# cluster; those late sweeps skip almost every pair and cost little, so the
# cap is generous and only guards against runaway.
MAX_JACOBI_SWEEPS = 500

_EPS = float(np.finfo(float).eps)
# Columns with 2-norm below this are treated as numerically dead when forming
# left singular vectors; their directions are filled in by orthonormal
# completion instead of dividing by a subnormal norm.
_DEAD_COLUMN_NORM = 1e-290


def as_real_array(values, name: str = "array") -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one already.

    A ragged nested list raises :class:`InvalidInputError`, not ``ValueError``.
    """
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not a real array: {exc}") from None


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a nonempty 2-D float64 array with finite entries.

    A float64 array comes back as is, not copied; a caller that modifies
    the result or keeps it must copy it or take a read-only view.
    """
    arr = as_real_array(values, name)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a nonempty 2-D real matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    return arr


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through; nothing is copied."""
    view = array.view()
    view.flags.writeable = False
    return view


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D float64 array with finite entries, a copy."""
    arr = as_real_array(values, name).copy()
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a nonempty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    return arr


def as_time_grid(values, name: str = "times", min_size: int = 1) -> np.ndarray:
    """Validate and return a 1-D float64 time grid, each entry above the last.

    It needs ``min_size`` or more finite entries.  Like :func:`as_matrix`,
    a float64 array comes back as is, not copied.
    """
    arr = as_real_array(values, name)
    if arr.ndim != 1 or arr.size < min_size:
        raise InvalidInputError(f"{name} must be 1-D with {min_size} or more entries")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    if not np.all(np.diff(arr) > 0.0):
        raise InvalidInputError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD M = U diag(s) V^T with a numerical-rank decision.

    left_vectors is n x r, right_vectors is m x r, singular_values has
    length r = min(n, m) and is sorted descending. numerical_rank counts the
    singular values above rank_tolerance.  sweeps and rotations count the
    Jacobi sweeps run and the rotations applied (0 for a factorization not
    computed by Jacobi rotations).
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int
    rank_tolerance: float
    sweeps: int = 0
    rotations: int = 0


def _jacobi_rotation(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """Return (c, s, t) annihilating the off-diagonal of [[app, apq], [apq, aqq]].

    Convention: the rotation J = [[c, s], [-s, c]] makes J^T G J diagonal.
    Applied to column pairs as new_p = c*p - s*q, new_q = s*p + c*q.

    The smaller-angle root keeps whichever diagonal entry was larger in
    place.  An exact tie app == aqq admits both 45-degree roots; the sign
    is fixed so the first entry grows, otherwise a cyclic sweep can fall
    into a permutation cycle on tied clusters and never terminate.
    """
    if app == aqq:
        t = 1.0 if apq < 0.0 else -1.0
    else:
        tau = (aqq - app) / (2.0 * apq)
        if tau >= 0.0:
            t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
        else:
            t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, t


def _orthonormal_completion(U: np.ndarray, fill_cols: list[int]) -> None:
    """Fill the listed columns of U with unit vectors orthogonal to the rest.

    Deterministic: each fill starts from the standard basis vector least
    covered by the columns already in place (its residual norm is at least
    1/sqrt(n); ties break at the lowest index), orthogonalized twice against
    the block B of those columns, v -= B (B^T v).
    """
    n = U.shape[0]
    filled = set(fill_cols)
    placed = [k for k in range(U.shape[1]) if k not in filled]
    for k in fill_cols:
        block = U[:, placed]
        coverage = np.sum(block * block, axis=1)
        v = np.zeros(n)
        v[int(np.argmin(coverage))] = 1.0
        for _ in range(2):
            v -= block @ (block.T @ v)
        norm = float(np.linalg.norm(v))
        if norm <= math.sqrt(0.5 / n):
            raise ConvergenceError("orthonormal completion found no candidate")
        U[:, k] = v / norm
        placed.append(k)


def _one_sided_jacobi_tall(
    M: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Core one-sided Jacobi on a tall matrix (rows >= cols).

    Returns (U, s, V, sweeps, rotations) with M = U diag(s) V^T, s sorted
    descending, U and V having orthonormal columns, and the number of
    sweeps run and rotations applied.  M itself is not modified; the
    rotations work on a copy. Singular values are the final column norms,
    so small ones are not contaminated by Gram squaring.
    """
    n, m = M.shape
    # W (the rotated copy of M, rows :n) and V (rows n:) share one array,
    # so one column of it carries a rotation of both.  The layout of W
    # decides how the column dot products round, and with them every pair
    # decision: OpenBLAS's SIMD ddot takes a contiguous column and its
    # scalar kernel a strided one, and the two round differently.  W is
    # C-ordered (strided columns) until the first column sort and
    # F-ordered (contiguous) after it, since ``WV[:, order]`` returns an
    # F-ordered copy; the results are pinned to that sequence.  A bound 1-D
    # ``.dot`` calls the same ddot as ``@``, which the tests' plain loop
    # uses, at a third of the call overhead.
    WV = np.empty((n + m, m))
    WV[:n] = M
    WV[n:] = np.eye(m)
    # Pair tolerance is relative to the two column norms.  It must sit above
    # the inner-product round-off floor, which grows with the column length,
    # or the sweep keeps rotating through noise and never terminates.
    pair_tol = max(1e-15, n * np.finfo(float).eps)
    # A rank-deficient input leaves some columns holding cancellation debris
    # at round-off scale with arbitrary directions; rotating two of them
    # against each other makes no progress and can cycle forever.  Such pairs
    # are skipped and the columns deflated to exact zeros at the end, which
    # matches the numerical_rank convention (those values never count toward
    # rank).  A genuinely tiny column in a graded or diagonal matrix never
    # trips this: its pairs fall under pair_tol instead.
    W = WV[:n]
    noise_floor2 = (pair_tol * pair_tol) * float(np.max(np.sum(W * W, axis=0)))
    noise = [False] * m
    cosine = np.empty(())
    sine = np.empty(())
    cu, sv, su, cv = (np.empty(n + m) for _ in range(4))
    multiply = np.multiply
    subtract = np.subtract
    add = np.add
    rotations = 0
    for sweep in range(1, MAX_JACOBI_SWEEPS + 1):
        rotated = False
        norms2 = np.sum(W * W, axis=0)
        # Sort columns heaviest-first every sweep (de Rijk's ordering): the
        # cyclic pass then drains correlations top-down, which cuts the sweep
        # count several-fold on clustered spectra.  The noise marks travel
        # with their columns.
        order = np.argsort(-norms2, kind="stable")
        if not np.array_equal(order, np.arange(m)):
            WV = WV[:, order]
            W = WV[:n]
            noise = [noise[k] for k in order]
            norms2 = norms2[order]
        # The heaviest column grows toward sigma_1 as sweeps progress, so the
        # floor tightens toward pair_tol * sigma_1 and ends up agreeing with
        # the numerical-rank tolerance.  Kept monotone so earlier marks stay
        # consistent with the final re-check.
        noise_floor2 = max(noise_floor2, (pair_tol * pair_tol) * float(norms2[0]))
        stacked = [WV[:, k] for k in range(m)]  # column k of W on column k of V
        columns = [W[:, k] for k in range(m)]
        # Squared column norms exactly as a pair check computes them (the
        # same dot product on the same column view), so a cached value
        # equals a fresh one; only a rotation changes a column, and it
        # refreshes both of its entries.
        squares = [float(w.dot(w)) for w in columns]
        for p in range(m - 1):
            wp = columns[p]
            dot_p = wp.dot
            for q in range(p + 1, m):
                app = squares[p]
                aqq = squares[q]
                if app == 0.0 or aqq == 0.0:
                    continue
                # Two marked columns under the floor end in "continue" below
                # whatever their dot product is (a tolerance skip or a
                # repeated mark), so the pair is skipped before computing it.
                if noise[p] and noise[q] and app <= noise_floor2 and aqq <= noise_floor2:
                    continue
                apq = float(dot_p(columns[q]))
                if abs(apq) <= pair_tol * math.sqrt(app) * math.sqrt(aqq):
                    continue
                if app <= noise_floor2 and aqq <= noise_floor2:
                    noise[p] = True
                    noise[q] = True
                    continue
                a, b = stacked[p], stacked[q]
                if aqq > app:
                    # de Rijk pivot: keep the heavier column first so every
                    # rotation pushes norm mass leftward; without it tied
                    # clusters can cycle through sweeps indefinitely.  The
                    # swap is not carried out: the rotation reads a and b in
                    # swapped order instead.
                    c, s, _t = _jacobi_rotation(aqq, app, apq)
                    x, y = b, a
                else:
                    c, s, _t = _jacobi_rotation(app, aqq, apq)
                    x, y = a, b
                # Column p becomes c*x - s*y and column q s*x + c*y, one
                # ufunc call per product, sum and difference: the plain
                # loop's expressions after its swap, which round alike in
                # any layout.
                cosine[()] = c
                sine[()] = s
                multiply(x, cosine, out=cu)
                multiply(y, sine, out=sv)
                multiply(x, sine, out=su)
                multiply(y, cosine, out=cv)
                subtract(cu, sv, out=a)
                add(su, cv, out=b)
                squares[p] = float(dot_p(wp))
                squares[q] = float(columns[q].dot(columns[q]))
                rotations += 1
                rotated = True
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {MAX_JACOBI_SWEEPS} sweeps"
        )

    norms = np.sqrt(np.sum(W * W, axis=0))
    values = norms.copy()
    values[norms <= _DEAD_COLUMN_NORM] = 0.0
    noise_floor = math.sqrt(noise_floor2)
    for k in range(m):
        if noise[k] and norms[k] <= noise_floor:
            values[k] = 0.0
    order = np.argsort(-values, kind="stable")
    W = W[:, order]
    V = WV[n:, order]
    s = values[order]
    live = norms[order]
    U = np.zeros((n, m))
    dead = []
    for k in range(m):
        if s[k] > 0.0:
            U[:, k] = W[:, k] / live[k]
        else:
            dead.append(k)
    if dead:
        _orthonormal_completion(U, dead)
    return U, s, V, sweep, rotations


def svd_one_sided_jacobi(M) -> SvdResult:
    """Thin SVD by one-sided Jacobi rotations, accurate for tiny singular values.

    Parameters
    ----------
    M : array_like
        Nonempty real matrix.

    Returns
    -------
    SvdResult
        Its numerical_rank counts the singular values above
        max(rows, cols) * machine_eps * sigma_1.

    Raises
    ------
    InvalidInputError
        Empty input.
    ConvergenceError
        Sweep cap reached.
    """
    A = as_matrix(M, "M")
    n, m = A.shape
    if n >= m:
        U, s, V, sweeps, rotations = _one_sided_jacobi_tall(A)
    else:
        # Orthogonalize the rows instead, then swap the factors back.
        Ut, s, Vt, sweeps, rotations = _one_sided_jacobi_tall(A.T)
        U, V = Vt, Ut
    sigma1 = float(s[0]) if s.size else 0.0
    rank_tolerance = max(n, m) * _EPS * sigma1
    numerical_rank = int(np.count_nonzero(s > rank_tolerance))
    return SvdResult(
        left_vectors=U,
        singular_values=s,
        right_vectors=V,
        numerical_rank=numerical_rank,
        rank_tolerance=rank_tolerance,
        sweeps=sweeps,
        rotations=rotations,
    )


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it meets double precision without scaling (Higham,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential exp(A) by Pade-13 scaling and squaring (Higham 2005).

    A is scaled by 2^-s, with s the least number of halvings that brings
    its 1-norm to theta_13 = 5.37 or below; the [13/13] Pade approximant
    of the scaled matrix is then squared s times.  s comes from the 1-norm,
    so the work is 6 products, one solve and s squarings, s <= 1022 for
    any finite A.  An exponential beyond float range comes back with
    infinite or NaN entries; the caller decides what that means.

    Raises :class:`InvalidInputError` for an empty, non-square or
    non-finite A, or one whose 1-norm overflows.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise InvalidInputError(f"A must be square, got shape {A.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.max(np.sum(np.abs(A), axis=0)))
    if not math.isfinite(norm):
        raise InvalidInputError("A has a 1-norm beyond float range")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    X = A * math.ldexp(1.0, -squarings)
    b = _PADE13
    identity = np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    odd = X @ (
        X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
        + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * identity
    )
    even = (
        X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
        + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * identity
    )
    result = np.linalg.solve(even - odd, even + odd)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    return result
