"""Dense real linear algebra kernels.

Provides a one-sided Jacobi SVD that preserves high relative accuracy of
small singular values.  It deliberately avoids forming the Gram matrix:
squaring floors the accuracy of singular values near sqrt(eps) times the
largest one, and the snapshot experiments truncate far below that.  A
spectral norm alone needs no such care; the bound constants take it from
LAPACK (``np.linalg.norm(M, 2)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from podrom.errors import ConvergenceError, InvalidInputError

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


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a nonempty 2-D float64 array with finite entries.

    A float64 array comes back as is, not copied; a caller that modifies
    the result or keeps it must copy it or take a read-only view.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a nonempty 2-D real matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D float64 array with finite entries."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a nonempty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD M = U diag(s) V^T with a numerical-rank decision.

    left_vectors is n x r, right_vectors is m x r, singular_values has
    length r = min(n, m) and is sorted descending. numerical_rank counts the
    singular values above rank_tolerance.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int
    rank_tolerance: float


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
    1/sqrt(n); ties break at the lowest index), orthogonalized twice.
    """
    n = U.shape[0]
    placed = [k for k in range(U.shape[1]) if k not in set(fill_cols)]
    for k in fill_cols:
        if placed:
            block = U[:, placed]
            coverage = np.sum(block * block, axis=1)
        else:
            coverage = np.zeros(n)
        v = np.zeros(n)
        v[int(np.argmin(coverage))] = 1.0
        for _ in range(2):
            for j in placed:
                v -= (U[:, j] @ v) * U[:, j]
        norm = float(np.linalg.norm(v))
        if norm <= math.sqrt(0.5 / n):
            raise ConvergenceError("orthonormal completion found no candidate")
        U[:, k] = v / norm
        placed.append(k)


def _one_sided_jacobi_tall(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core one-sided Jacobi on a tall matrix (rows >= cols).

    Returns (U, s, V) with M = U diag(s) V^T, s sorted descending, U and V
    having orthonormal columns.  M itself is not modified; the rotations
    work on a copy. Singular values are the final column norms,
    so small ones are not contaminated by Gram squaring.
    """
    n, m = M.shape
    W = M.copy()
    V = np.eye(m)
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
    noise_floor2 = (pair_tol * pair_tol) * float(np.max(np.sum(W * W, axis=0)))
    noise_columns: set[int] = set()
    for _sweep in range(MAX_JACOBI_SWEEPS):
        rotated = False
        norms2 = np.sum(W * W, axis=0)
        # Sort columns heaviest-first every sweep (de Rijk's ordering): the
        # cyclic pass then drains correlations top-down, which cuts the sweep
        # count several-fold on clustered spectra.  The noise marks travel
        # with their columns.
        order = np.argsort(-norms2, kind="stable")
        if not np.array_equal(order, np.arange(m)):
            W = W[:, order]
            V = V[:, order]
            inverse = np.empty(m, dtype=np.intp)
            inverse[order] = np.arange(m)
            noise_columns = {int(inverse[k]) for k in noise_columns}
            norms2 = norms2[order]
        # The heaviest column grows toward sigma_1 as sweeps progress, so the
        # floor tightens toward pair_tol * sigma_1 and ends up agreeing with
        # the numerical-rank tolerance.  Kept monotone so earlier marks stay
        # consistent with the final re-check.
        noise_floor2 = max(noise_floor2, (pair_tol * pair_tol) * float(norms2[0]))
        for p in range(m - 1):
            for q in range(p + 1, m):
                wp = W[:, p]
                wq = W[:, q]
                app = float(wp @ wp)
                aqq = float(wq @ wq)
                if app == 0.0 or aqq == 0.0:
                    continue
                apq = float(wp @ wq)
                if abs(apq) <= pair_tol * math.sqrt(app) * math.sqrt(aqq):
                    continue
                if app <= noise_floor2 and aqq <= noise_floor2:
                    noise_columns.add(p)
                    noise_columns.add(q)
                    continue
                if aqq > app:
                    # de Rijk pivot: keep the heavier column first so every
                    # rotation pushes norm mass leftward; without it tied
                    # clusters can cycle through sweeps indefinitely.
                    swap = W[:, p].copy()
                    W[:, p] = W[:, q]
                    W[:, q] = swap
                    swap = V[:, p].copy()
                    V[:, p] = V[:, q]
                    V[:, q] = swap
                    app, aqq = aqq, app
                    wp = W[:, p]
                    wq = W[:, q]
                c, s, _t = _jacobi_rotation(app, aqq, apq)
                new_p = c * wp - s * wq
                new_q = s * wp + c * wq
                W[:, p] = new_p
                W[:, q] = new_q
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
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
    for k in noise_columns:
        if norms[k] <= noise_floor:
            values[k] = 0.0
    order = np.argsort(-values, kind="stable")
    W = W[:, order]
    V = V[:, order]
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
    return U, s, V


def svd_one_sided_jacobi(M, rank_tol_factor: float = 1.0) -> SvdResult:
    """Thin SVD by one-sided Jacobi rotations, accurate for tiny singular values.

    Parameters
    ----------
    M : array_like
        Nonempty real matrix.
    rank_tol_factor : float
        numerical_rank counts singular values above
        rank_tol_factor * max(rows, cols) * machine_eps * sigma_1.

    Returns
    -------
    SvdResult

    Raises
    ------
    InvalidInputError
        Empty input or nonpositive rank_tol_factor.
    ConvergenceError
        Sweep cap reached.
    """
    A = as_matrix(M, "M")
    if rank_tol_factor <= 0.0:
        raise InvalidInputError("rank_tol_factor must be positive")
    n, m = A.shape
    if n >= m:
        U, s, V = _one_sided_jacobi_tall(A)
    else:
        # Orthogonalize the rows instead, then swap the factors back.
        Ut, s, Vt = _one_sided_jacobi_tall(A.T)
        U, V = Vt, Ut
    sigma1 = float(s[0]) if s.size else 0.0
    rank_tolerance = rank_tol_factor * max(n, m) * _EPS * sigma1
    numerical_rank = int(np.count_nonzero(s > rank_tolerance))
    return SvdResult(
        left_vectors=U,
        singular_values=s,
        right_vectors=V,
        numerical_rank=numerical_rank,
        rank_tolerance=rank_tolerance,
    )
