"""Tests for the dense linear algebra kernels.

The SVD oracle is the independent Gram route: eigenvalues of M^T M from
LAPACK's symmetric eigensolver must match squared singular values for all
but the tiny tail, where Gram squaring is known to lose accuracy.  Spectral
norms of residuals come from LAPACK (``np.linalg.norm(M, 2)``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import linalg
from podrom.errors import InvalidInputError
from podrom.linalg import SvdResult, svd_one_sided_jacobi


def svd_defects(M: np.ndarray, result: SvdResult) -> tuple[float, float, float]:
    """Max-entry defects: U orthonormality, V orthonormality, reconstruction."""
    U, s, V = result.left_vectors, result.singular_values, result.right_vectors
    du = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
    dv = np.max(np.abs(V.T @ V - np.eye(V.shape[1])))
    dr = np.max(np.abs(M - U @ np.diag(s) @ V.T))
    return float(du), float(dv), float(dr)


def plain_jacobi(M: np.ndarray):
    """Reference for the tall kernel: the plain pair loop it must reproduce.

    Every pair check takes both squared norms from fresh dot products, and
    a pivot swaps the columns of W and V before rotating them with
    temporaries.  Returns (U, s, V, sweeps, rotations).
    """
    n, m = M.shape
    W = M.copy()
    V = np.eye(m)
    pair_tol = max(1e-15, n * np.finfo(float).eps)
    floor2 = pair_tol * pair_tol * float(np.max(np.sum(W * W, axis=0)))
    noise = set()
    rotations = 0
    for sweep in range(1, linalg.MAX_JACOBI_SWEEPS + 1):
        rotated = False
        norms2 = np.sum(W * W, axis=0)
        order = np.argsort(-norms2, kind="stable")
        # Only a real reordering copies W, into the F-ordered layout whose
        # contiguous columns the dot products then round on.
        if not np.array_equal(order, np.arange(m)):
            W = W[:, order]
            V = V[:, order]
            inverse = np.argsort(order)
            noise = {int(inverse[k]) for k in noise}
        floor2 = max(floor2, pair_tol * pair_tol * float(norms2[order][0]))
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = float(W[:, p] @ W[:, p])
                aqq = float(W[:, q] @ W[:, q])
                if app == 0.0 or aqq == 0.0:
                    continue
                apq = float(W[:, p] @ W[:, q])
                if abs(apq) <= pair_tol * math.sqrt(app) * math.sqrt(aqq):
                    continue
                if app <= floor2 and aqq <= floor2:
                    noise.update((p, q))
                    continue
                if aqq > app:
                    W[:, [p, q]] = W[:, [q, p]]
                    V[:, [p, q]] = V[:, [q, p]]
                    app, aqq = aqq, app
                c, s, _t = linalg._jacobi_rotation(app, aqq, apq)
                for X in (W, V):
                    xp = X[:, p].copy()
                    xq = X[:, q].copy()
                    X[:, p] = c * xp - s * xq
                    X[:, q] = s * xp + c * xq
                rotations += 1
                rotated = True
        if not rotated:
            break
    norms = np.sqrt(np.sum(W * W, axis=0))
    values = norms.copy()
    values[norms <= linalg._DEAD_COLUMN_NORM] = 0.0
    for k in noise:
        if norms[k] <= math.sqrt(floor2):
            values[k] = 0.0
    order = np.argsort(-values, kind="stable")
    W = W[:, order]
    s = values[order]
    U = np.zeros((n, m))
    dead = [k for k in range(m) if s[k] == 0.0]
    for k in range(m):
        if s[k] > 0.0:
            U[:, k] = W[:, k] / norms[order][k]
    if dead:
        linalg._orthonormal_completion(U, dead)
    return U, s, V[:, order], sweep, rotations


class TestSvdOneSidedJacobi:
    def test_rank_one_diagonal(self):
        res = svd_one_sided_jacobi(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(res.singular_values, [1.0, 0.0], atol=1e-15)
        assert res.numerical_rank == 1

    def test_identity(self):
        res = svd_one_sided_jacobi(np.eye(3))
        assert np.allclose(res.singular_values, [1.0, 1.0, 1.0], atol=1e-14)
        # Degenerate subspace: compare the projector, not the columns.
        P = res.left_vectors @ res.left_vectors.T
        assert np.allclose(P, np.eye(3), atol=1e-12)
        du, dv, dr = svd_defects(np.eye(3), res)
        assert max(du, dv, dr) < 1e-12

    def test_gram_oracle_random(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 4))
        res = svd_one_sided_jacobi(M)
        evals = np.linalg.eigvalsh(M.T @ M)[::-1]
        sig1 = res.singular_values[0]
        for k, s in enumerate(res.singular_values):
            if s >= 1e-6 * sig1:
                assert abs(s - math.sqrt(max(evals[k], 0.0))) <= 1e-8 * s

    def test_invariants_on_random_shapes(self):
        rng = np.random.default_rng(3)
        for shape in [(6, 6), (10, 4), (4, 10), (12, 3), (1, 5), (5, 1)]:
            M = rng.standard_normal(shape)
            res = svd_one_sided_jacobi(M)
            du, dv, dr = svd_defects(M, res)
            s1 = res.singular_values[0]
            assert du <= 1e-10
            assert dv <= 1e-10
            assert dr <= 1e-10 * s1
            assert np.all(np.diff(res.singular_values) <= 0.0)
            assert np.all(res.singular_values >= 0.0)

    def test_tiny_singular_values_survive(self):
        # Diagonal with an entry far below sqrt(eps): the Gram route would
        # return garbage for it, the one-sided route must keep full relative
        # accuracy because the matrix is already column-orthogonal.
        d = np.array([1.0, 1e-8, 1e-15])
        res = svd_one_sided_jacobi(np.diag(d))
        assert np.allclose(res.singular_values, d, rtol=1e-12)

    def test_small_values_under_rotation(self):
        # Mix the scales through an orthogonal transform; relative accuracy of
        # the small values must survive the sweeps.
        rng = np.random.default_rng(5)
        Q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        d = np.array([2.0, 1.0, 1e-5, 1e-9, 1e-13, 1e-15])
        M = Q1 @ np.diag(d) @ Q2.T
        res = svd_one_sided_jacobi(M)
        # Orthogonal mixing perturbs each sigma by at most ~eps * sigma_1
        # in absolute terms, so compare with a floor at that level.
        for got, want in zip(res.singular_values, d):
            assert abs(got - want) <= 1e-12 * want + 5e-15 * d[0]

    def test_exactly_rank_deficient(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((8, 3))
        C = rng.standard_normal((3, 5))
        M = B @ C
        res = svd_one_sided_jacobi(M)
        assert res.numerical_rank == 3
        du, dv, dr = svd_defects(M, res)
        assert max(du, dv) <= 1e-10
        assert dr <= 1e-10 * res.singular_values[0]

    def test_rank_deficient_with_round_off_tail(self):
        # B C leaves 114 columns of cancellation debris, so most pair checks
        # meet two noise columns; those pairs must still end deflated.
        rng = np.random.default_rng(17)
        M = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 120))
        res = svd_one_sided_jacobi(M)
        assert res.numerical_rank == 6
        assert np.all(res.singular_values[6:] == 0.0)
        du, dv, dr = svd_defects(M, res)
        assert max(du, dv) <= 1e-10
        assert dr <= 1e-10 * res.singular_values[0]

    def test_work_counters(self):
        res = svd_one_sided_jacobi(np.eye(4))
        assert (res.sweeps, res.rotations) == (1, 0)
        rng = np.random.default_rng(2)
        res = svd_one_sided_jacobi(rng.standard_normal((9, 5)))
        assert res.sweeps >= 2
        assert res.rotations >= 10  # every pair of a random matrix rotates at first
        wide = svd_one_sided_jacobi(rng.standard_normal((3, 7)))
        assert wide.sweeps >= 2 and wide.rotations >= 3

    @pytest.mark.parametrize(
        "case", ["random", "graded", "rank_six_tail", "tied", "zero_column"]
    )
    def test_bitwise_equal_to_plain_loop(self, case):
        # The kernel caches norms, skips provably idle pairs and folds the
        # pivot swap into the rotation; none of that may change a bit.
        rng = np.random.default_rng(31)
        if case == "random":
            M = rng.standard_normal((40, 25))
        elif case == "graded":
            M = rng.standard_normal((50, 30)) * np.logspace(0, -16, 30)
        elif case == "rank_six_tail":
            M = rng.standard_normal((80, 6)) @ rng.standard_normal((6, 45))
        elif case == "tied":
            Q, _ = np.linalg.qr(rng.standard_normal((30, 12)))
            M = Q * np.repeat([3.0, 1.0, 1e-12], 4)
        else:
            M = rng.standard_normal((20, 10))
            M[:, 4] = 0.0
        U, s, V, sweeps, rotations = plain_jacobi(M)
        res = svd_one_sided_jacobi(M)
        assert np.array_equal(res.left_vectors, U)
        assert np.array_equal(res.singular_values, s)
        assert np.array_equal(res.right_vectors, V)
        assert res.right_vectors.strides == V.strides
        assert (res.sweeps, res.rotations) == (sweeps, rotations)

    def test_zero_matrix_completion(self):
        res = svd_one_sided_jacobi(np.zeros((4, 2)))
        assert np.all(res.singular_values == 0.0)
        assert res.numerical_rank == 0
        du, dv, _ = svd_defects(np.zeros((4, 2)), res)
        assert max(du, dv) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            svd_one_sided_jacobi(np.zeros((0, 3)))

    def test_rank_tolerance_definition(self):
        M = np.diag([1.0, 1e-10, 1e-20])
        res = svd_one_sided_jacobi(M, rank_tol_factor=1.0)
        expected_tol = 1.0 * 3 * np.finfo(float).eps * 1.0
        assert res.rank_tolerance == pytest.approx(expected_tol, rel=1e-12)
        assert res.numerical_rank == 2

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=9),
        cols=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_reconstruction(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((rows, cols))
        res = svd_one_sided_jacobi(M)
        du, dv, dr = svd_defects(M, res)
        assert du <= 1e-10
        assert dv <= 1e-10
        assert dr <= 1e-10 * max(res.singular_values[0], 1e-300)


class TestEckartYoung:
    def test_truncation_residual_equals_next_sigma(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            M = rng.standard_normal((10, 6))
            res = svd_one_sided_jacobi(M)
            U, s, V = res.left_vectors, res.singular_values, res.right_vectors
            for ell in range(1, res.numerical_rank):
                X = U[:, :ell] @ np.diag(s[:ell]) @ V[:, :ell].T
                got = np.linalg.norm(M - X, 2)
                want = s[ell]
                assert abs(got - want) <= 1e-8 * want
