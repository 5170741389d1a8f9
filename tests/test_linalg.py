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

from podrom.errors import InvalidInputError
from podrom.linalg import SvdResult, svd_one_sided_jacobi


def svd_defects(M: np.ndarray, result: SvdResult) -> tuple[float, float, float]:
    """Max-entry defects: U orthonormality, V orthonormality, reconstruction."""
    U, s, V = result.left_vectors, result.singular_values, result.right_vectors
    du = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
    dv = np.max(np.abs(V.T @ V - np.eye(V.shape[1])))
    dr = np.max(np.abs(M - U @ np.diag(s) @ V.T))
    return float(du), float(dv), float(dr)


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
