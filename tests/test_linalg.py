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
from podrom.bounds import BoundConstants, linear_bound_constants
from podrom.errors import InvalidInputError
from podrom.linalg import SvdResult, expm, svd_one_sided_jacobi
from podrom.ode import OdeSystem, Trajectory, affine_flow, integrate
from podrom.pod import PodBasis, SnapshotSet, solve_rom_lifted

from conftest import linear_structure, writes_into


def svd_defects(M: np.ndarray, result: SvdResult) -> tuple[float, float, float]:
    """Max-entry defects: U orthonormality, V orthonormality, reconstruction."""
    U, s, V = result.left_vectors, result.singular_values, result.right_vectors
    du = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
    dv = np.max(np.abs(V.T @ V - np.eye(V.shape[1])))
    dr = np.max(np.abs(M - U @ np.diag(s) @ V.T))
    return float(du), float(dv), float(dr)


def loop_completion(U: np.ndarray, fill_cols: list[int]) -> None:
    """Reference for the completion: one column at a time, modified Gram-Schmidt."""
    n = U.shape[0]
    placed = [k for k in range(U.shape[1]) if k not in fill_cols]
    for k in fill_cols:
        coverage = np.sum(U[:, placed] ** 2, axis=1)
        v = np.zeros(n)
        v[int(np.argmin(coverage))] = 1.0
        for _ in range(2):
            for j in placed:
                v -= (U[:, j] @ v) * U[:, j]
        U[:, k] = v / np.linalg.norm(v)
        placed.append(k)


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
        "case",
        ["random", "graded", "rank_six_tail", "tied", "zero_column", "pivot_unsorted"],
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
        elif case == "zero_column":
            M = rng.standard_normal((20, 10))
            M[:, 4] = 0.0
        else:
            # Column norms already descending, so the first sweep runs before
            # any sort, on the strided layout; they are close, so a rotation
            # leaves the next column heavier and the pivot fires there.
            M = rng.standard_normal((40, 12))
            M *= np.linspace(1.0, 0.9, 12) / np.linalg.norm(M, axis=0)
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

    @pytest.mark.parametrize("case", ["zero", "rank_one"])
    def test_completed_columns_orthonormal_to_every_column(self, case):
        n, m = 402, 202
        if case == "zero":
            M = np.zeros((n, m))
        else:
            rng = np.random.default_rng(5)
            M = np.outer(rng.standard_normal(n), rng.standard_normal(m))
        res = svd_one_sided_jacobi(M)
        U = res.left_vectors
        filled = res.singular_values == 0.0
        assert np.count_nonzero(filled) >= m - 1
        gram = U.T @ U[:, filled]
        assert np.max(np.abs(gram - np.eye(m)[:, filled])) <= 1e-12
        # The same start vectors as the column loop, so the same columns up
        # to rounding.
        reference = U.copy()
        reference[:, filled] = 0.0
        loop_completion(reference, list(np.flatnonzero(filled)))
        assert np.max(np.abs(reference - U)) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            svd_one_sided_jacobi(np.zeros((0, 3)))

    def test_rank_tolerance_definition(self):
        M = np.diag([1.0, 1e-10, 1e-20])
        res = svd_one_sided_jacobi(M)
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


class TestExpm:
    def test_diagonal(self):
        d = np.array([-30.0, -1.5, 0.0, 0.25, 3.0])
        # exp is a condition-|d| function of d: -30 costs about 30 ulps.
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13, atol=0.0)

    def test_nilpotent_jordan_block(self):
        # J = lam I + N with N^4 = 0: exp(J) = e^lam (I + N + N^2/2 + N^3/6).
        lam = -0.7
        N = np.diag(np.ones(3), k=1)
        J = lam * np.eye(4) + N
        exact = math.exp(lam) * (np.eye(4) + N + N @ N / 2.0 + N @ N @ N / 6.0)
        np.testing.assert_allclose(expm(J), exact, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("theta", [1.3, 30.0])
    def test_rotation_generator(self, theta):
        # At theta = 30 the 1-norm is 30 > theta_13 = 5.37: three squarings.
        got = expm(np.array([[0.0, -theta], [theta, 0.0]]))
        c, s = math.cos(theta), math.sin(theta)
        np.testing.assert_allclose(got, [[c, -s], [s, c]], rtol=0.0, atol=1e-13)

    def test_large_norm_against_eigendecomposition(self):
        # A = S diag(lam) S^-1 with a well-conditioned S and ||A||_1 near 30.
        S = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.3], [0.0, -0.2, 1.0]])
        lam = np.array([-28.0, -1.0, 2.0])
        A = S @ np.diag(lam) @ np.linalg.inv(S)
        assert 25.0 < np.max(np.sum(np.abs(A), axis=0)) < 40.0
        exact = S @ np.diag(np.exp(lam)) @ np.linalg.inv(S)
        np.testing.assert_allclose(expm(A), exact, rtol=1e-13, atol=1e-15)

    def test_zero_matrix_is_identity(self):
        np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), rtol=0.0, atol=1e-15)

    def test_overflow_comes_back_infinite(self):
        assert expm([[1000.0]])[0, 0] == math.inf

    @pytest.mark.parametrize(
        "A",
        [
            [[math.nan]],
            [[0.0, math.inf], [0.0, 0.0]],
            np.zeros((2, 3)),
            np.zeros((0, 0)),
            [[1e308, 1e308], [1e308, 1e308]],
        ],
        ids=["nan", "inf", "non-square", "empty", "norm-overflow"],
    )
    def test_rejects(self, A):
        with pytest.raises(InvalidInputError):
            expm(A)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.01, max_value=40.0),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_property_group_law(self, n, scale, seed):
        # exp(2A) = exp(A)^2 and exp(A) exp(-A) = I for a decaying A, whose
        # exponentials stay of order one.
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = scale * (M - M.T) / (2.0 * n) - 0.1 * scale * np.eye(n)
        E = expm(A)
        np.testing.assert_allclose(expm(2.0 * A), E @ E, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            E @ expm(-A), np.eye(n), rtol=0.0, atol=1e-11 * math.exp(0.1 * scale)
        )


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


class TestTimeGrid:
    def test_returns_float_grid_without_copy(self):
        grid = np.array([0.0, 0.5, 2.0])
        assert linalg.as_time_grid(grid) is grid
        np.testing.assert_array_equal(linalg.as_time_grid([0, 1, 2]), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "values, min_size",
        [
            ([[0.0, 1.0]], 1),
            ([0.0, float("nan")], 1),
            ([0.0, float("inf")], 1),
            ([0.0, 1.0, 1.0], 1),
            ([1.0, 0.0], 1),
            ([], 1),
            ([0.0], 2),
        ],
        ids=["2d", "nan", "inf", "repeated", "decreasing", "empty", "too_short"],
    )
    def test_rejects(self, values, min_size):
        with pytest.raises(InvalidInputError):
            linalg.as_time_grid(np.array(values), "grid", min_size)


def _decay():
    return OdeSystem(
        dimension=1, rhs=writes_into(lambda t, x: -x), structure=linear_structure(-np.eye(1))
    )


# Every owner of a time grid, each called with everything but the grid valid.
GRID_OWNERS = {
    "Trajectory": lambda g: Trajectory(times=g, states=np.zeros((np.size(g), 1))),
    "integrate": lambda g: integrate(_decay(), [1.0], 1e-8, 1e-10, g),
    "affine_flow": lambda g: affine_flow([[-1.0]], [0.0], [1.0], g),
    "SnapshotSet": lambda g: SnapshotSet(times=g, solution_columns=np.ones((2, np.size(g)))),
    "BoundConstants": lambda g: BoundConstants(
        snapshot_times=g,
        lambda_=0.0,
        psi=np.ones(np.size(g) - 1),
        phi=np.ones(np.size(g) - 1),
        theta=np.ones(np.size(g) - 1),
        provenance="linear_exact",
    ),
    "linear_bound_constants": lambda g: linear_bound_constants(
        np.zeros((1, 1)),
        Trajectory(times=np.linspace(0.0, 1.0, 11), states=np.ones((11, 1))),
        g,
        np.linspace(0.0, 1.0, 11),
    ),
    "solve_rom_lifted": lambda g: solve_rom_lifted(
        _decay(), PodBasis(reduced_vectors=np.eye(1), sigma_next=0.0),
        [1.0], g, 1e-8, 1e-10,
    ),
}

# Grids inside [0, 1] and starting at 0, so only the grid check can object;
# each with the part of that check's message it must raise.
BAD_GRIDS = {
    "2d": ([[0.0, 0.5, 1.0]], "must be 1-D"),
    "nan": ([0.0, float("nan"), 1.0], "contains NaN"),
    "repeated": ([0.0, 0.5, 0.5, 1.0], "must be strictly increasing"),
}


@pytest.mark.parametrize("grid,message", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS))
@pytest.mark.parametrize("owner", list(GRID_OWNERS.values()), ids=list(GRID_OWNERS))
def test_every_grid_owner_rejects_bad_grid(owner, grid, message):
    with pytest.raises(InvalidInputError, match=message):
        owner(np.array(grid))


@pytest.mark.parametrize("owner", list(GRID_OWNERS.values()), ids=list(GRID_OWNERS))
def test_every_grid_owner_accepts_good_grid(owner):
    owner(np.array([0.0, 0.5, 1.0]))
