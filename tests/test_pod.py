"""Basis truncation, projector algebra, and reduced-system oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom.errors import InvalidInputError
from podrom import experiment, pod
from podrom.experiment import EVAL_GRID_SIZE, preset, run_experiment
from podrom.fhn import Waveform, build_fhn
from podrom.linalg import SvdResult, svd_one_sided_jacobi
from podrom.ode import OdeSystem, RhsStructure, Trajectory, integrate
from podrom.pod import (
    ErrorCurve,
    PodBasis,
    SnapshotSet,
    TruncationRule,
    build_rom,
    build_snapshot_matrix,
    collect_snapshots,
    error_curve,
    solve_rom_lifted,
    truncate_basis,
)

from conftest import linear_structure, plain_dp5, writes_into


def svd_from_spectrum(sigmas, rank, n=None):
    """Manual SvdResult with identity singular vectors for rule tests."""
    sigmas = np.asarray(sigmas, dtype=float)
    r = sigmas.size
    n = n or r
    return SvdResult(
        left_vectors=np.eye(n)[:, :r],
        singular_values=sigmas,
        right_vectors=np.eye(r),
        numerical_rank=rank,
        rank_tolerance=0.0,
    )


def orthonormal_columns(n, l, seed=0):
    rng = np.random.default_rng(seed)
    result = svd_one_sided_jacobi(rng.standard_normal((n, l)))
    return result.left_vectors[:, :l]


def basis_from_columns(columns):
    return PodBasis(reduced_vectors=columns, sigma_next=0.0)


class TestSnapshotSet:
    def test_spacings_computed(self):
        snapshots = SnapshotSet(
            times=np.array([0.0, 0.5, 1.5]),
            solution_columns=np.ones((2, 3)),
        )
        assert snapshots.dimension == 2
        assert snapshots.times.size == 3

    def test_columns_kept_read_only_without_copy(self):
        solution = np.arange(6.0).reshape(2, 3)
        derivative = np.ones((2, 3))
        snapshots = SnapshotSet(
            times=np.array([0.0, 0.5, 1.5]),
            solution_columns=solution,
            derivative_columns=derivative,
        )
        assert np.shares_memory(snapshots.solution_columns, solution)
        assert np.shares_memory(snapshots.derivative_columns, derivative)
        assert build_snapshot_matrix(snapshots, "Y") is snapshots.solution_columns
        with pytest.raises(ValueError):
            snapshots.solution_columns[0, 0] = 1.0
        with pytest.raises(ValueError):
            snapshots.times[1] = 0.25
        # The factorization rotates a copy of its own.
        svd_one_sided_jacobi(build_snapshot_matrix(snapshots, "Z"))
        assert np.array_equal(solution, np.arange(6.0).reshape(2, 3))

    def test_rejects_non_finite_columns(self):
        columns = np.ones((2, 2))
        columns[1, 0] = np.nan
        with pytest.raises(InvalidInputError):
            SnapshotSet(times=np.array([0.0, 1.0]), solution_columns=columns)
        with pytest.raises(InvalidInputError):
            SnapshotSet(
                times=np.array([0.0, 1.0]),
                solution_columns=np.ones((2, 2)),
                derivative_columns=columns,
            )

    def test_rejects_grid_not_starting_at_zero(self):
        with pytest.raises(InvalidInputError):
            SnapshotSet(times=np.array([0.1, 0.5]), solution_columns=np.ones((2, 2)))

    def test_rejects_mismatched_derivatives(self):
        with pytest.raises(InvalidInputError):
            SnapshotSet(
                times=np.array([0.0, 1.0]),
                solution_columns=np.ones((2, 2)),
                derivative_columns=np.ones((2, 3)),
            )


class TestCollectSnapshots:
    def test_constant_system(self):
        c = np.array([1.0, -2.0])
        system = OdeSystem(dimension=2, rhs=writes_into(lambda t, x: np.zeros_like(x)))
        traj = integrate(system, c, 1e-8, 1e-10, [0.0, 0.5, 1.0])
        snapshots = collect_snapshots(system, traj)
        for j in range(3):
            assert np.array_equal(snapshots.solution_columns[:, j], c)
        assert np.all(snapshots.derivative_columns == 0.0)

    def test_decay_columns(self):
        system = OdeSystem(dimension=1, rhs=writes_into(lambda t, x: -x))
        rel = 1e-10
        traj = integrate(system, np.array([1.0]), rel, 1e-12, [0.0, 1.0])
        snapshots = collect_snapshots(system, traj)
        assert snapshots.solution_columns[0, 0] == 1.0
        assert abs(snapshots.solution_columns[0, 1] - math.exp(-1.0)) <= 10 * rel
        assert snapshots.derivative_columns[0, 0] == -1.0
        assert abs(snapshots.derivative_columns[0, 1] + math.exp(-1.0)) <= 10 * rel


class TestBuildSnapshotMatrix:
    def test_solution_kind_identity(self):
        snapshots = SnapshotSet(
            times=np.array([0.0, 1.0]),
            solution_columns=np.eye(2),
            derivative_columns=np.zeros((2, 2)),
        )
        assert np.array_equal(build_snapshot_matrix(snapshots, "Y"), np.eye(2))

    def test_combined_kind_stacks_blocks(self):
        snapshots = SnapshotSet(
            times=np.array([0.0, 1.0]),
            solution_columns=np.eye(2),
            derivative_columns=np.zeros((2, 2)),
        )
        combined = build_snapshot_matrix(snapshots, "Z")
        assert combined.shape == (2, 4)
        assert np.array_equal(combined, np.hstack((np.eye(2), np.zeros((2, 2)))))

    def test_missing_derivatives_rejected(self):
        snapshots = SnapshotSet(times=np.array([0.0, 1.0]), solution_columns=np.eye(2))
        with pytest.raises(InvalidInputError):
            build_snapshot_matrix(snapshots, "Z")

    def test_unknown_kind_rejected(self):
        snapshots = SnapshotSet(times=np.array([0.0, 1.0]), solution_columns=np.eye(2))
        with pytest.raises(InvalidInputError):
            build_snapshot_matrix(snapshots, "W")

    def test_combined_rank_at_least_solution_rank(self):
        rng = np.random.default_rng(2)
        solution = rng.standard_normal((6, 4))
        derivative = rng.standard_normal((6, 4))
        snapshots = SnapshotSet(
            times=np.array([0.0, 1.0, 2.0, 3.0]),
            solution_columns=solution,
            derivative_columns=derivative,
        )
        rank_y = svd_one_sided_jacobi(build_snapshot_matrix(snapshots, "Y")).numerical_rank
        rank_z = svd_one_sided_jacobi(build_snapshot_matrix(snapshots, "Z")).numerical_rank
        assert rank_z >= rank_y


class TestTruncateBasis:
    def test_cutoff_keeps_modes_at_or_above_epsilon(self):
        svd = svd_from_spectrum([3.0, 1.0, 1e-20], rank=2)
        basis = truncate_basis(svd, TruncationRule.cutoff(1e-2))
        assert basis.l == 2
        assert basis.sigma_next == 1e-20
        assert not basis.cutoff_saturated

    def test_fixed_full_rank_has_zero_sigma_next(self):
        svd = svd_from_spectrum([3.0, 1.0], rank=2)
        basis = truncate_basis(svd, TruncationRule.fixed(2))
        assert basis.l == 2
        assert basis.sigma_next == 0.0

    def test_cutoff_above_leading_sigma_saturates(self):
        svd = svd_from_spectrum([3.0, 1.0], rank=2)
        basis = truncate_basis(svd, TruncationRule.cutoff(10.0))
        assert basis.l == 1
        assert basis.cutoff_saturated
        assert basis.sigma_next == 1.0

    def test_fixed_beyond_rank_takes_factorization_columns(self):
        svd = svd_from_spectrum([3.0, 1.0, 1e-20, 1e-25], rank=2, n=6)
        basis = truncate_basis(svd, TruncationRule.fixed(3))
        assert basis.l == 3
        assert np.array_equal(basis.reduced_vectors, svd.left_vectors[:, :3])
        assert basis.sigma_next == 1e-25
        basis = truncate_basis(svd, TruncationRule.fixed(4))
        assert basis.l == 4
        assert basis.sigma_next == 0.0

    def test_fixed_full_dimension_is_identity_with_real_spectrum(self):
        svd = svd_from_spectrum([3.0, 1.0, 1e-20], rank=2, n=5)
        basis = truncate_basis(svd, TruncationRule.fixed(5))
        assert basis.l == 5
        assert np.array_equal(basis.reduced_vectors, np.eye(5))
        assert basis.sigma_next == 0.0

    def test_fixed_beyond_column_count_rejected(self):
        svd = svd_from_spectrum([3.0, 1.0, 1e-20], rank=2, n=5)
        with pytest.raises(InvalidInputError, match="exceeds the 3 snapshot columns"):
            truncate_basis(svd, TruncationRule.fixed(4))

    def test_zero_matrix_rejected(self):
        svd = svd_from_spectrum([0.0, 0.0], rank=0)
        with pytest.raises(InvalidInputError):
            truncate_basis(svd, TruncationRule.cutoff(1e-2))

    def test_cutoff_never_exceeds_rank(self):
        svd = svd_from_spectrum([3.0, 1.0, 1e-20], rank=2)
        basis = truncate_basis(svd, TruncationRule.cutoff(1e-30))
        assert basis.l == 2

    def test_rule_requires_exactly_one_variant(self):
        with pytest.raises(InvalidInputError):
            TruncationRule(fixed_dimension=2, cutoff_epsilon=1e-3)
        with pytest.raises(InvalidInputError):
            TruncationRule()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-12, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1e-14, max_value=1e4, allow_nan=False),
    )
    def test_cutoff_selection_property(self, values, epsilon):
        sigmas = np.sort(np.asarray(values))[::-1].copy()
        svd = svd_from_spectrum(sigmas, rank=sigmas.size)
        basis = truncate_basis(svd, TruncationRule.cutoff(epsilon))
        treated = np.append(sigmas, 0.0)
        # sigma_{l+1} < eps, and either sigma_l >= eps or the rule saturated.
        assert treated[basis.l] < epsilon or basis.cutoff_saturated
        if not basis.cutoff_saturated:
            assert treated[basis.l - 1] >= epsilon


class TestSnapshotReconstruction:
    def test_residual_bounded_by_next_sigma_for_all_l(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((8, 5)) @ np.diag([3.0, 1.0, 0.3, 0.05, 1e-9])
        svd = svd_one_sided_jacobi(matrix)
        sigma_one = svd.singular_values[0]
        for l in range(1, svd.numerical_rank + 1):
            basis = truncate_basis(svd, TruncationRule.fixed(l))
            U = basis.reduced_vectors
            for j in range(matrix.shape[1]):
                x = matrix[:, j]
                residual = np.linalg.norm(x - U @ (U.T @ x))
                assert residual <= basis.sigma_next + 1e-10 * sigma_one

    def test_full_rank_basis_annihilates_columns(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((9, 4))
        svd = svd_one_sided_jacobi(matrix)
        basis = truncate_basis(svd, TruncationRule.fixed(svd.numerical_rank))
        sigma_one = svd.singular_values[0]
        U = basis.reduced_vectors
        for j in range(matrix.shape[1]):
            x = matrix[:, j]
            residual = np.linalg.norm(x - U @ (U.T @ x))
            assert residual <= 1e-8 * sigma_one


def linear_system(A):
    """x' = A x with its structure attached."""
    return OdeSystem(
        dimension=A.shape[0], rhs=writes_into(lambda t, x: A @ x), structure=linear_structure(A)
    )


class TestBuildRom:
    def test_linear_system_reduces_to_projected_matrix(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        system = linear_system(A)
        columns = orthonormal_columns(6, 2, seed=8)
        basis = basis_from_columns(columns)
        rom = build_rom(system, basis)
        reduced = columns.T @ A @ columns
        for _ in range(5):
            z = rng.standard_normal(2)
            assert np.max(np.abs(rom.rhs(0.0, z) - reduced @ z)) <= 1e-12

    def test_zero_rhs_stays_zero(self):
        system = linear_system(np.zeros((4, 4)))
        basis = basis_from_columns(orthonormal_columns(4, 2, seed=9))
        rom = build_rom(system, basis)
        assert np.all(rom.rhs(1.0, np.array([0.3, -0.4])) == 0.0)

    def test_dimension_mismatch(self):
        system = linear_system(np.eye(5))
        basis = basis_from_columns(orthonormal_columns(4, 2))
        with pytest.raises(InvalidInputError, match="basis dimension 4 does not match"):
            build_rom(system, basis)

    @pytest.mark.parametrize("l", [2, 3], ids=["projected", "identity"])
    def test_system_without_structure_rejected(self, l):
        # The rule holds for every basis, the identity included.
        system = OdeSystem(dimension=3, rhs=writes_into(lambda t, x: -x))
        basis = basis_from_columns(np.eye(3)[:, :l])
        with pytest.raises(InvalidInputError, match="needs a system with a structure"):
            build_rom(system, basis)
        with pytest.raises(InvalidInputError, match="needs a system with a structure"):
            solve_rom_lifted(system, basis, np.ones(3), [0.1, 0.2], 1e-8, 1e-10)

    @pytest.mark.parametrize(
        "applied",
        [lambda x: np.zeros(x.shape[0]), lambda x: np.zeros((x.shape[0] + 1, x.shape[1]))],
        ids=["1-D", "extra-row"],
    )
    def test_malformed_apply_linear_rejected(self, applied):
        # Only the shape of apply_linear(U) is checked; a NaN in it is the
        # solve's RhsEvaluationError at t = 0.
        system = linear_system(-np.eye(4))
        system = dataclasses.replace(
            system, structure=dataclasses.replace(system.structure, apply_linear=applied)
        )
        basis = basis_from_columns(np.eye(4)[:, :2])
        with pytest.raises(InvalidInputError, match="apply_linear gave shape"):
            build_rom(system, basis)
        with pytest.raises(InvalidInputError, match="apply_linear gave shape"):
            solve_rom_lifted(system, basis, np.ones(4), [0.1, 0.2], 1e-8, 1e-10)


def counting(system):
    """The same system with its full right-hand side counting its calls."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        return system.rhs(t, x)

    return dataclasses.replace(system, rhs=writes_into(rhs)), calls


class TestStructuredRom:
    @pytest.mark.parametrize("preset_id", ["A", "B"])
    @pytest.mark.parametrize("l", [1, 5, 25, 402])
    def test_projected_rhs_matches_lifted(self, preset_id, l):
        system = build_fhn(preset(preset_id).params)
        n = system.dimension
        columns = np.eye(n) if l == n else orthonormal_columns(n, l, seed=l)
        reduced_rhs = build_rom(system, basis_from_columns(columns)).rhs
        rng = np.random.default_rng(l)
        for _ in range(10):
            t = float(rng.uniform(0.0, 2.0))
            z = columns.T @ rng.uniform(-1.0, 1.0, size=n)
            lifted = columns.T @ system.rhs(t, columns @ z)
            gap = reduced_rhs(t, z) - lifted
            assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(lifted))
            # Written into a NaN-filled out: every entry, and out is returned.
            out = np.full(l, np.nan)
            assert reduced_rhs(t, z, out) is out
            assert np.array_equal(out, reduced_rhs(t, z))

    @pytest.mark.parametrize("preset_id", ["A", "B"])
    def test_reduced_rhs_results_never_alias(self, preset_id):
        # Called without out, the reduced rhs returns a fresh array that
        # shares no memory with its argument or an earlier result, and the
        # argument is only read.
        system = build_fhn(preset(preset_id).params)
        columns = orthonormal_columns(system.dimension, 5, seed=3)
        rhs = build_rom(system, basis_from_columns(columns)).rhs
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, size=5)
        y = rng.uniform(-1.0, 1.0, size=5)
        x_before = x.copy()
        first = rhs(0.3, x)
        first_before = first.copy()
        assert np.array_equal(x, x_before)
        second = rhs(1.1, y)
        second_before = second.copy()
        assert first is not second
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)
        assert np.array_equal(first, first_before)
        # Writing into a result changes nothing a later call returns.
        second[:] = np.nan
        assert np.array_equal(rhs(0.3, x), first_before)
        assert np.array_equal(rhs(1.1, y), second_before)

    @pytest.mark.parametrize("scale,root", [(-1.3, 1.1), (0.7, 0.0), (0.0, 0.5)])
    def test_generic_structure_matches_lifted(self, scale, root):
        rng = np.random.default_rng(6)
        n = 7
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, 2))
        rows = slice(2, 6)

        def rhs(t, x):
            out = A @ x + B @ np.array([math.sin(t), math.cos(t)])
            v = x[rows]
            out[rows] += scale * v**2 * (v - root)
            return out

        structure = RhsStructure(
            apply_linear=lambda x: A @ x,
            cubic_rows=rows,
            cubic_scale=scale,
            cubic_root=root,
            forcing_vectors=B,
            forcing_signals=lambda t: (math.sin(t), math.cos(t)),
            forcing_rates=lambda t: (math.cos(t), -math.sin(t)),
        )
        system = OdeSystem(dimension=n, rhs=writes_into(rhs), structure=structure)
        columns = orthonormal_columns(n, 3, seed=6)
        rom = build_rom(system, basis_from_columns(columns))
        for _ in range(5):
            t = float(rng.uniform(0.0, 3.0))
            z = rng.standard_normal(3)
            lifted = columns.T @ rhs(t, columns @ z)
            assert np.max(np.abs(rom.rhs(t, z) - lifted)) <= 1e-12 * np.max(np.abs(lifted))

    def test_identity_basis_keeps_system_rhs(self):
        # build_rom projects every full-dimension basis, the identity
        # included.
        system = build_fhn(preset("B").params)
        n = system.dimension
        rng = np.random.default_rng(4)
        z = rng.uniform(-1.0, 1.0, size=n)
        for columns in (np.eye(n), np.eye(n)[:, ::-1]):
            rom = build_rom(system, basis_from_columns(columns))
            assert rom.dimension == n and rom.structure is None
            lifted = columns.T @ system.rhs(0.3, columns @ z)
            assert np.max(np.abs(rom.rhs(0.3, z) - lifted)) <= 1e-12 * np.max(np.abs(lifted))

    @pytest.mark.parametrize("l", [3, None], ids=["l=3", "identity"])
    def test_structured_solve_makes_no_full_rhs_call(self, l):
        # The identity basis runs the fused kernel too, not the system's rhs.
        system, calls = counting(build_fhn(preset("B").params))
        n = system.dimension
        columns = np.eye(n) if l is None else orthonormal_columns(n, l, seed=2)
        basis = basis_from_columns(columns)
        lifted = solve_rom_lifted(system, basis, np.zeros(n), [0.01, 0.02], 1e-8, 1e-10)
        assert lifted.states.shape == (2, n)
        assert lifted.step_attempts > 0
        assert calls == []


class TestSolveRomLifted:
    @pytest.mark.parametrize("case", ["rotation", "B"])
    def test_identity_basis_matches_full_solve(self, case):
        if case == "B":
            # nonlinear and forced, on a short horizon: the fused kernel
            # on U = I against the truth kernel on the system itself
            system = build_fhn(preset("B").params)
            x0 = np.zeros(system.dimension)
            out = [0.005, 0.01]
        else:
            system = linear_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
            x0 = np.array([1.0, 0.0])
            out = [0.5, 1.0]
        basis = PodBasis(reduced_vectors=np.eye(system.dimension), sigma_next=0.0)
        rel, abs_ = 1e-9, 1e-11
        lifted = solve_rom_lifted(system, basis, x0, out, rel, abs_)
        full = integrate(system, x0, rel, abs_, out)
        for j in range(len(out)):
            scale = rel * np.linalg.norm(full.states[j]) + abs_
            assert np.linalg.norm(lifted.states[j] - full.states[j]) <= 10.0 * scale

    def test_invariant_subspace_is_captured_exactly(self):
        # A maps span(U) into itself and x0 lies in span(U), so the reduced
        # solve reproduces the full dynamics up to integration error.
        full_set = orthonormal_columns(6, 6, seed=11)
        U = full_set[:, :2]
        W = full_set[:, 2:]
        B = np.array([[-0.5, 0.3], [0.0, -0.2]])
        C = -np.diag([1.0, 2.0, 0.5, 1.5])
        system = linear_system(U @ B @ U.T + W @ C @ W.T)
        basis = basis_from_columns(U)
        x0 = U @ np.array([1.0, -0.5])
        out = [0.25, 0.5, 1.0]
        lifted = solve_rom_lifted(system, basis, x0, out, 1e-10, 1e-12)
        full = integrate(system, x0, 1e-10, 1e-12, out)
        assert np.max(np.abs(lifted.states - full.states)) <= 1e-8

    @pytest.mark.parametrize("method", ["Y", "Z"])
    def test_lifted_error_test_keeps_preset_b_accuracy(self, b_raw, method):
        # An l = 25 POD basis of preset B at the acceptance tolerances,
        # against the same reduced solve at 100x tighter ones.
        config, report = b_raw
        system = build_fhn(config.params)
        x0 = np.zeros(system.dimension)
        basis = truncate_basis(report.factorizations[(method, 0.04)], TruncationRule.fixed(25))
        out = np.linspace(0.0, 0.05, 6)[1:]
        got = solve_rom_lifted(system, basis, x0, out, 1e-13, 1e-15)
        tight = solve_rom_lifted(system, basis, x0, out, 1e-15, 1e-17)
        gap = np.max(np.abs(got.states - tight.states))
        assert gap <= 1e-12
        assert gap <= 1e-10 * np.max(np.abs(tight.states))

    @pytest.fixture(scope="class")
    def b_truth(self, b_raw):
        """Preset B's truth on the evaluation grid at the acceptance tolerances."""
        config, _ = b_raw
        system = build_fhn(config.params)
        times = (config.final_time * np.arange(EVAL_GRID_SIZE)) / (EVAL_GRID_SIZE - 1)
        return integrate(system, np.zeros(system.dimension), 1e-13, 1e-15, times)

    @pytest.mark.parametrize("case", ["Y-5", "Y-25", "Z-5", "Z-25", "random-4"])
    def test_galerkin_kernel_agrees_with_reference_path(self, b_raw, b_truth, case):
        # solve_rom_lifted's fused kernel against the plain DP5 loop with the
        # lifted error test on the hand-written Galerkin rhs U^T f(t, U z),
        # which shares no code with the kernel or its projection, on preset
        # B's POD bases and on one random orthonormal basis.  The two round
        # differently, so their step counts agree closely, not exactly; an
        # error test on z instead of U z takes about twice the attempts.
        config, report = b_raw
        system = build_fhn(config.params)
        if case == "random-4":
            columns = orthonormal_columns(system.dimension, 4, seed=23)
        else:
            method, l = case.split("-")
            rule = TruncationRule.fixed(int(l))
            columns = truncate_basis(report.factorizations[(method, 0.04)], rule).reduced_vectors
        basis = basis_from_columns(columns)
        x0 = np.zeros(system.dimension)
        lifted = solve_rom_lifted(system, basis, x0, b_truth.times, 1e-13, 1e-15)
        reduced, attempts, _ = plain_dp5(
            lambda t, z: columns.T @ system.rhs(t, columns @ z),
            columns.T @ x0, 1e-13, 1e-15, b_truth.times, lift=columns,
        )
        reference = Trajectory(times=b_truth.times, states=reduced @ columns.T)
        gap = np.max(np.abs(lifted.states - reference.states))
        assert gap <= 1e-10 * np.max(np.abs(reference.states))
        got = error_curve(b_truth, lifted).max_norm
        expect = error_curve(b_truth, reference).max_norm
        assert abs(got - expect) <= 1e-9 * expect
        assert abs(lifted.step_attempts - attempts) <= 0.02 * attempts

    def test_lifted_trajectory_carries_reduced_work_counters(self, monkeypatch):
        # The fused Galerkin kernel rounds differently from the plain lifted
        # DP5 loop, the reference path, so the two solves agree in their
        # states, not step for step.
        system = build_fhn(preset("B").params)
        U = orthonormal_columns(system.dimension, 4, seed=8)
        basis = basis_from_columns(U)
        x0 = np.zeros(system.dimension)
        out = np.array([0.01, 0.02])
        reduced, _, _ = plain_dp5(
            lambda t, z: U.T @ system.rhs(t, U @ z), U.T @ x0, 1e-10, 1e-12, out, lift=U
        )
        reference = reduced @ U.T
        lifted = solve_rom_lifted(system, basis, x0, out, 1e-10, 1e-12)
        gap = np.max(np.abs(lifted.states - reference))
        assert gap <= 1e-10 * np.max(np.abs(reference))
        assert lifted.step_attempts > 0

        # A run's rom_ counters sum these counters over its fresh reduced solves.
        solved = []

        def recording(*args):
            trajectory = solve_rom_lifted(*args)
            solved.append(trajectory)
            return trajectory

        monkeypatch.setattr(experiment, "solve_rom_lifted", recording)
        config = preset("B", final_time=0.05, deltas=(0.01,), epsilons=(), dims=(4,))
        report = run_experiment(config)
        assert report.failures == () and len(solved) == 2
        for name in ("step_attempts", "rejected_steps"):
            assert report.counters["rom_" + name] == sum(getattr(s, name) for s in solved)
        assert report.counters["rom_step_attempts"] > 0


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} must not be called")

    return call


class TestExactInTimeDispatch:
    EVAL = (0.5 * np.arange(400)) / 399

    def test_preset_a_takes_the_exact_flow(self, monkeypatch):
        # A small linear time-invariant reduced model: the exact flow
        # against DP5 on the same reduced system at tight tolerances, which
        # lands within a modest multiple (here 1000) of its rel_tol.
        system = build_fhn(preset("A").params)
        assert system.structure.linear_time_invariant
        basis = basis_from_columns(orthonormal_columns(system.dimension, 5, seed=3))
        x0 = np.zeros(system.dimension)
        rom = build_rom(system, basis)
        dp5 = integrate(rom, basis.reduced_vectors.T @ x0, 1e-13, 1e-15, self.EVAL)
        monkeypatch.setattr(pod, "integrate_galerkin", refuse("integrate_galerkin"))
        monkeypatch.setattr(pod, "build_rom", refuse("build_rom"))
        lifted = solve_rom_lifted(system, basis, x0, self.EVAL, 1e-13, 1e-15)
        assert (lifted.step_attempts, lifted.rejected_steps) == (0, 0)
        expect = dp5.states @ basis.reduced_vectors.T
        gap = np.max(np.abs(lifted.states - expect))
        assert gap <= 1e-10 * np.max(np.abs(expect))

    def test_identity_basis_takes_the_exact_flow(self, monkeypatch):
        system = build_fhn(preset("A").params)
        n = system.dimension
        monkeypatch.setattr(pod, "integrate_galerkin", refuse("integrate_galerkin"))
        lifted = solve_rom_lifted(
            system, basis_from_columns(np.eye(n)), np.zeros(n), self.EVAL[:40], 1e-9, 1e-11
        )
        assert lifted.step_attempts == 0

    @pytest.mark.parametrize("case", ["B", "A-varying-forcing"])
    def test_other_systems_keep_dp5(self, monkeypatch, case):
        if case == "B":
            system = build_fhn(preset("B").params)
        else:
            params = dataclasses.replace(preset("A").params, IX=Waveform.sin_squared(5.0))
            system = build_fhn(params)
        assert not system.structure.linear_time_invariant
        monkeypatch.setattr(pod, "affine_flow", refuse("affine_flow"))
        basis = basis_from_columns(orthonormal_columns(system.dimension, 3, seed=2))
        lifted = solve_rom_lifted(
            system, basis, np.zeros(system.dimension), [0.01, 0.02], 1e-8, 1e-10
        )
        assert lifted.step_attempts > 0

    @pytest.mark.parametrize("preset_id", ["A", "B"])
    def test_initial_time_alone_gives_lifted_initial_state(self, preset_id):
        # One rule on both routes: preset A's exact flow and preset B's DP5.
        system = build_fhn(preset(preset_id).params)
        n = system.dimension
        basis = basis_from_columns(np.eye(n)[:, :3])
        x0 = np.random.default_rng(4).standard_normal(n)
        lifted = solve_rom_lifted(system, basis, x0, [0.0], 1e-8, 1e-10)
        np.testing.assert_array_equal(lifted.times, [0.0])
        expect = np.zeros(n)
        expect[:3] = x0[:3]
        np.testing.assert_array_equal(lifted.states, [expect])
        assert (lifted.step_attempts, lifted.rejected_steps) == (0, 0)

    @pytest.mark.parametrize("preset_id", ["A", "B"], ids=["exact-flow", "fused"])
    def test_structure_projected_once_per_solve(self, preset_id):
        system = build_fhn(preset(preset_id).params)
        structure = system.structure
        shapes = []

        def apply_linear(x):
            shapes.append(np.shape(x))
            return structure.apply_linear(x)

        system = dataclasses.replace(
            system, structure=dataclasses.replace(structure, apply_linear=apply_linear)
        )
        n = system.dimension
        basis = basis_from_columns(orthonormal_columns(n, 3, seed=2))
        lifted = solve_rom_lifted(system, basis, np.zeros(n), [0.01, 0.02], 1e-8, 1e-10)
        assert lifted.states.shape == (2, n)
        assert shapes == [(n, 3)]

    def test_basis_of_other_dimension_rejected(self):
        system = build_fhn(preset("A").params)
        basis = basis_from_columns(orthonormal_columns(10, 2, seed=1))
        with pytest.raises(InvalidInputError):
            solve_rom_lifted(system, basis, np.zeros(10), [0.1], 1e-8, 1e-10)


class TestErrorCurve:
    def test_identical_trajectories_give_zero(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), states=np.ones((2, 3)))
        curve = error_curve(traj, traj)
        assert np.all(curve.norms == 0.0)
        assert curve.max_norm == 0.0

    def test_constant_offset(self):
        times = np.array([0.0, 0.5, 1.0])
        base = np.zeros((3, 2))
        offset = np.array([3.0, 4.0])
        a = Trajectory(times=times, states=base)
        b = Trajectory(times=times, states=base + offset)
        curve = error_curve(a, b)
        assert np.allclose(curve.norms, 5.0)

    def test_grid_mismatch_rejected(self):
        a = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 2)))
        b = Trajectory(times=np.array([0.0, 2.0]), states=np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            error_curve(a, b)

    def test_ragged_norms_rejected(self):
        # a ragged nested list is an InvalidInputError, not numpy's ValueError
        with pytest.raises(InvalidInputError, match="norms is not a real array"):
            ErrorCurve(times=np.array([0.0, 1.0]), norms=[[0.0], [1.0, 2.0]])

    def test_state_shape_mismatch_rejected(self):
        a = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 2)))
        b = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)))
        with pytest.raises(InvalidInputError, match="state shapes differ"):
            error_curve(a, b)

    def test_curve_validation(self):
        with pytest.raises(InvalidInputError):
            ErrorCurve(times=np.array([0.0, 1.0]), norms=np.array([-1.0, 0.0]))


class TestPodBasisValidation:
    def test_rejects_non_orthonormal_columns(self):
        with pytest.raises(InvalidInputError):
            PodBasis(reduced_vectors=np.ones((4, 2)), sigma_next=0.0)

    @pytest.mark.parametrize("sigma_next", [-1.0, math.nan, math.inf])
    def test_rejects_bad_sigma_next(self, sigma_next):
        # the first discarded singular value: finite and >= 0
        with pytest.raises(InvalidInputError, match="sigma_next must be finite and >= 0"):
            PodBasis(reduced_vectors=np.eye(3)[:, :2], sigma_next=sigma_next)
