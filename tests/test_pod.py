"""Basis truncation, projector algebra, and reduced-system oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom.errors import InvalidInputError
from podrom import pod
from podrom.experiment import preset
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
    _projected_rhs,
)


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
        system = OdeSystem(dimension=2, rhs=lambda t, x: np.zeros_like(x))
        traj = integrate(system, c, 1e-8, 1e-10, [0.0, 0.5, 1.0])
        snapshots = collect_snapshots(system, traj)
        for j in range(3):
            assert np.array_equal(snapshots.solution_columns[:, j], c)
        assert np.all(snapshots.derivative_columns == 0.0)

    def test_decay_columns(self):
        system = OdeSystem(dimension=1, rhs=lambda t, x: -x)
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


class TestBuildRom:
    def test_identity_basis_reproduces_rhs(self):
        system = OdeSystem(dimension=3, rhs=lambda t, x: np.sin(x) + t)
        basis = PodBasis(reduced_vectors=np.eye(3), sigma_next=0.0)
        rom = build_rom(system, basis)
        z = np.array([0.1, -0.7, 2.0])
        assert np.array_equal(rom.rhs(0.3, z), system.rhs(0.3, z))

    def test_linear_system_reduces_to_projected_matrix(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        system = OdeSystem(dimension=6, rhs=lambda t, x: A @ x)
        columns = orthonormal_columns(6, 2, seed=8)
        basis = basis_from_columns(columns)
        rom = build_rom(system, basis)
        reduced = columns.T @ A @ columns
        for _ in range(5):
            z = rng.standard_normal(2)
            assert np.max(np.abs(rom.rhs(0.0, z) - reduced @ z)) <= 1e-12

    def test_zero_rhs_stays_zero(self):
        system = OdeSystem(dimension=4, rhs=lambda t, x: np.zeros_like(x))
        basis = basis_from_columns(orthonormal_columns(4, 2, seed=9))
        rom = build_rom(system, basis)
        assert np.all(rom.rhs(1.0, np.array([0.3, -0.4])) == 0.0)

    def test_dimension_mismatch(self):
        system = OdeSystem(dimension=5, rhs=lambda t, x: x)
        basis = basis_from_columns(orthonormal_columns(4, 2))
        with pytest.raises(InvalidInputError):
            build_rom(system, basis)


def counting(system):
    """The same system with its full right-hand side counting its calls."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        return system.rhs(t, x)

    return dataclasses.replace(system, rhs=rhs), calls


class TestStructuredRom:
    @pytest.mark.parametrize("preset_id", ["A", "B"])
    @pytest.mark.parametrize("l", [1, 5, 25, 402])
    def test_projected_rhs_matches_lifted(self, preset_id, l):
        system = build_fhn(preset(preset_id).params)
        n = system.dimension
        columns = np.eye(n) if l == n else orthonormal_columns(n, l, seed=l)
        if l == n:
            # build_rom keeps the system's own rhs for the identity basis;
            # the projected path must still hold there.
            reduced_rhs = _projected_rhs(system.structure, columns)
        else:
            reduced_rhs = build_rom(system, basis_from_columns(columns)).rhs
        rng = np.random.default_rng(l)
        for _ in range(10):
            t = float(rng.uniform(0.0, 2.0))
            z = columns.T @ rng.uniform(-1.0, 1.0, size=n)
            lifted = columns.T @ system.rhs(t, columns @ z)
            gap = reduced_rhs(t, z) - lifted
            assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(lifted))

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
        system = OdeSystem(dimension=n, rhs=rhs, structure=structure)
        columns = orthonormal_columns(n, 3, seed=6)
        rom = build_rom(system, basis_from_columns(columns))
        for _ in range(5):
            t = float(rng.uniform(0.0, 3.0))
            z = rng.standard_normal(3)
            lifted = columns.T @ rhs(t, columns @ z)
            assert np.max(np.abs(rom.rhs(t, z) - lifted)) <= 1e-12 * np.max(np.abs(lifted))

    def test_identity_basis_keeps_system_rhs(self):
        system = build_fhn(preset("B").params)
        n = system.dimension
        rom = build_rom(system, basis_from_columns(np.eye(n)))
        assert rom.rhs is system.rhs
        assert rom.lift is None
        # A full-dimension basis that is not the identity is still projected.
        swapped = np.eye(n)[:, ::-1]
        rom = build_rom(system, basis_from_columns(swapped))
        assert rom.rhs is not system.rhs
        assert np.array_equal(rom.lift, swapped)
        rng = np.random.default_rng(4)
        z = rng.uniform(-1.0, 1.0, size=n)
        lifted = swapped.T @ system.rhs(0.3, swapped @ z)
        assert np.max(np.abs(rom.rhs(0.3, z) - lifted)) <= 1e-12 * np.max(np.abs(lifted))

    def test_structured_solve_makes_no_full_rhs_call(self):
        system, calls = counting(build_fhn(preset("B").params))
        basis = basis_from_columns(orthonormal_columns(system.dimension, 3, seed=2))
        x0 = np.zeros(system.dimension)
        lifted = solve_rom_lifted(system, basis, x0, [0.01, 0.02], 1e-8, 1e-10)
        assert lifted.states.shape == (2, system.dimension)
        assert calls == []

    def test_generic_system_is_still_lifted(self):
        fhn = build_fhn(preset("B").params)
        system, calls = counting(OdeSystem(dimension=fhn.dimension, rhs=fhn.rhs))
        basis = basis_from_columns(orthonormal_columns(system.dimension, 3, seed=2))
        x0 = np.zeros(system.dimension)
        solve_rom_lifted(system, basis, x0, [0.01, 0.02], 1e-8, 1e-10)
        assert len(calls) > 0


class TestSolveRomLifted:
    def test_identity_basis_matches_full_solve(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        system = OdeSystem(dimension=2, rhs=lambda t, x: A @ x)
        basis = PodBasis(reduced_vectors=np.eye(2), sigma_next=0.0)
        x0 = np.array([1.0, 0.0])
        out = [0.5, 1.0]
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
        A = U @ B @ U.T + W @ C @ W.T
        system = OdeSystem(dimension=6, rhs=lambda t, x: A @ x)
        basis = basis_from_columns(U)
        x0 = U @ np.array([1.0, -0.5])
        out = [0.25, 0.5, 1.0]
        lifted = solve_rom_lifted(system, basis, x0, out, 1e-10, 1e-12)
        full = integrate(system, x0, 1e-10, 1e-12, out)
        assert np.max(np.abs(lifted.states - full.states)) <= 1e-8

    def test_invariant_coordinates_take_the_full_solve_steps(self):
        # Forcing and initial state sit on 4 of 12 coordinates of a diagonal
        # system, so the other 8 stay exactly 0 and the identity columns of
        # those 4 span an invariant subspace.  The lifted error test then
        # sees the full solve's numbers, step for step.  The forcing stops
        # at t = 1.1, between output times, so some steps are rejected.
        n = 12
        kept = [1, 4, 7, 10]
        rates = -np.linspace(0.5, 6.0, n)
        drive = np.zeros(n)
        drive[kept] = [1.0, -2.0, 0.5, 3.0]

        def rhs(t, x):
            return rates * x + drive * (math.cos(2.0 * t) if t < 1.1 else 0.0)

        system = OdeSystem(dimension=n, rhs=rhs)
        basis = basis_from_columns(np.eye(n)[:, kept])
        x0 = np.zeros(n)
        x0[kept] = [0.3, -0.1, 1.0, 0.0]
        out = np.linspace(0.0, 2.0, 9)[1:]
        full = integrate(system, x0, 1e-10, 1e-12, out)
        lifted = solve_rom_lifted(system, basis, x0, out, 1e-10, 1e-12)
        assert lifted.step_attempts == full.step_attempts
        assert lifted.rejected_steps == full.rejected_steps > 0
        np.testing.assert_allclose(lifted.states, full.states, rtol=1e-14, atol=0.0)

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

    def test_lifted_trajectory_carries_reduced_work_counters(self):
        system = build_fhn(preset("B").params)
        basis = basis_from_columns(orthonormal_columns(system.dimension, 4, seed=8))
        x0 = np.zeros(system.dimension)
        out = [0.01, 0.02]
        lifted = solve_rom_lifted(system, basis, x0, out, 1e-10, 1e-12)
        rom = build_rom(system, basis)
        z0 = basis.reduced_vectors.T @ x0
        reduced = integrate(rom, z0, 1e-10, 1e-12, out)
        assert lifted.step_attempts == reduced.step_attempts > 0
        assert lifted.rejected_steps == reduced.rejected_steps


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
        monkeypatch.setattr(pod, "integrate", refuse("integrate"))
        monkeypatch.setattr(pod, "build_rom", refuse("build_rom"))
        lifted = solve_rom_lifted(system, basis, x0, self.EVAL, 1e-13, 1e-15)
        assert (lifted.step_attempts, lifted.rejected_steps) == (0, 0)
        expect = dp5.states @ basis.reduced_vectors.T
        gap = np.max(np.abs(lifted.states - expect))
        assert gap <= 1e-10 * np.max(np.abs(expect))

    def test_identity_basis_takes_the_exact_flow(self, monkeypatch):
        system = build_fhn(preset("A").params)
        n = system.dimension
        monkeypatch.setattr(pod, "integrate", refuse("integrate"))
        lifted = solve_rom_lifted(
            system, basis_from_columns(np.eye(n)), np.zeros(n), self.EVAL[:40], 1e-9, 1e-11
        )
        assert lifted.step_attempts == 0

    @pytest.mark.parametrize("case", ["B", "A-unstructured", "A-varying-forcing"])
    def test_other_systems_keep_dp5(self, monkeypatch, case):
        if case == "B":
            system = build_fhn(preset("B").params)
        elif case == "A-unstructured":
            system = OdeSystem(dimension=402, rhs=build_fhn(preset("A").params).rhs)
        else:
            params = dataclasses.replace(preset("A").params, IX=Waveform.sin_squared(5.0))
            system = build_fhn(params)
        if case == "A-unstructured":
            assert system.structure is None
        else:
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
