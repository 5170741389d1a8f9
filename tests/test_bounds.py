"""Tests for the interpolants, bound constants, and bound curves."""

import math

import numpy as np
import pytest

from podrom import bounds
from podrom.bounds import (
    BoundConstants,
    BoundCurve,
    bound_constants,
    hermite_piecewise,
    lagrange_piecewise,
    linear_bound_constants,
    method1_bound,
    method2_bound,
    sampled_bound_constants,
)
from podrom.errors import InvalidInputError
from podrom.experiment import preset
from podrom.fhn import FhnParams, Waveform, build_fhn
from podrom.linalg import svd_one_sided_jacobi
from podrom.ode import OdeSystem, Trajectory, integrate
from podrom.pod import ErrorCurve, SnapshotSet

from conftest import linear_structure, writes_into


def trig_pair(t):
    return np.array([math.sin(t), math.cos(t)])


def trig_pair_derivative(t):
    return np.array([math.cos(t), -math.sin(t)])


def snapshots_from(fn, count, t_end=1.0, derivative=None):
    times = (t_end * np.arange(count)) / (count - 1)
    solution = np.stack([fn(float(t)) for t in times], axis=1)
    derivatives = None
    if derivative is not None:
        derivatives = np.stack([derivative(float(t)) for t in times], axis=1)
    return SnapshotSet(
        times=times, solution_columns=solution, derivative_columns=derivatives
    )


def max_interp_error(interp, snapshots, fn, points=501):
    worst = 0.0
    for t in np.linspace(snapshots.times[0], snapshots.times[-1], points):
        err = np.linalg.norm(interp(snapshots, float(t)) - fn(float(t)))
        worst = max(worst, float(err))
    return worst


def flat_constants(psi, phi, lam=0.0, provenance="linear_exact", grid=None):
    """Constants on ``grid``, by default a uniform grid on [0, 1]."""
    psi = np.asarray(psi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if grid is None:
        grid = np.linspace(0.0, 1.0, psi.size + 1)
    return BoundConstants(
        snapshot_times=grid,
        lambda_=lam,
        psi=psi,
        phi=phi,
        theta=np.ones_like(psi),
        provenance=provenance,
    )


class TestLagrange:
    def test_reproduces_nodes(self):
        snaps = snapshots_from(trig_pair, 7)
        for i, t in enumerate(snaps.times):
            np.testing.assert_array_equal(
                lagrange_piecewise(snaps, float(t)), snaps.solution_columns[:, i]
            )

    def test_exact_on_linear_data(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([3.0, 0.25, -1.0])
        snaps = snapshots_from(lambda t: a + b * t, 4, t_end=2.0)
        for t in (0.1, 0.77, 1.5, 1.99):
            expected = a + b * t
            got = lagrange_piecewise(snaps, t)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_midpoint_is_average(self):
        snaps = snapshots_from(trig_pair, 2)
        mid = lagrange_piecewise(snaps, 0.5)
        expected = 0.5 * (snaps.solution_columns[:, 0] + snaps.solution_columns[:, 1])
        np.testing.assert_allclose(mid, expected, rtol=1e-15)

    def test_convergence_order_two(self):
        errors = [
            max_interp_error(lagrange_piecewise, snapshots_from(trig_pair, m), trig_pair)
            for m in (5, 9, 17, 33, 65)
        ]
        rates = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert abs(sum(rates[-2:]) / 2 - 2.0) <= 0.1

    def test_outside_range_rejected(self):
        snaps = snapshots_from(trig_pair, 3)
        for t in (-0.01, 1.01):
            with pytest.raises(InvalidInputError):
                lagrange_piecewise(snaps, t)


class TestHermite:
    def test_reproduces_nodes(self):
        snaps = snapshots_from(trig_pair, 6, derivative=trig_pair_derivative)
        for i, t in enumerate(snaps.times):
            np.testing.assert_array_equal(
                hermite_piecewise(snaps, float(t)), snaps.solution_columns[:, i]
            )

    def test_slope_matches_derivative_at_nodes(self):
        snaps = snapshots_from(trig_pair, 6, derivative=trig_pair_derivative)
        h = 1e-8
        for i in range(1, 5):
            t = float(snaps.times[i])
            slope = (hermite_piecewise(snaps, t + h) - hermite_piecewise(snaps, t - h)) / (
                2.0 * h
            )
            assert np.linalg.norm(slope - trig_pair_derivative(t)) <= 1e-6
        # one-sided second-order stencils at the ends
        left = (
            -3.0 * hermite_piecewise(snaps, 0.0)
            + 4.0 * hermite_piecewise(snaps, h)
            - hermite_piecewise(snaps, 2 * h)
        ) / (2.0 * h)
        assert np.linalg.norm(left - trig_pair_derivative(0.0)) <= 1e-6

    def test_reproduces_cubics(self):
        def cubic(t):
            return np.array([t**3 - t, 2.0 * t**2 + 1.0 + 0.5 * t**3])

        def cubic_derivative(t):
            return np.array([3.0 * t**2 - 1.0, 4.0 * t + 1.5 * t**2])

        snaps = snapshots_from(cubic, 4, t_end=1.5, derivative=cubic_derivative)
        scale = max(np.linalg.norm(cubic(t)) for t in np.linspace(0.0, 1.5, 50))
        assert max_interp_error(hermite_piecewise, snaps, cubic, 301) <= 1e-10 * scale

    def test_convergence_order_four(self):
        errors = [
            max_interp_error(
                hermite_piecewise,
                snapshots_from(trig_pair, m, derivative=trig_pair_derivative),
                trig_pair,
            )
            for m in (5, 9, 17, 33)
        ]
        rates = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert abs(sum(rates[-2:]) / 2 - 4.0) <= 0.1

    def test_requires_derivatives(self):
        snaps = snapshots_from(trig_pair, 3)
        with pytest.raises(InvalidInputError):
            hermite_piecewise(snaps, 0.5)

    def test_outside_range_rejected(self):
        snaps = snapshots_from(trig_pair, 3, derivative=trig_pair_derivative)
        with pytest.raises(InvalidInputError):
            hermite_piecewise(snaps, 1.5)


class TestExtremumIdentities:
    """Dense scans of the weight functions behind the bound coefficients."""

    PAIRS = ((0.0, 0.3), (1.2, 1.7), (-0.5, 2.5))

    def test_linear_weight_peak(self):
        for a, b in self.PAIRS:
            t = np.linspace(a, b, 4001)
            peak = np.max(np.abs((t - a) * (t - b)))
            assert abs(peak - (b - a) ** 2 / 4.0) <= 1e-6 * (b - a) ** 2 / 4.0

    def test_cubic_weight_peak(self):
        for a, b in self.PAIRS:
            t = np.linspace(a, b, 4001)
            peak = np.max(np.abs(2.0 * (t - a) * (t - b) ** 2))
            expected = (8.0 / 27.0) * (b - a) ** 3
            assert abs(peak - expected) <= 1e-6 * expected

    def test_quartic_weight_peak(self):
        for a, b in self.PAIRS:
            t = np.linspace(a, b, 4001)
            peak = np.max((t - a) ** 2 * (t - b) ** 2)
            expected = (b - a) ** 4 / 16.0
            assert abs(peak - expected) <= 1e-6 * expected


class TestConstantsValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            flat_constants([1.0, -1.0], [1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            BoundConstants(
                snapshot_times=np.array([0.0, 1.0, 2.0, 3.0]),
                lambda_=0.0,
                psi=np.ones(3),
                phi=np.ones(2),
                theta=np.ones(3),
                provenance="linear_exact",
            )

    @pytest.mark.parametrize("name", ["psi", "phi", "theta"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_entries_off_the_interval_count(self, name, count):
        # the grid has two intervals; one array holds count entries instead
        arrays = {key: np.ones(2) for key in ("psi", "phi", "theta")}
        arrays[name] = np.ones(count)
        with pytest.raises(InvalidInputError):
            BoundConstants(
                snapshot_times=np.array([0.0, 1.0, 2.0]),
                lambda_=0.0,
                provenance="linear_exact",
                **arrays,
            )

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [2.0, 1.0, 0.0]], ids=str)
    def test_rejects_grid_not_increasing(self, grid):
        with pytest.raises(InvalidInputError):
            flat_constants([1.0, 1.0], [1.0, 1.0], grid=np.array(grid))

    def test_keeps_grid_read_only(self):
        grid = np.array([0.0, 0.5, 1.0])
        constants = flat_constants([1.0, 2.0], [1.0, 2.0], grid=grid)
        np.testing.assert_array_equal(constants.snapshot_times, grid)
        assert not constants.snapshot_times.flags.writeable

    def test_rejects_unknown_provenance(self):
        with pytest.raises(InvalidInputError):
            flat_constants([1.0], [1.0], provenance="guessed")

    def test_rejects_negative_lambda(self):
        with pytest.raises(InvalidInputError):
            flat_constants([1.0], [1.0], lam=-0.5)

    def test_curve_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            BoundCurve(times=np.array([0.0, 1.0]), values=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("name", ["psi", "phi", "theta"])
    def test_rejects_ragged_constants(self, name):
        # a ragged nested list is an InvalidInputError, not numpy's ValueError
        arrays = {key: np.ones(2) for key in ("psi", "phi", "theta")}
        arrays[name] = [[1.0], [1.0, 2.0]]
        with pytest.raises(InvalidInputError, match=f"{name} is not a real array"):
            BoundConstants(
                snapshot_times=np.array([0.0, 1.0, 2.0]),
                lambda_=0.0,
                provenance="linear_exact",
                **arrays,
            )

    def test_curve_rejects_ragged_values(self):
        with pytest.raises(InvalidInputError, match="values is not a real array"):
            BoundCurve(times=np.array([0.0, 1.0]), values=[[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize(
        "grid",
        [[], [math.nan], [[0.0, 0.5]], [0.5, 0.25]],
        ids=["empty", "nan", "2-D", "decreasing"],
    )
    def test_bad_time_grid_rejected(self, grid):
        # evaluation times and both curves' times share the one grid check
        zeros = np.zeros_like(np.asarray(grid, dtype=float))
        constants = flat_constants([1.0], [1.0])
        for build in (
            lambda: method1_bound(0.0, constants, grid),
            lambda: ErrorCurve(times=grid, norms=zeros),
            lambda: BoundCurve(times=grid, values=zeros),
        ):
            with pytest.raises(InvalidInputError):
                build()


class TestBoundFormulas:
    EVALS = np.array([0.0, 0.25, 0.5, 1.0])

    def test_method1_flat_value(self):
        curve = method1_bound(0.25, flat_constants([3.0], [0.0]), self.EVALS)
        np.testing.assert_allclose(curve.values, 2.0 * 0.25 + 3.0 / 8.0, rtol=1e-15)
        assert not curve.saturated

    def test_method2_flat_value_and_variant(self):
        constants = flat_constants([0.0], [5.0])
        curve = method2_bound(0.25, constants, self.EVALS)
        np.testing.assert_allclose(
            curve.values, 0.25 * (59.0 / 54.0 + 8.0 / 27.0) + 5.0 / 384.0, rtol=1e-15
        )

    def test_bounds_vanish_without_truncation_error(self):
        constants = flat_constants([0.0], [0.0], lam=3.0)
        for curve in (
            method1_bound(0.0, constants, self.EVALS),
            method2_bound(0.0, constants, self.EVALS),
        ):
            np.testing.assert_array_equal(curve.values, 0.0)
            assert not curve.saturated

    def test_method1_growth_factor(self):
        constants = flat_constants([0.0], [0.0], lam=2.0)
        curve = method1_bound(1.0, constants, self.EVALS)
        np.testing.assert_allclose(curve.values, 2.0 * np.exp(2.0 * self.EVALS), rtol=1e-12)

    def test_per_interval_prefactors(self):
        grid = np.array([0.0, 1.0, 3.0])
        constants = flat_constants([8.0, 16.0], [0.0, 0.0], grid=grid)
        curve = method1_bound(0.0, constants, np.array([0.5, 2.0]))
        # Delta_0 = 1, Delta_1 = 2: psi * Delta^2 / 8 per interval
        np.testing.assert_allclose(curve.values, [1.0, 8.0], rtol=1e-14)

    def test_second_term_ratio_shrinks_quadratically(self):
        ratios = []
        for count in (3, 5):
            grid = np.linspace(0.0, 1.0, count)
            ones = np.ones(count - 1)
            constants = flat_constants(ones, ones, grid=grid)
            evals = np.array([0.5])
            m1 = method1_bound(0.0, constants, evals).values[0]
            m2 = method2_bound(0.0, constants, evals).values[0]
            ratios.append(m2 / m1)
        assert math.isclose(ratios[0] / ratios[1], 4.0, rel_tol=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(7)
        grid = np.array([0.0, 0.4, 1.0])
        evals = np.linspace(0.0, 1.0, 9)
        psi = rng.uniform(0.5, 2.0, 2)
        phi = rng.uniform(0.5, 2.0, 2)
        sigma = 0.125
        base1 = method1_bound(sigma, flat_constants(psi, phi, 1.5, grid=grid), evals)
        base2 = method2_bound(sigma, flat_constants(psi, phi, 1.5, grid=grid), evals)
        doubled1 = method1_bound(
            2.0 * sigma, flat_constants(2.0 * psi, phi, 1.5, grid=grid), evals
        )
        doubled2 = method2_bound(
            2.0 * sigma, flat_constants(psi, 2.0 * phi, 1.5, grid=grid), evals
        )
        np.testing.assert_array_equal(doubled1.values, 2.0 * base1.values)
        np.testing.assert_array_equal(doubled2.values, 2.0 * base2.values)

    def test_saturation_flag(self):
        constants = flat_constants([0.0], [0.0], lam=1e6)
        curve = method1_bound(1.0, constants, np.array([0.0, 1.0]))
        assert curve.saturated
        assert np.all(np.isfinite(curve.values))
        assert curve.values[1] == 2.0 * math.exp(690.0)
        # a huge prefactor overflows the exponential product and hits the cap
        huge = method1_bound(1e20, constants, np.array([1.0]))
        assert huge.saturated
        assert huge.values[0] == 1e300

    def test_input_validation(self):
        constants = flat_constants([1.0], [1.0])
        with pytest.raises(InvalidInputError):
            method1_bound(-1.0, constants, self.EVALS)
        with pytest.raises(InvalidInputError):
            method1_bound(0.0, constants, np.array([1.5]))


def synthetic_trajectory(fn, count, t_end=1.0):
    times = (t_end * np.arange(count)) / (count - 1)
    states = np.stack([np.atleast_1d(fn(float(t))) for t in times])
    return Trajectory(times=times, states=states)


def decay_system():
    return OdeSystem(
        dimension=1, rhs=writes_into(lambda t, x: -x), structure=linear_structure(-np.eye(1))
    )


def tangent_difference_psi(system, fom, snapshot_times, h=1e-5):
    """Psi_i by a central difference of s -> f(t + s, x + s f(t, x)) per sample.

    The tangent line carries d/dt f along the solution to second order in h.
    """
    norms = []
    for t, x in zip(fom.times, fom.states):
        f = system.rhs(t, x)
        slope = (system.rhs(t + h, x + h * f) - system.rhs(t - h, x - h * f)) / (2.0 * h)
        norms.append(np.linalg.norm(slope))
    norms = np.array(norms)
    return np.array([
        np.max(norms[(fom.times >= left) & (fom.times <= right)])
        for left, right in zip(snapshot_times[:-1], snapshot_times[1:])
    ])


def reaction_diffusion_case(name):
    """A cable system, its trajectory on a uniform grid and a snapshot grid."""
    if name == "preset_B":
        spec = preset("B")
        params, horizon, steps, intervals = spec.params, spec.final_time, 6400, 50
    else:
        # the lam = 1 cable of test_cli's bound-constants route test
        params = FhnParams(
            L=10,
            X=1.0,
            D1=0.1,
            D2=0.05,
            lam=1.0,
            a=0.1,
            mu=1.0,
            gamma=1.0,
            I0=Waveform.sin_squared(1.0),
            IX=Waveform.constant(0.5),
        )
        horizon, steps, intervals = 0.5, 40, 5
    system = build_fhn(params)
    grid = np.linspace(0.0, horizon, steps + 1)
    fom = integrate(system, np.zeros(params.dimension), 1e-10, 1e-12, grid)
    return system, fom, (horizon * np.arange(intervals + 1)) / intervals


class TestLinearConstants:
    def test_zero_matrix(self):
        fom = synthetic_trajectory(lambda t: np.array([3.0, 4.0]), 11)
        constants = linear_bound_constants(np.zeros((2, 2)), fom, [0.0, 0.5, 1.0])
        assert constants.lambda_ == 0.0
        np.testing.assert_array_equal(constants.psi, 0.0)
        np.testing.assert_array_equal(constants.phi, 0.0)
        np.testing.assert_allclose(constants.theta, 5.0)
        assert constants.provenance == "linear_exact"
        np.testing.assert_array_equal(constants.snapshot_times, [0.0, 0.5, 1.0])

    def test_identity_constant_trajectory(self):
        fom = synthetic_trajectory(lambda t: np.array([3.0, 4.0]), 11)
        constants = linear_bound_constants(np.eye(2), fom, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(constants.lambda_, 1.0, rtol=1e-12)
        np.testing.assert_allclose(constants.theta, 5.0, rtol=1e-12)
        np.testing.assert_allclose(constants.psi, 5.0, rtol=1e-12)
        np.testing.assert_allclose(constants.phi, 5.0, rtol=1e-12)

    def test_lambda_enters_cubed(self):
        fom = synthetic_trajectory(lambda t: np.array([3.0, 4.0]), 11)
        constants = linear_bound_constants(2.0 * np.eye(2), fom, [0.0, 1.0])
        np.testing.assert_allclose(constants.lambda_, 2.0, rtol=1e-12)
        np.testing.assert_allclose(constants.psi, 10.0, rtol=1e-12)
        np.testing.assert_allclose(constants.phi, 40.0, rtol=1e-12)

    def test_lambda_padded_above_lapack_norm(self):
        matrix = np.random.default_rng(5).standard_normal((6, 6))
        fom = synthetic_trajectory(lambda t: np.ones(6), 11)
        constants = linear_bound_constants(matrix, fom, [0.0, 1.0])
        sigma1 = float(np.linalg.norm(matrix, 2))
        eps = np.finfo(float).eps
        assert sigma1 < constants.lambda_ <= sigma1 * (1.0 + 2.0 * 6 * eps)
        np.testing.assert_allclose(constants.psi, constants.lambda_ * math.sqrt(6.0), rtol=1e-15)

    def test_interval_max_includes_shared_endpoint(self):
        fom = synthetic_trajectory(lambda t: np.array([t]), 11)
        constants = linear_bound_constants(np.eye(1), fom, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(constants.theta, [0.5, 1.0], rtol=1e-12)

    def test_sparse_interval_rejected(self):
        fom = synthetic_trajectory(lambda t: np.array([1.0]), 2)
        with pytest.raises(InvalidInputError):
            linear_bound_constants(np.eye(1), fom, [0.0, 0.5, 1.0])

    def test_experiment_matrix_sigma_dual_backend(self):
        # the stiff preset-A operator: the linear route's Lambda (LAPACK)
        # against the Jacobi SVD
        params = preset("A").params
        matrix = build_fhn(params).structure.apply_linear(np.eye(params.dimension))
        jacobi_sigma = float(svd_one_sided_jacobi(matrix).singular_values[0])
        fom = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, params.dimension)))
        lam = linear_bound_constants(matrix, fom, [0.0, 1.0]).lambda_
        assert abs(lam - jacobi_sigma) <= 1e-8 * jacobi_sigma


class TestBoundConstantsRoute:
    @pytest.mark.parametrize(
        "lam,route", [(0.0, "linear_exact"), (1.0, "sampled_estimate")]
    )
    def test_bound_constants_route(self, monkeypatch, lam, route):
        # The structure attached to every cable system must not send a
        # nonlinear one down the exact (certified) linear route, and the
        # linear route must see the structure's operator as its matrix.
        params = FhnParams(
            L=10,
            X=1.0,
            D1=0.1,
            D2=0.05,
            lam=lam,
            a=0.1,
            mu=1.0,
            gamma=1.0,
            I0=Waveform.sin_squared(1.0),
            IX=Waveform.constant(0.5),
        )
        provenances = []
        matrices = []
        for name in ("linear_bound_constants", "sampled_bound_constants"):
            original = getattr(bounds, name)

            def spy(*args, _original=original, **kwargs):
                constants = _original(*args, **kwargs)
                provenances.append(constants.provenance)
                if constants.provenance == "linear_exact":
                    matrices.append(args[0])
                return constants

            monkeypatch.setattr(bounds, name, spy)
        system = build_fhn(params)
        # 64 uniform samples per snapshot interval of 0.1, as the driver takes
        dense = (0.5 * np.arange(321)) / 320
        fom = integrate(system, np.zeros(params.dimension), 1e-10, 1e-12, dense)
        constants = bound_constants(system, fom, (0.5 * np.arange(6)) / 5)
        assert constants.provenance == route
        assert provenances == [route]
        if lam == 0.0:
            expect = system.structure.apply_linear(np.eye(params.dimension))
            assert len(matrices) == 1 and np.array_equal(matrices[0], expect)


class TestSampledConstants:
    def test_zero_rhs(self):
        system = OdeSystem(
            dimension=2,
            rhs=writes_into(lambda t, x: np.zeros(2)),
            structure=linear_structure(np.zeros((2, 2))),
        )
        fom = synthetic_trajectory(lambda t: np.array([3.0, 4.0]), 129)
        constants = sampled_bound_constants(system, fom, [0.0, 0.5, 1.0])
        assert constants.lambda_ == 0.0
        np.testing.assert_array_equal(constants.psi, 0.0)
        np.testing.assert_array_equal(constants.phi, 0.0)
        np.testing.assert_allclose(constants.theta, 5.0)
        assert constants.provenance == "sampled_estimate"

    def test_exponential_decay_oracle(self):
        system = decay_system()
        fom = synthetic_trajectory(lambda t: np.exp(-t), 129)
        constants = sampled_bound_constants(system, fom, [0.0, 0.5, 1.0])
        expected = np.exp([-0.0, -0.5])
        assert abs(constants.lambda_ - 1.0) <= 1e-4
        np.testing.assert_allclose(constants.psi, expected, rtol=1e-4)
        np.testing.assert_allclose(constants.theta, expected, rtol=1e-12)
        # the third-difference stencil trims 2h at each interval end, so the
        # boundary-attained maximum of |f'''| = e^{-t} sits 2h inside
        np.testing.assert_allclose(constants.phi, expected, rtol=0.05)

    def test_sampling_density_robustness(self):
        system = decay_system()
        coarse = sampled_bound_constants(
            system, synthetic_trajectory(lambda t: np.exp(-t), 65), [0.0, 1.0]
        )
        fine = sampled_bound_constants(
            system, synthetic_trajectory(lambda t: np.exp(-t), 129), [0.0, 1.0]
        )
        assert abs(coarse.lambda_ - fine.lambda_) <= 1e-3 * fine.lambda_
        np.testing.assert_allclose(coarse.psi, fine.psi, rtol=1e-3)
        np.testing.assert_allclose(coarse.theta, fine.theta, rtol=1e-3)
        # boundary trim again: the stencil margin doubles on the coarse grid
        np.testing.assert_allclose(coarse.phi, fine.phi, rtol=0.05)

    @pytest.mark.parametrize("case", ["preset_B", "lam1_cable"])
    def test_exact_jacobian_oracle_on_reaction_diffusion(self, case):
        system, fom, snapshot_times = reaction_diffusion_case(case)
        structure = system.structure
        rng = np.random.default_rng(31)
        h = 1e-5
        for j in np.linspace(0, fom.times.size - 1, 7).astype(int)[1:]:
            t, x = float(fom.times[j]), fom.states[j]
            v = rng.standard_normal(system.dimension)
            fd = (system.rhs(t, x + h * v) - system.rhs(t, x - h * v)) / (2.0 * h)
            exact = structure.apply_jacobian(x, v)
            assert np.max(np.abs(exact - fd)) <= 1e-7 * np.max(np.abs(fd)), t
        constants = sampled_bound_constants(system, fom, snapshot_times)
        assert constants.lambda_ > 0.0 and math.isfinite(constants.lambda_)
        oracle = tangent_difference_psi(system, fom, snapshot_times)
        np.testing.assert_allclose(constants.psi, oracle, rtol=1e-6)

    def test_matches_linear_route_without_cubic(self):
        # preset A has its cubic off, so J(x) = A at every sample
        params = preset("A").params
        system = build_fhn(params)
        grid = np.linspace(0.0, 0.01, 101)
        fom = integrate(system, np.zeros(params.dimension), 1e-10, 1e-12, grid)
        snapshot_times = [0.0, 0.005, 0.01]
        matrix = system.structure.apply_linear(np.eye(params.dimension))
        linear = linear_bound_constants(matrix, fom, snapshot_times)
        sampled = sampled_bound_constants(system, fom, snapshot_times)
        pad = params.dimension * np.finfo(float).eps
        assert sampled.lambda_ < linear.lambda_ <= sampled.lambda_ * (1.0 + 2.0 * pad)
        np.testing.assert_array_equal(sampled.theta, linear.theta)

    def test_nonuniform_grid_rejected(self):
        system = decay_system()
        times = np.array([0.0, 0.1, 0.15, 0.35, 0.5])
        fom = Trajectory(times=times, states=np.exp(-times)[:, None])
        with pytest.raises(InvalidInputError):
            sampled_bound_constants(system, fom, [0.0, 0.5])

    def test_sparse_interval_rejected(self):
        system = decay_system()
        fom = synthetic_trajectory(lambda t: np.exp(-t), 4)
        with pytest.raises(InvalidInputError):
            sampled_bound_constants(system, fom, [0.0, 1.0])

    def test_requires_structure(self):
        system = OdeSystem(dimension=1, rhs=writes_into(lambda t, x: -x))
        fom = synthetic_trajectory(lambda t: np.exp(-t), 9)
        with pytest.raises(InvalidInputError):
            sampled_bound_constants(system, fom, [0.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        system = OdeSystem(
            dimension=2,
            rhs=writes_into(lambda t, x: np.zeros(2)),
            structure=linear_structure(np.zeros((2, 2))),
        )
        fom = synthetic_trajectory(lambda t: np.array([1.0]), 9)
        with pytest.raises(InvalidInputError):
            sampled_bound_constants(system, fom, [0.0, 1.0])
