"""Integration oracles: closed forms, convergence order, exact output landing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import ode
from podrom.errors import (
    ConvergenceError,
    InvalidInputError,
    RhsEvaluationError,
    StiffnessError,
)
from podrom.experiment import preset
from podrom.fhn import build_fhn
from podrom.ode import (
    OdeSystem,
    RhsStructure,
    Trajectory,
    affine_flow,
    integrate,
    sample_rhs,
)


def constant_system(value):
    c = np.asarray(value, dtype=float)
    return OdeSystem(dimension=c.size, rhs=lambda t, x: np.zeros_like(x))


def decay_system():
    return OdeSystem(dimension=1, rhs=lambda t, x: -x)


def rotation_system():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return OdeSystem(dimension=2, rhs=lambda t, x: A @ x)


class TestIntegrate:
    def test_constant_solution_is_exact(self):
        c = np.array([2.5, -1.0, 0.25])
        out = [0.1, 0.37, 1.0]
        traj = integrate(constant_system(c), c, 1e-8, 1e-10, out)
        assert traj.states.shape == (3, 3)
        for row in traj.states:
            assert np.array_equal(row, c)

    def test_exponential_decay_endpoint(self):
        rel = 1e-8
        traj = integrate(decay_system(), np.array([1.0]), rel, 1e-12, [1.0])
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 10.0 * rel

    @pytest.mark.parametrize("rel", [1e-6, 1e-10])
    def test_rotation_half_turn(self, rel):
        # x' = Ax with A = [[0,1],[-1,0]] rotates clockwise: x(t) = (cos t, -sin t).
        traj = integrate(
            rotation_system(), np.array([1.0, 0.0]), rel, rel * 1e-2, [math.pi]
        )
        err = np.linalg.norm(traj.states[-1] - np.array([-1.0, 0.0]))
        assert err <= 10.0 * rel

    def test_rotation_matches_exact_flow(self):
        system = rotation_system()
        x0 = np.array([1.0, 0.0])
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        exact = affine_flow(A, np.zeros(2), x0, [1.0])
        adaptive = integrate(system, x0, 1e-10, 1e-12, [1.0])
        assert np.linalg.norm(exact.states[-1] - adaptive.states[-1]) <= 1e-9

    def test_output_times_returned_bit_for_bit(self):
        out = np.array([0.1 * i for i in range(1, 11)])
        traj = integrate(decay_system(), np.array([1.0]), 1e-9, 1e-12, out)
        assert traj.times.tobytes() == out.tobytes()
        expected = np.exp(-out)
        assert np.allclose(traj.states[:, 0], expected, rtol=1e-7, atol=1e-10)

    def test_initial_time_in_output_times(self):
        x0 = np.array([1.0, 2.0])
        traj = integrate(constant_system(x0), x0, 1e-8, 1e-10, [0.0, 0.5, 1.0])
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.states[0], x0)

    def test_clustered_output_times(self):
        # Forces repeated step truncation far below the natural step size.
        out = np.array([0.5, 0.5 + 1e-7, 0.5 + 2e-7, 0.5 + 3e-7, 1.0])
        traj = integrate(decay_system(), np.array([1.0]), 1e-9, 1e-12, out)
        assert traj.times.tobytes() == out.tobytes()
        assert np.allclose(traj.states[:, 0], np.exp(-out), rtol=1e-7, atol=1e-10)

    def test_blowup_raises_stiffness_error(self):
        system = OdeSystem(dimension=1, rhs=lambda t, x: np.array([1.0 / (0.5 - t)]))
        with pytest.raises(StiffnessError) as info:
            integrate(system, np.array([0.0]), 1e-6, 1e-6, [1.0])
        assert 0.4 < info.value.t < 0.6

    def test_nan_rhs_at_start_raises_evaluation_error(self):
        system = OdeSystem(dimension=1, rhs=lambda t, x: np.array([float("nan")]))
        with pytest.raises(RhsEvaluationError):
            integrate(system, np.array([1.0]), 1e-6, 1e-6, [1.0])

    def test_step_attempt_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEP_ATTEMPTS", 5)
        with pytest.raises(ConvergenceError, match="cap of 5 step attempts at t="):
            integrate(rotation_system(), np.array([1.0, 0.0]), 1e-10, 1e-12, [10.0])

    def test_rhs_arguments_left_unchanged(self):
        # Every state handed to the rhs is a fresh array that the integrator
        # never writes again, so an rhs may keep its argument.
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, -0.5, -3.0]])
        received = []

        def rhs(t, x):
            received.append((x, x.copy()))
            return A @ x + np.sin(t)

        system = OdeSystem(dimension=3, rhs=rhs)
        integrate(system, np.array([1.0, -1.0, 0.5]), 1e-9, 1e-12, [0.5, 1.0, 2.0])
        assert len(received) > 20
        assert len({id(x) for x, _ in received}) == len(received)
        for kept, copy in received:
            assert np.array_equal(kept, copy)

    def test_work_counters_match_a_counting_rhs(self):
        # Van der Pol at a loose tolerance rejects some trial steps.  The
        # recorded call times give each attempt's start t (its second and
        # sixth stages sit at t + 0.2 h and t + h); an attempt was rejected
        # when the next one starts from the same t instead of its endpoint.
        times = []

        def rhs(t, x):
            times.append(t)
            return np.array([x[1], 5.0 * (1.0 - x[0] ** 2) * x[1] - x[0]])

        system = OdeSystem(dimension=2, rhs=rhs)
        traj = integrate(system, np.array([2.0, 0.0]), 1e-6, 1e-8, [5.0, 10.0])
        assert len(times) == 1 + 6 * traj.step_attempts
        attempts = np.array(times[1:]).reshape(-1, 6)
        assert traj.step_attempts == attempts.shape[0]
        step = (attempts[:, 4] - attempts[:, 0]) / 0.8
        start = attempts[:, 4] - step
        end = attempts[:, 5]
        rejected = np.abs(start[1:] - start[:-1]) < np.abs(start[1:] - end[:-1])
        assert traj.rejected_steps == int(np.count_nonzero(rejected)) > 0

    def test_work_counters_default_to_zero(self):
        traj = Trajectory(times=np.array([0.0]), states=np.zeros((1, 2)))
        assert (traj.step_attempts, traj.rejected_steps) == (0, 0)
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0]), states=np.zeros((1, 2)), step_attempts=-1)

    def test_rejects_bad_arguments(self):
        system = decay_system()
        x0 = np.array([1.0])
        with pytest.raises(InvalidInputError, match=">= 0"):
            integrate(system, x0, 1e-6, 1e-6, [-0.5, 0.5])
        with pytest.raises(InvalidInputError):
            integrate(system, x0, 0.0, 1e-6, [0.5])
        with pytest.raises(InvalidInputError):
            integrate(system, x0, 1e-6, -1.0, [0.5])
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="positive and finite"):
                integrate(system, x0, bad, 1e-6, [0.5])
            with pytest.raises(InvalidInputError, match="positive and finite"):
                integrate(system, x0, 1e-6, bad, [0.5])
        with pytest.raises(InvalidInputError):
            integrate(system, x0, 1e-6, 1e-6, [0.7, 0.3])
        with pytest.raises(InvalidInputError):
            integrate(system, x0, 1e-6, 1e-6, [0.3, 0.3])
        with pytest.raises(InvalidInputError):
            integrate(system, x0, 1e-6, 1e-6, [])
        with pytest.raises(InvalidInputError):
            integrate(system, np.array([1.0, 2.0]), 1e-6, 1e-6, [0.5])

    def test_initial_time_alone_returns_x0(self):
        # the grid [0.0] is a solve of length zero, as in affine_flow
        x0 = np.array([1.0, -2.0])
        traj = integrate(constant_system(np.array([3.0, 4.0])), x0, 1e-6, 1e-6, [0.0])
        np.testing.assert_array_equal(traj.times, [0.0])
        np.testing.assert_array_equal(traj.states, [x0])
        assert (traj.step_attempts, traj.rejected_steps) == (0, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_landing_on_arbitrary_grids(self, raw_times):
        out = np.array(sorted(raw_times))
        c = np.array([3.0])
        traj = integrate(constant_system(c), c, 1e-8, 1e-10, out)
        assert traj.times.tobytes() == out.tobytes()
        assert np.all(traj.states[:, 0] == 3.0)


class TestAffineFlow:
    @pytest.mark.parametrize("a", [-1.7, 0.8])
    def test_scalar_closed_form(self, a):
        # x' = a x + c: x(t) = e^{at} x0 + (e^{at} - 1) c / a.
        c, x0 = 0.9, 0.4
        times = np.linspace(0.0, 2.0, 101)
        traj = affine_flow([[a]], [c], [x0], times)
        growth = np.exp(a * times)
        exact = growth * x0 + (growth - 1.0) * c / a
        np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-13, atol=0.0)
        assert np.array_equal(traj.times, times)
        assert traj.states[0, 0] == x0
        assert (traj.step_attempts, traj.rejected_steps) == (0, 0)

    def test_non_uniform_grid(self):
        # K = -0.3 I + 2 J with J the rotation generator, so
        # e^{tK} = e^{-0.3 t} R(2t), and x(t) = e^{tK} (x0 + K^-1 c) - K^-1 c.
        K = np.array([[-0.3, 2.0], [-2.0, -0.3]])
        c = np.array([1.0, -0.5])
        x0 = np.array([0.2, 0.7])
        times = np.array([0.1, 0.15, 0.4, 1.0, 1.01, 2.5, 7.0])
        traj = affine_flow(K, c, x0, times)
        rest = np.linalg.solve(K, c)
        for t, state in zip(times, traj.states):
            rot = np.array([[math.cos(2 * t), math.sin(2 * t)], [-math.sin(2 * t), math.cos(2 * t)]])
            exact = math.exp(-0.3 * t) * rot @ (x0 + rest) - rest
            np.testing.assert_allclose(state, exact, rtol=0.0, atol=1e-14)

    def test_one_exponential_per_interval_length(self, monkeypatch):
        calls = []
        original = ode.expm

        def counting_expm(A):
            calls.append(A.shape)
            return original(A)

        monkeypatch.setattr(ode, "expm", counting_expm)
        times = (0.5 * np.arange(400)) / 399
        affine_flow(-np.eye(3), np.ones(3), np.zeros(3), times)
        assert len(calls) == np.unique(np.diff(times)).size == 3
        assert calls[0] == (4, 4)

    @pytest.mark.parametrize(
        "rate,times",
        [
            (50.0, np.linspace(0.0, 20.0, 41)),  # finite steps, the state overflows
            (1e3, np.array([1.0])),  # the step itself overflows
        ],
        ids=["state", "step"],
    )
    def test_unstable_flow_raises_evaluation_error(self, rate, times):
        with pytest.raises(RhsEvaluationError):
            affine_flow([[rate]], [0.0], [1.0], times)

    @pytest.mark.parametrize(
        "matrix,shift,x0,times",
        [
            (np.zeros((2, 3)), [0.0, 0.0], [0.0, 0.0], [1.0]),
            (np.zeros((2, 2)), [0.0], [0.0, 0.0], [1.0]),
            (np.zeros((2, 2)), [0.0, 0.0], [0.0], [1.0]),
            (np.zeros((2, 2)), [0.0, math.nan], [0.0, 0.0], [1.0]),
            (np.zeros((2, 2)), [0.0, 0.0], [0.0, 0.0], [-0.25, 1.0]),
            (np.zeros((2, 2)), [0.0, 0.0], [0.0, 0.0], [1.0, 0.5]),
        ],
        ids=["non-square", "shift", "x0", "nan-shift", "negative-time", "grid"],
    )
    def test_rejects_bad_arguments(self, matrix, shift, x0, times):
        with pytest.raises(InvalidInputError):
            affine_flow(matrix, shift, x0, times)


class TestExactOracle:
    def test_preset_a_truth_within_its_error_control(self):
        # Preset A is x' = A x + b with b constant, so its exact flow is an
        # oracle for the DP5 truth at the acceptance tolerances, on the
        # evaluation grid.  Each accepted step's local error d has scaled
        # RMS at most 1, so |d|_inf <= sqrt(n) (abs_tol + rel_tol max|x|);
        # the error propagates by e^{tA}, and |e^{tA}|_inf <= e^{mu t} with
        # mu the infinity-norm logarithmic norm of A.  The global error is
        # at most the sum of the propagated local errors.  (The step is set
        # by stability, not accuracy, so the gap sits far below this: 3.4e-12
        # against max|x| = 15.3.)  At least the controller's target must
        # hold too: a controlled solve lands within a modest multiple of
        # rel_tol max|x|, here 100.
        spec = preset("A")
        system = build_fhn(spec.params)
        structure = system.structure
        assert structure.linear_time_invariant
        n = system.dimension
        A = structure.apply_linear(np.eye(n))
        b = structure.forcing_vectors @ np.asarray(structure.forcing_signals(0.0))
        times = (spec.final_time * np.arange(400)) / 399
        rel_tol, abs_tol = 1e-13, 1e-15
        truth = integrate(system, np.zeros(n), rel_tol, abs_tol, times)
        exact = affine_flow(A, b, np.zeros(n), times)

        gap = np.max(np.abs(truth.states - exact.states))
        peak = np.max(np.abs(exact.states))
        mu = np.max(np.diag(A) + np.sum(np.abs(A), axis=1) - np.abs(np.diag(A)))
        accepted = truth.step_attempts - truth.rejected_steps
        local = math.sqrt(n) * (abs_tol + rel_tol * peak)
        assert gap <= math.exp(mu * spec.final_time) * accepted * local
        assert gap <= 100.0 * rel_tol * peak


class TestSampleRhs:
    def test_zero_system_gives_zero_matrix(self):
        c = np.array([1.0, -2.0])
        traj = Trajectory(times=np.array([0.0, 0.5, 1.0]), states=np.tile(c, (3, 1)))
        sampled = sample_rhs(constant_system(c), traj)
        assert sampled.shape == (2, 3)
        assert np.all(sampled == 0.0)

    def test_decay_columns(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.array([[1.0], [math.exp(-1.0)]]),
        )
        sampled = sample_rhs(decay_system(), traj)
        assert sampled[0, 0] == -1.0
        assert sampled[0, 1] == -math.exp(-1.0)

    def test_orientation_dimension_by_samples(self):
        system = OdeSystem(dimension=3, rhs=lambda t, x: x + t)
        states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states)
        sampled = sample_rhs(system, traj)
        assert sampled.shape == (3, 2)
        assert np.array_equal(sampled[:, 0], states[0])
        assert np.array_equal(sampled[:, 1], states[1] + 1.0)

    def test_nan_raises_evaluation_error(self):
        system = OdeSystem(dimension=1, rhs=lambda t, x: np.array([float("nan")]))
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]))
        with pytest.raises(RhsEvaluationError):
            sample_rhs(system, traj)

    def test_dimension_mismatch(self):
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0, 2.0]]))
        with pytest.raises(InvalidInputError):
            sample_rhs(decay_system(), traj)


class TestTypes:
    def test_trajectory_keeps_read_only_views(self):
        c = np.array([2.5, -1.0])
        traj = integrate(constant_system(c), c, 1e-8, 1e-10, [0.5, 1.0])
        for array in (traj.times, traj.states):
            # a view of the integrator's own buffer, not a copy of it
            assert not array.flags.owndata
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        wrapped = Trajectory(times=traj.times, states=traj.states)
        assert np.shares_memory(wrapped.times, traj.times)
        assert np.shares_memory(wrapped.states, traj.states)

    def test_trajectory_rejects_unsorted_times(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0, 0.5, 0.4]), states=np.zeros((3, 1)))

    def test_trajectory_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))

    def test_trajectory_rejects_non_finite_states(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0]), states=np.array([[float("inf")]]))

    def test_system_rejects_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            OdeSystem(dimension=0, rhs=lambda t, x: x)

    @pytest.mark.parametrize(
        "lift",
        [
            np.zeros((1, 2)),  # fewer rows than columns
            np.zeros((4, 3)),  # a column count other than the dimension
            np.zeros(4),  # not 2-D
            np.array([[1.0, 0.0], [0.0, float("nan")], [0.0, 0.0]]),
            np.array([[float("inf"), 0.0], [0.0, 1.0], [0.0, 0.0]]),
        ],
    )
    def test_system_rejects_bad_lift(self, lift):
        with pytest.raises(InvalidInputError):
            OdeSystem(dimension=2, rhs=lambda t, x: x, lift=lift)

    def test_system_keeps_lift_read_only(self):
        lift = np.eye(3)[:, :2]
        system = OdeSystem(dimension=2, rhs=lambda t, x: x, lift=lift)
        assert np.array_equal(system.lift, lift)
        assert not system.lift.flags.writeable

    def test_structure_needs_one_signal_per_forcing_vector(self):
        # Evaluated once at t = 0: one value for two forcing vectors.
        with pytest.raises(InvalidInputError):
            RhsStructure(
                apply_linear=lambda x: x,
                cubic_rows=slice(0, 1),
                cubic_scale=-1.0,
                cubic_root=1.0,
                forcing_vectors=np.zeros((2, 2)),
                forcing_signals=lambda t: (math.sin(t),),
                forcing_rates=lambda t: (math.cos(t), math.cos(t)),
            )

    @pytest.mark.parametrize("rates", [(0.5,), (0.5, 0.5, 0.5), (math.cos, math.cos)])
    def test_structure_needs_one_callable_rate_per_forcing_vector(self, rates):
        # A callable giving one value or three for two forcing vectors, and
        # the tuple-of-callables form, which is not one callable.
        forcing_rates = rates if callable(rates[0]) else (lambda t: rates)
        with pytest.raises(InvalidInputError):
            RhsStructure(
                apply_linear=lambda x: x,
                cubic_rows=slice(0, 1),
                cubic_scale=-1.0,
                cubic_root=1.0,
                forcing_vectors=np.zeros((2, 2)),
                forcing_signals=lambda t: (math.sin(t), math.cos(t)),
                forcing_rates=forcing_rates,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_structure_rejects_non_finite_signals(self, value):
        with pytest.raises(InvalidInputError):
            RhsStructure(
                apply_linear=lambda x: x,
                cubic_rows=slice(0, 1),
                cubic_scale=-1.0,
                cubic_root=1.0,
                forcing_vectors=np.zeros((2, 1)),
                forcing_signals=lambda t: (value,),
                forcing_rates=lambda t: (0.0,),
            )

    def test_constant_forcing_needs_zero_rates(self):
        kwargs = dict(
            apply_linear=lambda x: x,
            cubic_rows=slice(0, 1),
            cubic_scale=0.0,
            cubic_root=1.0,
            forcing_vectors=np.ones((2, 1)),
            forcing_signals=lambda t: (2.0,),
            forcing_constant=True,
        )
        assert RhsStructure(forcing_rates=lambda t: (0.0,), **kwargs).forcing_constant
        assert not RhsStructure(
            forcing_rates=lambda t: (0.0,), **{**kwargs, "forcing_constant": False}
        ).forcing_constant
        with pytest.raises(InvalidInputError):
            RhsStructure(forcing_rates=lambda t: (0.5,), **kwargs)

    def test_nonzero_cubic_scale_is_neither_affine_nor_time_invariant(self):
        structure = RhsStructure(
            apply_linear=lambda x: x,
            cubic_rows=slice(0, 1),
            cubic_scale=-1.0,
            cubic_root=1.0,
            forcing_vectors=np.ones((2, 1)),
            forcing_signals=lambda t: (2.0,),
            forcing_rates=lambda t: (0.0,),
            forcing_constant=True,
        )
        assert not structure.affine
        assert not structure.linear_time_invariant
        zero = dataclasses.replace(structure, cubic_scale=0.0)
        assert zero.affine and zero.linear_time_invariant

    def test_system_rejects_structure_of_other_dimension(self):
        structure = RhsStructure(
            apply_linear=lambda x: x,
            cubic_rows=slice(0, 1),
            cubic_scale=-1.0,
            cubic_root=1.0,
            forcing_vectors=np.zeros((3, 1)),
            forcing_signals=lambda t: (math.sin(t),),
            forcing_rates=lambda t: (math.cos(t),),
        )
        with pytest.raises(InvalidInputError):
            OdeSystem(dimension=2, rhs=lambda t, x: x, structure=structure)
