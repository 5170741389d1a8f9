"""Integration oracles: closed forms, convergence order, exact output landing."""

import dataclasses
import math
import tracemalloc
import warnings

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
from podrom.pod import PodBasis, solve_rom_lifted
from podrom.ode import (
    OdeSystem,
    RhsStructure,
    Trajectory,
    affine_flow,
    integrate,
    sample_rhs,
)

from conftest import linear_structure, plain_dp5, writes_into


def constant_system(value):
    c = np.asarray(value, dtype=float)
    return OdeSystem(dimension=c.size, rhs=writes_into(lambda t, x: np.zeros_like(x)))


def decay_system():
    return OdeSystem(dimension=1, rhs=writes_into(lambda t, x: -x))


def rotation_system():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return OdeSystem(dimension=2, rhs=writes_into(lambda t, x: A @ x))


def solve(route, system, x0, rel_tol, abs_tol, output_times):
    """A solve by one of the two kernels under the one DP5 controller.

    Route "full" is ``integrate``; route "galerkin" is the fused kernel that
    ``pod.solve_rom_lifted`` runs on a structured system that is not linear
    time-invariant, on any basis; here on that of its first two coordinates.
    """
    if route == "full":
        return integrate(system, x0, rel_tol, abs_tol, output_times)
    assert system.dimension > 2 and not system.structure.linear_time_invariant
    basis = PodBasis(reduced_vectors=np.eye(system.dimension)[:, :2], sigma_next=0.0)
    return solve_rom_lifted(system, basis, x0, output_times, rel_tol, abs_tol)


def linear_system(A):
    """x' = A x with its structure."""
    return OdeSystem(
        dimension=A.shape[0], rhs=writes_into(lambda t, x: A @ x), structure=linear_structure(A)
    )


def cubic_system(n, scale):
    """x' = scale * x^3 on every row, with its structure."""
    structure = RhsStructure(
        apply_linear=lambda x: np.zeros_like(x),
        cubic_rows=slice(0, n),
        cubic_scale=scale,
        cubic_root=0.0,
        forcing_vectors=np.zeros((n, 1)),
        forcing_signals=lambda t: (0.0,),
        forcing_rates=lambda t: (0.0,),
    )
    return OdeSystem(dimension=n, rhs=writes_into(lambda t, x: scale * x**3), structure=structure)


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
        # x' = 1 / (0.5 - t) from 0, and the reduced z' = 1e-200 z^3 from
        # 1e100, both blow up at t = 0.5.  The cube overflows once z passes
        # 6e102, near t = 0.499998, and such trial steps are rejected
        # without a warning.
        cases = {
            "full": (
                OdeSystem(dimension=1, rhs=writes_into(lambda t, x: np.array([1.0 / (0.5 - t)]))),
                np.array([0.0]),
            ),
            "galerkin": (cubic_system(3, scale=1e-200), np.array([1e100, 0.0, 0.0])),
        }
        for route, (system, x0) in cases.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(StiffnessError) as info:
                    solve(route, system, x0, 1e-6, 1e-6, [1.0])
            assert 0.4 < info.value.t < 0.6, route

    def test_nan_rhs_at_start_raises_evaluation_error(self):
        # On the Galerkin route a NaN in A makes the projected U^T A U NaN.
        A = np.diag([float("nan"), -1.0, -2.0])
        cases = {
            "full": OdeSystem(dimension=1, rhs=writes_into(lambda t, x: np.array([float("nan")]))),
            "galerkin": linear_system(A),
        }
        for route, system in cases.items():
            with pytest.raises(RhsEvaluationError, match="not finite at t=0.0"):
                solve(route, system, np.ones(system.dimension), 1e-6, 1e-6, [1.0])

    def test_step_attempt_cap_raises_convergence_error(self, monkeypatch):
        # The cap is read where the shared step controller reads it.
        monkeypatch.setattr(ode, "MAX_STEP_ATTEMPTS", 5)
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        cases = {
            "full": (rotation_system(), np.array([1.0, 0.0])),
            "galerkin": (linear_system(A), np.array([1.0, 0.0, 0.0])),
        }
        for route, (system, x0) in cases.items():
            with pytest.raises(ConvergenceError, match="cap of 5 step attempts at t="):
                solve(route, system, x0, 1e-10, 1e-12, [10.0])

    def test_rhs_arguments_left_unchanged(self):
        # Every state handed to the rhs is a fresh array that the integrator
        # never writes again, so an rhs may keep its argument.
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, -0.5, -3.0]])
        received = []

        def rhs(t, x):
            received.append((x, x.copy()))
            return A @ x + np.sin(t)

        system = OdeSystem(dimension=3, rhs=writes_into(rhs))
        integrate(system, np.array([1.0, -1.0, 0.5]), 1e-9, 1e-12, [0.5, 1.0, 2.0])
        assert len(received) > 20
        assert len({id(x) for x, _ in received}) == len(received)
        for kept, copy in received:
            assert np.array_equal(kept, copy)

    def test_rhs_must_return_its_out(self):
        # An rhs that returns a fresh array, as a two-argument lambda would,
        # leaves its stage row or sample unwritten: an error, at the first
        # call or at a later one.
        def returning(t, x, out=None):
            return -x

        def late(t, x, out=None):
            out[...] = -x
            return out if t == 0.0 else out.copy()

        for rhs in (returning, late):
            system = OdeSystem(dimension=2, rhs=rhs)
            with pytest.raises(InvalidInputError, match="into its out argument"):
                integrate(system, np.array([1.0, 2.0]), 1e-8, 1e-10, [1.0])
        traj = Trajectory(times=np.array([0.0, 1.0]), states=np.ones((2, 2)))
        with pytest.raises(InvalidInputError, match="into its out argument"):
            sample_rhs(OdeSystem(dimension=2, rhs=returning), traj)

    def test_work_counters_match_a_counting_rhs(self):
        # Van der Pol at a loose tolerance rejects some trial steps.  The
        # recorded call times give each attempt's start t (its second and
        # sixth stages sit at t + 0.2 h and t + h); an attempt was rejected
        # when the next one starts from the same t instead of its endpoint.
        times = []

        def rhs(t, x):
            times.append(t)
            return np.array([x[1], 5.0 * (1.0 - x[0] ** 2) * x[1] - x[0]])

        system = OdeSystem(dimension=2, rhs=writes_into(rhs))
        traj = integrate(system, np.array([2.0, 0.0]), 1e-6, 1e-8, [5.0, 10.0])
        assert len(times) == 1 + 6 * traj.step_attempts
        attempts = np.array(times[1:]).reshape(-1, 6)
        assert traj.step_attempts == attempts.shape[0]
        step = (attempts[:, 4] - attempts[:, 0]) / 0.8
        start = attempts[:, 4] - step
        end = attempts[:, 5]
        rejected = np.abs(start[1:] - start[:-1]) < np.abs(start[1:] - end[:-1])
        assert traj.rejected_steps == int(np.count_nonzero(rejected)) > 0

    def test_invariant_coordinates_take_the_full_solve_steps(self):
        # Forcing and initial state sit on 4 of 12 coordinates of a diagonal
        # system, so the other 8 stay exactly 0 and the identity columns U of
        # those 4 span an invariant subspace.  The reference loop's lifted
        # error test on the Galerkin system U^T f(t, U z) with lift U then
        # sees the full solve's numbers, step for step.  The forcing stops
        # at t = 1.1, between output times, so some steps are rejected.
        n = 12
        kept = [1, 4, 7, 10]
        rates = -np.linspace(0.5, 6.0, n)
        drive = np.zeros(n)
        drive[kept] = [1.0, -2.0, 0.5, 3.0]

        def rhs(t, x):
            return rates * x + drive * (math.cos(2.0 * t) if t < 1.1 else 0.0)

        U = np.eye(n)[:, kept]
        x0 = np.zeros(n)
        x0[kept] = [0.3, -0.1, 1.0, 0.0]
        out = np.linspace(0.0, 2.0, 9)[1:]
        full, attempts, rejected = plain_dp5(rhs, x0, 1e-10, 1e-12, out)
        lifted, lifted_attempts, lifted_rejected = plain_dp5(
            lambda t, z: U.T @ rhs(t, U @ z), U.T @ x0, 1e-10, 1e-12, out, lift=U
        )
        assert lifted_attempts == attempts
        assert lifted_rejected == rejected > 0
        np.testing.assert_allclose(lifted @ U.T, full, rtol=1e-14, atol=0.0)

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

    # A 3-state structure with one cubic row (p = 1) and one signal (k = 1),
    # reduced onto 2 basis columns (the model's lift): blocks is 2 x 4 and
    # rows 1 x 2.  Each case below changes one argument.
    GALERKIN = dict(
        apply_linear=lambda x: np.diag([0.5, -1.0, -2.0]) @ x,
        signals=lambda t: (math.sin(t),),
        lift=np.eye(3)[:, :2],
        z0=np.array([0.2, -0.1]),
    )

    @staticmethod
    def galerkin_model(args):
        structure = RhsStructure(
            apply_linear=args["apply_linear"],
            cubic_rows=slice(0, 1),
            cubic_scale=-1.0,
            cubic_root=0.3,
            forcing_vectors=np.array([[1.0], [0.0], [0.0]]),
            forcing_signals=args["signals"],
            forcing_rates=lambda t: (math.cos(t),),
        )
        return structure.project(args["lift"])

    @pytest.mark.parametrize(
        "bad",
        [
            dict(apply_linear=lambda x: np.zeros(3)),
            dict(apply_linear=lambda x: np.zeros((4, 2)).tolist()),
            dict(apply_linear=lambda x: [[0.5, 0.0], [0.0, -1.0], [0.0]]),
            dict(lift=np.array([[1.0, 0.0], [0.0, float("nan")], [0.0, 0.0]])),
            dict(lift=np.array([[float("inf"), 0.0], [0.0, 1.0], [0.0, 0.0]])),
            dict(lift=np.zeros(3)),
            dict(z0=np.array([0.2, -0.1, 0.0])),
            dict(lift=np.eye(4)[:, :2]),
            dict(lift=np.hstack((np.eye(3), np.zeros((3, 1))))),
            dict(signals=lambda t: (1.0, 2.0)),
            dict(lift=[[1.0, 0.0], [0.0, 1.0], [0.0]]),
        ],
        ids=[
            "1-D-blocks",
            "list-blocks-of-other-shape",
            "ragged-blocks",
            "nan-lift",
            "inf-lift",
            "1-D-lift",
            "lift-of-other-width",
            "lift-of-other-height",
            "lift-with-fewer-rows-than-columns",
            "two-signals-for-one-column",
            "ragged-lift",
        ],
    )
    def test_galerkin_rejects_bad_arguments(self, bad):
        # The model's blocks come from apply_linear(U), so a malformed
        # result of it is a malformed block.  RhsStructure.project rejects
        # every case but two: integrate_galerkin rejects a z0 without one
        # entry per column of the lift (lift-of-other-width), and a model
        # whose signals do not fit its forcing cannot be built, since
        # RhsStructure rejects them (two-signals-for-one-column).
        args = dict(self.GALERKIN, **bad)
        with pytest.raises(InvalidInputError):
            model = self.galerkin_model(args)
            ode.integrate_galerkin(model, args["z0"], 1e-8, 1e-10, [0.5])

    def test_galerkin_takes_array_likes(self):
        # A nested-list basis is taken as the array it spells, as every
        # other matrix argument in ode is, and gives the same model.
        args = self.GALERKIN
        expect = self.galerkin_model(args)
        got = self.galerkin_model(dict(args, lift=args["lift"].tolist()))
        for name in ("lift", "rows", "blocks"):
            assert getattr(got, name).tobytes() == getattr(expect, name).tobytes(), name
        solves = [ode.integrate_galerkin(m, args["z0"], 1e-8, 1e-10, [0.5]) for m in (got, expect)]
        assert np.array_equal(solves[0].states, solves[1].states)
        assert solves[0].step_attempts == solves[1].step_attempts > 0

    def test_galerkin_model_parts_are_views_of_blocks(self):
        # blocks = [scale U_c^T | U^T B | U^T A U]
        model = self.galerkin_model(self.GALERKIN)
        U = self.GALERKIN["lift"]
        A = np.diag([0.5, -1.0, -2.0])
        assert np.array_equal(model.blocks[:, :1], -1.0 * U[:1].T)
        B = np.array([[1.0], [0.0], [0.0]])
        for part, expect in ((model.forcing, U.T @ B), (model.linear, U.T @ A @ U)):
            assert part.tobytes() == expect.tobytes()
            assert np.shares_memory(part, model.blocks)

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


def van_der_pol():
    """Van der Pol at mu = 5, which rejects some trial steps at a loose tolerance."""
    return OdeSystem(
        dimension=2,
        rhs=writes_into(lambda t, x: np.array([x[1], 5.0 * (1.0 - x[0] ** 2) * x[1] - x[0]])),
    )


class TestSink:
    """``integrate(..., sink=...)`` hands each output state over as it lands."""

    OUT = np.linspace(0.0, 10.0, 41)

    def solve(self, sink=None):
        return integrate(van_der_pol(), np.array([2.0, 0.0]), 1e-6, 1e-8, self.OUT, sink=sink)

    def test_every_index_once_in_order_as_a_fresh_array(self):
        plain = self.solve()
        seen = []
        end = self.solve(lambda index, state: seen.append((index, state)))
        assert [index for index, _ in seen] == list(range(self.OUT.size))
        states = [state for _, state in seen]
        # kept past the solve, each state still holds its own values
        assert np.array_equal(np.array(states), plain.states)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(states) for b in states[i + 1 :]
        )
        assert (end.step_attempts, end.rejected_steps) == (
            plain.step_attempts,
            plain.rejected_steps,
        )
        assert plain.rejected_steps > 0
        # the returned trajectory holds the last output time and state only
        assert np.array_equal(end.times, plain.times[-1:])
        assert np.array_equal(end.states, plain.states[-1:])

    def test_no_array_of_every_state(self):
        # The stored solve allocates the out.size x n array; with a sink the
        # peak stays under a quarter of it.
        n = 64
        system = linear_system(-np.diag(np.linspace(1.0, 2.0, n)))
        out = np.linspace(0.0, 1.0, 4000)
        full = out.size * n * 8

        def peak(sink):
            tracemalloc.start()
            try:
                integrate(system, np.ones(n), 1e-6, 1e-8, out, sink=sink)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(None) >= full
        assert peak(lambda index, state: None) < full / 4


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
            ([[1.0, 2.0], [3.0]], [0.0, 0.0], [0.0, 0.0], [1.0]),
            (np.zeros((2, 2)), [[0.0], [0.0, 1.0]], [0.0, 0.0], [1.0]),
            (np.zeros((2, 2)), [0.0, 0.0], [[0.0, 1.0], 0.0], [1.0]),
            (np.zeros((2, 2)), [0.0, 0.0], [0.0, 0.0], [[0.5], [1.0, 2.0]]),
        ],
        ids=[
            "non-square", "shift", "x0", "nan-shift", "negative-time", "grid",
            "ragged-matrix", "ragged-shift", "ragged-x0", "ragged-grid",
        ],
    )
    def test_rejects_bad_arguments(self, matrix, shift, x0, times):
        with pytest.raises(InvalidInputError):
            affine_flow(matrix, shift, x0, times)


class TestTruthBits:
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_integrate_bit_equal_to_plain_loop(self, name):
        # The truth's arithmetic, pinned: a short solve at the acceptance
        # tolerances equals the plain loop to the bit, on the cubic-free
        # preset A and on preset B.
        system = build_fhn(preset(name).params)
        out = np.linspace(0.0, 0.05, 6)[1:]
        x0 = np.zeros(system.dimension)
        truth = integrate(system, x0, 1e-13, 1e-15, out)
        states, attempts, rejected = plain_dp5(system.rhs, x0, 1e-13, 1e-15, out)
        assert (truth.step_attempts, truth.rejected_steps) == (attempts, rejected)
        assert np.array_equal(truth.states, states)


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
        system = OdeSystem(dimension=3, rhs=writes_into(lambda t, x: x + t))
        states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states)
        sampled = sample_rhs(system, traj)
        assert sampled.shape == (3, 2)
        assert np.array_equal(sampled[:, 0], states[0])
        assert np.array_equal(sampled[:, 1], states[1] + 1.0)

    def test_nan_raises_evaluation_error(self):
        system = OdeSystem(
            dimension=1, rhs=writes_into(lambda t, x: np.array([math.nan]) if t > 0.25 else x)
        )
        traj = Trajectory(times=np.array([0.0, 0.5]), states=np.array([[1.0], [1.0]]))
        with pytest.raises(RhsEvaluationError, match=r"^rhs is not finite at t=0\.5$"):
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
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0, 1.0]), states=[[1.0], [1.0, 2.0]])

    def test_trajectory_rejects_non_finite_states(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=np.array([0.0]), states=np.array([[float("inf")]]))

    def test_trajectory_rows_of_a_subgrid(self):
        times = np.array([0.0, 0.1, 0.25, 0.3, 0.5])
        traj = Trajectory(times=times, states=np.zeros((5, 1)))
        np.testing.assert_array_equal(traj.rows([0.1, 0.3, 0.5]), [1, 3, 4])
        for off_grid in ([0.1, np.nextafter(0.3, 1.0)], [0.0, 0.6], [0.3, 0.1]):
            with pytest.raises(InvalidInputError):
                traj.rows(off_grid)

    def test_system_rejects_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            OdeSystem(dimension=0, rhs=writes_into(lambda t, x: x))

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

    @pytest.mark.parametrize("name", ["forcing_vectors", "forcing_signals", "forcing_rates"])
    def test_structure_rejects_ragged_forcing(self, name):
        # a ragged nested list is an InvalidInputError, not numpy's ValueError
        kwargs = dict(
            apply_linear=lambda x: x,
            cubic_rows=slice(0, 1),
            cubic_scale=-1.0,
            cubic_root=1.0,
            forcing_vectors=np.zeros((2, 1)),
            forcing_signals=lambda t: (1.0,),
            forcing_rates=lambda t: (0.0,),
        )
        if name == "forcing_vectors":
            kwargs[name] = [[1.0], [1.0, 2.0]]
        else:
            kwargs[name] = lambda t: [[1.0], [1.0, 2.0]]
        with pytest.raises(InvalidInputError, match=f"{name} is not a real array"):
            RhsStructure(**kwargs)

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
            OdeSystem(dimension=2, rhs=writes_into(lambda t, x: x), structure=structure)
