"""Cable-system oracles: stencil, linear operator, affine consistency; the
bundled presets' coefficient sets and schedules."""

import dataclasses
import math

import numpy as np
import pytest

from podrom.errors import InvalidInputError
from podrom.experiment import preset
from podrom.fhn import (
    FhnParams,
    Waveform,
    build_fhn,
)
from podrom.ode import OdeSystem, integrate


def tiny_params(**overrides):
    base = dict(
        L=2,
        X=2.0,
        D1=1.0,
        D2=0.0,
        lam=0.0,
        a=0.1,
        mu=0.0,
        gamma=0.0,
        I0=Waveform.constant(0.0),
        IX=Waveform.constant(0.0),
    )
    base.update(overrides)
    return FhnParams(**base)


def linear_parts(params):
    """A and b(t) of a lam = 0 system, x' = A x + b(t), from its structure."""
    structure = build_fhn(params).structure
    matrix = structure.apply_linear(np.eye(params.dimension))

    def forcing(t):
        return structure.forcing_vectors @ np.array(structure.forcing_signals(t))

    return matrix, forcing


class TestWaveform:
    def test_constant(self):
        wave = Waveform.constant(2.5)
        assert wave(0.0) == 2.5
        assert wave(17.3) == 2.5
        assert wave.derivative(17.3) == 0.0

    def test_sin_squared(self):
        wave = Waveform.sin_squared(1.5)
        assert wave(0.0) == 0.0
        t = 0.7
        assert abs(wave(t) - 1.5 * math.sin(t) ** 2) <= 1e-15
        # Derivative oracle by central difference.
        h = 1e-6
        approx = (wave(t + h) - wave(t - h)) / (2.0 * h)
        assert abs(wave.derivative(t) - approx) <= 1e-8

    @pytest.mark.parametrize(
        "wave",
        [Waveform.constant(2.5), Waveform.sin_squared(1.5)],
        ids=["constant", "sin_squared"],
    )
    def test_second_derivative_by_central_difference(self, wave):
        h = 1e-6
        for t in (0.0, 0.7, 2.9):
            approx = (wave.derivative(t + h) - wave.derivative(t - h)) / (2.0 * h)
            assert abs(wave.second_derivative(t) - approx) <= 1e-8

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            Waveform(kind="sawtooth", amplitude=1.0)


class TestFhnParams:
    def test_dimension(self):
        assert tiny_params().dimension == 6

    def test_rejects_small_grid(self):
        with pytest.raises(InvalidInputError):
            tiny_params(L=1, X=1.0)

    def test_spacing_is_length_over_intervals(self):
        assert tiny_params(L=7, X=3.5).dx == 0.5
        for length in (0.0, -2.0):
            with pytest.raises(InvalidInputError):
                tiny_params(X=length)

    def test_rejects_negative_diffusion(self):
        with pytest.raises(InvalidInputError):
            tiny_params(D1=-1.0)


class TestBuildFhn:
    def test_quiet_equilibrium(self):
        # No reaction, no injected current: the zero state is stationary.
        system = build_fhn(tiny_params())
        state = np.zeros(6)
        assert np.all(system.rhs(0.0, state) == 0.0)

    def test_left_current_enters_wall_component_only(self):
        params = tiny_params(I0=Waveform.constant(1.0))
        system = build_fhn(params)
        out = system.rhs(0.0, np.zeros(6))
        expect = params.D1 / params.dx
        assert abs(out[0] - expect) <= 1e-12 * expect
        assert np.all(out[1:] == 0.0)

    def test_right_current_sign(self):
        params = tiny_params(IX=Waveform.constant(2.0))
        system = build_fhn(params)
        out = system.rhs(0.0, np.zeros(6))
        assert abs(out[2] + 2.0 * params.D1 / params.dx) <= 1e-12 * 2.0 * params.D1 / params.dx
        assert out[0] == 0.0

    def test_pinned_recovery_rows_follow_waveform(self):
        params = tiny_params(w0=Waveform.sin_squared(2.0), wX=Waveform.constant(3.0))
        system = build_fhn(params)
        out = system.rhs(0.4, np.zeros(6))
        assert abs(out[3] - 2.0 * math.sin(0.8)) <= 1e-15
        assert out[5] == 0.0

    def test_cubic_reaction_term(self):
        params = tiny_params(lam=2.0, a=0.1, D1=0.0, X=2.0)
        system = build_fhn(params)
        state = np.array([0.3, -0.2, 0.5, 0.1, 0.0, -0.4])
        out = system.rhs(0.0, state)
        for j in range(3):
            v = state[j]
            w = state[3 + j]
            expect = 2.0 * (v * (1.0 - v) * (v - 0.1) - w)
            assert abs(out[j] - expect) <= 1e-14

    def test_recovery_coupling(self):
        params = tiny_params(mu=3.0, gamma=7.0, D1=0.0, D2=0.0)
        system = build_fhn(params)
        state = np.array([0.0, 0.5, 0.0, 0.0, 0.25, 0.0])
        out = system.rhs(0.0, state)
        assert abs(out[4] - (3.0 * 0.5 - 7.0 * 0.25)) <= 1e-15

    @pytest.mark.parametrize("preset_id", ["A", "B"])
    def test_affine_consistency_on_linearized_presets(self, preset_id):
        # Force lam = 0 so both sets are affine.
        source = preset(preset_id).params
        params = FhnParams(
            L=source.L,
            X=source.X,
            D1=source.D1,
            D2=source.D2,
            lam=0.0,
            a=source.a,
            mu=source.mu,
            gamma=source.gamma,
            I0=source.I0,
            IX=source.IX,
        )
        system = build_fhn(params)
        matrix, forcing = linear_parts(params)
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = float(rng.uniform(0.0, 2.0))
            x = rng.uniform(-0.1, 0.1, size=params.dimension)
            gap = system.rhs(t, x) - (matrix @ x + forcing(t))
            assert np.max(np.abs(gap)) <= 1e-12 * (1.0 + np.max(np.abs(x)))

    def test_structure_attached_for_every_reaction_strength(self):
        for lam in (0.0, 1.0):
            assert build_fhn(tiny_params(lam=lam)).structure is not None


def structured_rhs(structure, t, x):
    """Linear part plus cubic plus forcing, composed from the structure alone."""
    out = structure.apply_linear(x)
    v = x[structure.cubic_rows]
    out[structure.cubic_rows] += structure.cubic_scale * v**2 * (v - structure.cubic_root)
    return out + structure.forcing_vectors @ np.array(structure.forcing_signals(t))


def wall_driven_params(lam):
    # Every coefficient and all four boundary signals nonzero.
    return tiny_params(
        L=5,
        X=2.5,
        D1=1.3,
        D2=0.7,
        lam=lam,
        a=0.2,
        mu=0.9,
        gamma=0.4,
        I0=Waveform.sin_squared(1.5),
        IX=Waveform.constant(0.5),
        w0=Waveform.sin_squared(2.0),
        wX=Waveform.sin_squared(-0.8),
    )


class TestFhnStructure:
    # The ids name the wall stencil, the consistent one-sided difference.
    CASES = pytest.mark.parametrize(
        "name", ["A", "B", "lam0", "lam1"], ids=lambda name: f"{name}-consistent"
    )

    @staticmethod
    def params_for(name):
        if name in ("A", "B"):
            return preset(name).params
        return wall_driven_params(lam=float(name[-1]))

    @CASES
    def test_parts_reproduce_rhs(self, name):
        params = self.params_for(name)
        system = build_fhn(params)
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = float(rng.uniform(0.0, 5.0))
            x = rng.uniform(-1.5, 1.5, size=params.dimension)
            expect = system.rhs(t, x)
            gap = structured_rhs(system.structure, t, x) - expect
            assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(expect))

    @CASES
    def test_forcing_rates_are_signal_derivatives(self, name):
        # A has constant walls, B sine-squared currents, lam0/lam1 both kinds
        # on all four walls.
        structure = build_fhn(self.params_for(name)).structure
        h = 1e-6
        signals = structure.forcing_signals
        for t in (0.0, 0.3, 1.7):
            approx = (np.array(signals(t + h)) - np.array(signals(t - h))) / (2.0 * h)
            assert np.max(np.abs(np.array(structure.forcing_rates(t)) - approx)) <= 1e-8

    @pytest.mark.parametrize(
        "wall,constant",
        [(None, True), ("I0", False), ("IX", False), ("w0", False), ("wX", False)],
    )
    def test_forcing_constant_exactly_when_no_waveform_varies(self, wall, constant):
        overrides = {} if wall is None else {wall: Waveform.sin_squared(0.5)}
        structure = build_fhn(tiny_params(**overrides)).structure
        assert structure.forcing_constant is constant
        assert build_fhn(preset("A").params).structure.forcing_constant
        assert not build_fhn(preset("B").params).structure.forcing_constant
        if constant:
            signals = np.array(structure.forcing_signals(0.0))
            for t in (0.3, 1.7):
                assert np.array_equal(structure.forcing_signals(t), signals)

    @pytest.mark.parametrize(
        "case,affine,time_invariant",
        [("A", True, True), ("B", False, False), ("C", False, False),
         ("A-sin-squared", True, False)],
    )
    def test_affine_and_time_invariant_facts(self, case, affine, time_invariant):
        if case == "A-sin-squared":
            params = dataclasses.replace(preset("A").params, I0=Waveform.sin_squared(1.0))
        else:
            params = preset(case).params
        structure = build_fhn(params).structure
        assert structure.affine is affine
        assert structure.linear_time_invariant is time_invariant

    @CASES
    def test_linear_operator_acts_column_by_column(self, name):
        params = self.params_for(name)
        structure = build_fhn(params).structure
        block = np.random.default_rng(4).standard_normal((params.dimension, 3))
        applied = structure.apply_linear(block)
        for j in range(3):
            assert np.array_equal(applied[:, j], structure.apply_linear(block[:, j]))


def reference_rhs(params):
    """The cable right-hand side written field by field, as a plain oracle.

    Each field is formed with whole-slice expressions and each waveform is
    evaluated through its own methods.  ``build_fhn``'s ``rhs`` must match
    it bit for bit, because every reference artifact is computed from it.
    """
    L = params.L
    dx = params.dx
    n = params.dimension
    d1 = params.D1 / (dx * dx)
    d2 = params.D2 / (dx * dx)
    lam, a, mu, gamma = params.lam, params.a, params.mu, params.gamma

    def rhs(t, state):
        v = state[: L + 1]
        w = state[L + 1 :]
        out = np.empty(n)
        dv = out[: L + 1]
        dw = out[L + 1 :]
        dv[1:L] = d1 * (v[2:] - 2.0 * v[1:L] + v[: L - 1])
        dv[0] = d1 * (v[1] - v[0] + dx * params.I0(t))
        dv[L] = d1 * (v[L - 1] - v[L] - dx * params.IX(t))
        if lam != 0.0:
            dv += lam * (v * (1.0 - v) * (v - a) - w)
        dw[1:L] = (
            d2 * (w[2:] - 2.0 * w[1:L] + w[: L - 1]) + mu * v[1:L] - gamma * w[1:L]
        )
        dw[0] = params.w0.derivative(t)
        dw[L] = params.wX.derivative(t)
        return out

    return rhs


def mirrored_wall_params():
    # The other kind on each wall than wall_driven_params: constant I0 and w0.
    return tiny_params(
        L=7,
        X=3.5,
        D1=2.1,
        D2=0.3,
        lam=1.7,
        a=0.15,
        mu=1.1,
        gamma=2.5,
        I0=Waveform.constant(-0.75),
        IX=Waveform.sin_squared(0.9),
        w0=Waveform.constant(0.4),
        wX=Waveform.sin_squared(1.3),
    )


class TestRhsKernel:
    """``build_fhn``'s rhs and forcing callables against plain oracles, bit for bit."""

    CASES = pytest.mark.parametrize("name", ["A", "B", "mixed", "mirrored"])

    @staticmethod
    def params_for(name):
        if name in ("A", "B"):
            return preset(name).params
        if name == "mixed":
            return wall_driven_params(lam=1.0)
        return mirrored_wall_params()

    @CASES
    def test_rhs_bit_equal_to_reference(self, name):
        params = self.params_for(name)
        rhs = build_fhn(params).rhs
        expect = reference_rhs(params)
        rng = np.random.default_rng(23)
        for _ in range(250):
            t = float(rng.uniform(0.0, 5.0))
            x = rng.uniform(-1.5, 1.5, size=params.dimension)
            assert np.array_equal(rhs(t, x), expect(t, x))

    @CASES
    def test_forcing_callables_bit_equal_to_waveform_methods(self, name):
        params = self.params_for(name)
        structure = build_fhn(params).structure
        rng = np.random.default_rng(29)
        for t in [0.0, *rng.uniform(-3.0, 7.0, size=200)]:
            t = float(t)
            assert tuple(structure.forcing_signals(t)) == (
                params.I0(t),
                params.IX(t),
                params.w0.derivative(t),
                params.wX.derivative(t),
            )
            assert tuple(structure.forcing_rates(t)) == (
                params.I0.derivative(t),
                params.IX.derivative(t),
                params.w0.second_derivative(t),
                params.wX.second_derivative(t),
            )

    def test_truth_solve_bit_equal_to_reference(self):
        # A short preset-B solve at the acceptance tolerances: every step and
        # every state must match a solve on the reference rhs.
        params = preset("B").params
        system = build_fhn(params)
        reference = OdeSystem(dimension=params.dimension, rhs=reference_rhs(params))
        x0 = np.zeros(params.dimension)
        out = np.linspace(0.0, 0.05, 6)
        got = integrate(system, x0, 1e-13, 1e-15, out)
        expect = integrate(reference, x0, 1e-13, 1e-15, out)
        assert np.array_equal(got.states, expect.states)
        assert got.step_attempts == expect.step_attempts > 0

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_rhs_results_never_alias(self, name):
        # The rhs keeps scratch buffers in its closure; none may leak into a
        # result, and the argument is only read.
        params = self.params_for(name)
        rhs = build_fhn(params).rhs
        expect = reference_rhs(params)
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, size=params.dimension)
        y = rng.uniform(-1.0, 1.0, size=params.dimension)
        x_before = x.copy()
        first = rhs(0.3, x)
        first_before = first.copy()
        assert np.array_equal(x, x_before)
        second = rhs(1.1, y)
        assert first is not second
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)
        assert np.array_equal(first, first_before)
        # Writing into a result changes nothing a later call returns.
        second[:] = np.nan
        assert np.array_equal(rhs(0.3, x), first_before)
        assert np.array_equal(rhs(1.1, y), expect(1.1, y))


class TestAssembleLinearMatrix:
    """The matrix A of a lam = 0 system: its linear operator on the identity."""

    def test_zero_coefficients_give_zero_matrix(self):
        matrix, forcing = linear_parts(tiny_params(D1=0.0))
        assert np.all(matrix == 0.0)
        assert np.all(forcing(1.0) == 0.0)

    def test_hand_assembled_voltage_block(self):
        matrix, _ = linear_parts(tiny_params())
        expect = np.array(
            [
                [-1.0, 1.0, 0.0],
                [1.0, -2.0, 1.0],
                [0.0, 1.0, -1.0],
            ]
        )
        assert np.array_equal(matrix[:3, :3], expect)

    def test_voltage_block_row_sums_vanish(self):
        params = preset("A").params
        matrix, _ = linear_parts(params)
        L = params.L
        sums = matrix[: L + 1, : L + 1].sum(axis=1)
        assert np.max(np.abs(sums)) <= 1e-9 * params.D1 / params.dx**2

    def test_interior_voltage_block_symmetric_tridiagonal(self):
        params = preset("A").params
        matrix, _ = linear_parts(params)
        L = params.L
        block = matrix[: L + 1, : L + 1]
        assert np.array_equal(block, block.T)
        for shift in range(2, L + 1):
            assert np.all(np.diagonal(block, offset=shift) == 0.0)

    def test_gershgorin_discs_stay_left_of_origin(self):
        # Applies to the voltage diffusion block; recovery rows carry the
        # mu coupling and are not expected to satisfy this.
        params = preset("A").params
        matrix, _ = linear_parts(params)
        block = matrix[: params.L + 1, : params.L + 1]
        centers = np.diagonal(block)
        radii = np.sum(np.abs(block), axis=1) - np.abs(centers)
        assert np.all(centers + radii <= 1e-9)

    def test_forcing_hits_wall_components_only(self):
        params = preset("A").params
        _, forcing = linear_parts(params)
        vec = forcing(0.3)
        L = params.L
        nonzero = np.nonzero(vec)[0]
        assert set(nonzero.tolist()) <= {0, L, L + 1, 2 * L + 1}
        assert abs(vec[0] - params.D1 / params.dx * 1.0) <= 1e-12 * 300.0
        assert abs(vec[L] + params.D1 / params.dx * 5.0) <= 1e-11 * 1500.0


def schedule(config):
    """The cutoffs and the fixed dimensions of a config's rules."""
    return (
        tuple(rule.cutoff_epsilon for rule in config.rules if rule.cutoff_epsilon is not None),
        tuple(rule.fixed_dimension for rule in config.rules if rule.fixed_dimension is not None),
    )


class TestPresets:
    def test_dimension_is_402(self):
        for preset_id in ("A", "B", "C"):
            assert preset(preset_id).params.dimension == 402

    def test_preset_a_values(self):
        config = preset("A")
        params = config.params
        assert params.dx == 0.05
        assert params.lam == 0.0
        assert (params.D1, params.D2, params.mu, params.gamma) == (15.0, 10.0, 10.0, 5.0)
        assert params.I0(3.0) == 1.0
        assert params.IX(3.0) == 5.0
        assert config.final_time == 0.5
        assert config.deltas == (0.01, 0.005, 0.0025)
        assert schedule(config) == ((1e-15, 1e-9, 1e-1), (5, 10, 15, 20, 35, 50))

    def test_preset_b_values(self):
        config = preset("B")
        params = config.params
        assert (params.D1, params.D2, params.mu, params.gamma) == (5.0, 1.0, 1.0, 5.0)
        assert params.lam == 2.0
        assert params.a == 0.1
        t = 0.9
        assert abs(params.I0(t) - 1.5 * math.sin(t) ** 2) <= 1e-15
        assert abs(params.IX(t) - 0.5 * math.sin(t) ** 2) <= 1e-15
        assert config.final_time == 2.0
        assert config.deltas == (0.04, 0.02, 0.01)
        assert schedule(config) == ((1e-15, 1e-7, 1e-4), (5, 20, 25, 50))

    def test_preset_c_schedule(self):
        config = preset("C")
        assert config.final_time == 20.0
        assert config.deltas == (0.5, 1.0, 2.0)
        assert schedule(config) == ((1e-15, 1e-7, 1e-4), (5, 10, 15, 20, 25, 30, 35, 40))

    def test_preset_c_system_matches_preset_b(self):
        params_b = preset("B").params
        params_c = preset("C").params
        assert params_b == params_c
        system_b = build_fhn(params_b)
        system_c = build_fhn(params_c)
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = float(rng.uniform(0.0, 20.0))
            x = rng.standard_normal(402)
            assert np.array_equal(system_b.rhs(t, x), system_c.rhs(t, x))

    def test_preset_deltas_divide_horizon(self):
        for preset_id in ("A", "B", "C"):
            config = preset(preset_id)
            for delta in config.deltas:
                ratio = config.final_time / delta
                assert abs(ratio - round(ratio)) <= 1e-9

    def test_case_insensitive_lookup(self):
        assert preset("b") == preset("B")

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            preset("D")
