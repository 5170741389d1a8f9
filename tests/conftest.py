"""Shared experiment bundles, test systems, a plain DP5 reference integrator
and an adapter for two-argument right-hand sides.

The heavyweight sweeps run once per session; tests read off the cells
they need.  Tolerances here are tighter than the driver defaults so that
integrator error sits well below the quantities being compared.
"""

import dataclasses
import math

import numpy as np
import pytest

from podrom.experiment import preset, run_experiment
from podrom.ode import RhsStructure


def linear_structure(matrix):
    """Structure of x' = M x: no cubic and one forcing vector that is zero."""
    n = matrix.shape[0]
    return RhsStructure(
        apply_linear=lambda x: matrix @ x,
        cubic_rows=slice(0, n),
        cubic_scale=0.0,
        cubic_root=0.0,
        forcing_vectors=np.zeros((n, 1)),
        forcing_signals=lambda t: (0.0,),
        forcing_rates=lambda t: (0.0,),
    )


def writes_into(rhs):
    """A right-hand side ``rhs(t, x)`` that returns its value, as ``rhs(t, x, out=None)``.

    ``OdeSystem.rhs`` writes f(t, x) into ``out`` and returns ``out``; this
    writes the returned value there, or into a fresh float array when
    ``out`` is None.
    """

    def into(t, x, out=None):
        value = rhs(t, x)
        if out is None:
            return np.array(value, dtype=float)
        out[...] = value
        return out

    return into


def plain_dp5(rhs, x0, rel_tol, abs_tol, out, lift=None):
    """Dormand-Prince 5(4) written out plainly, from the expressions in ``integrate``'s comments.

    With a ``lift`` U, the error test runs on the lifted space, as a reduced
    solve's must: the local error and both states are multiplied by U
    before the scaled RMS norm.  Returns the states on ``out``, the attempt
    count and the rejected-step count.
    """
    c = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
    a = [
        None,
        np.array([0.2]),
        np.array([3.0 / 40.0, 9.0 / 40.0]),
        np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
        np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
        np.array(
            [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0]
        ),
        np.array(
            [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0]
        ),
    ]
    e = np.array(
        [
            71.0 / 57600.0,
            0.0,
            -71.0 / 16695.0,
            71.0 / 1920.0,
            -17253.0 / 339200.0,
            22.0 / 525.0,
            -1.0 / 40.0,
        ]
    )
    span = out[-1]
    snap_tol = 32.0 * np.finfo(float).eps * max(span, 1.0)
    stages = np.empty((7, x0.size))
    stages[0] = rhs(0.0, x0)
    state, t, h = x0, 0.0, 1e-6 * span
    prev_err, just_rejected, attempts, rejected = 1e-4, False, 0, 0
    lifted = (lambda x: x) if lift is None else (lambda x: lift @ x)
    states = []
    for target in out:
        while target - t > snap_tol:
            remaining = target - t
            h_step = min(h, remaining)
            landing = h_step >= remaining
            attempts += 1
            for i in range(1, 6):
                stages[i] = rhs(t + c[i] * h_step, state + h_step * (a[i] @ stages[:i]))
            trial = state + h_step * (a[6] @ stages[:6])
            t_end = target if landing else t + h_step
            stages[6] = rhs(t_end, trial)
            scale = abs_tol + rel_tol * np.maximum(np.abs(lifted(state)), np.abs(lifted(trial)))
            err = math.sqrt(np.mean((lifted(h_step * (e @ stages)) / scale) ** 2))
            if err > 1.0:
                h = h_step * min(max(0.9 * err**-0.2, 0.1), 1.0)
                just_rejected = True
                rejected += 1
                continue
            state, t = trial, t_end
            stages[0] = stages[6]
            factor = 5.0 if err == 0.0 else min(max(0.9 * err**-0.14 * prev_err**0.08, 0.2), 5.0)
            if just_rejected:
                factor = min(factor, 1.0)
            just_rejected = False
            prev_err = max(err, 1e-10)
            h = h_step * factor
        t = target
        states.append(state)
    return np.array(states), attempts, rejected


# The session-wide sweep bundles below; a test that uses one is marked
# ``slow``, so ``pytest -m "not slow"`` skips the sweeps.
SLOW_FIXTURES = frozenset(
    {"a_sweep_report", "b_crossover_report", "c_coarse_report", "a_raw", "b_raw"}
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        used = set(getattr(item, "fixturenames", ()))
        # A bundle fetched through request.getfixturevalue arrives by name as
        # a parameter.
        callspec = getattr(item, "callspec", None)
        if callspec is not None:
            used.update(v for v in callspec.params.values() if isinstance(v, str))
        if used & SLOW_FIXTURES:
            item.add_marker(pytest.mark.slow)


def _tight(preset_id, **overrides):
    base = dict(rel_tol=1e-13, abs_tol=1e-15)
    base.update(overrides)
    return preset(preset_id, **base)


@pytest.fixture(scope="session")
def a_sweep_report():
    """Full first-preset sweep, bounds attached: 54 cells, about a minute."""
    return run_experiment(_tight("A", evaluate_bounds=True))


def _spectra_only(preset_id):
    """The preset and a spectra-only run of it at the driver's default tolerances."""
    config = preset(preset_id)
    return config, run_experiment(dataclasses.replace(config, rules=()))


@pytest.fixture(scope="session")
def a_raw():
    """Snapshot sets and their factorizations for the first preset."""
    return _spectra_only("A")


@pytest.fixture(scope="session")
def b_raw():
    return _spectra_only("B")


@pytest.fixture(scope="session")
def b_crossover_report():
    """Second preset at its coarsest spacing, fixed dimensions 5/25/50."""
    return run_experiment(_tight("B", deltas=(0.04,), epsilons=(), dims=(5, 25, 50)))


@pytest.fixture(scope="session")
def c_coarse_report():
    """Third preset at unit spacing with a fixed dimension of 20."""
    return run_experiment(_tight("C", deltas=(1.0,), epsilons=(), dims=(20,)))
