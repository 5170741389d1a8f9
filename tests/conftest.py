"""Shared experiment bundles for the acceptance suite, and shared test systems.

The heavyweight sweeps run once per session; tests read off the cells
they need.  Tolerances here are tighter than the driver defaults so that
integrator error sits well below the quantities being compared.
"""

import dataclasses

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
