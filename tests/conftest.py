"""Shared experiment bundles for the acceptance suite.

The heavyweight sweeps run once per session; tests read off the cells
they need.  Tolerances here are tighter than the driver defaults so that
integrator error sits well below the quantities being compared.
"""

import pytest

from podrom.experiment import RunConfig, run_experiment, _factorize, _prepare

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
    return RunConfig.for_preset(preset_id, **base)


@pytest.fixture(scope="session")
def a_sweep_report():
    """Full first-preset sweep, bounds attached: 54 cells, about a minute."""
    return run_experiment(_tight("A", evaluate_bounds=True))


@pytest.fixture(scope="session")
def a_raw():
    """Snapshot matrices and their factorizations for the first preset."""
    config = RunConfig.for_preset("A")
    ctx = _prepare(config)
    return config, ctx, _factorize(config, ctx)


@pytest.fixture(scope="session")
def b_raw():
    config = RunConfig.for_preset("B")
    ctx = _prepare(config)
    return config, ctx, _factorize(config, ctx)


@pytest.fixture(scope="session")
def b_crossover_report():
    """Second preset at its coarsest spacing, fixed dimensions 5/25/50."""
    return run_experiment(_tight("B", deltas=(0.04,), epsilons=(), dims=(5, 25, 50)))


@pytest.fixture(scope="session")
def c_coarse_report():
    """Third preset at unit spacing with a fixed dimension of 20."""
    return run_experiment(_tight("C", deltas=(1.0,), epsilons=(), dims=(20,)))
