"""Acceptance checklist for the toolkit, one numbered criterion per test.

Criteria 1-4 and 9-10 are oracle or invariant checks; criteria 5-8 are
ordinal and ratio properties of the bundled experiments.  Each test states
its thresholds inline; the shared sweeps come from conftest fixtures.
"""

import time

import numpy as np
import pytest

from podrom.bounds import hermite_piecewise, lagrange_piecewise
from podrom.cli import (
    BOUND_CSV_NAME,
    ERROR_CSV_NAME,
    PLOT_SCRIPT_NAME,
    SPECTRUM_CSV_NAME,
    main,
)
from podrom.experiment import preset, run_experiment
from podrom.linalg import svd_one_sided_jacobi
from podrom.pod import SnapshotSet, build_snapshot_matrix


def _cutoff_cells(report, epsilon):
    """Cells produced by one spectrum-cutoff rule, keyed (method, delta)."""
    return {
        (c.method, c.delta): c
        for c in report.cells
        if c.rule.cutoff_epsilon == epsilon
    }


def test_criterion_01_factorization_oracles():
    """Rank-l residual spectral norm equals sigma_{l+1}; full product rebuilds
    the matrix to 1e-10 * sigma_1.  Oracle norms come from LAPACK."""
    rng = np.random.default_rng(20260821)
    start = time.perf_counter()
    for case in range(50):
        rows = int(rng.integers(1, 31))
        cols = int(rng.integers(1, 13))
        matrix = rng.standard_normal((rows, cols))
        if case % 5 == 2:
            # exactly rank-deficient via a thin product
            inner = max(1, min(rows, cols) // 2)
            matrix = rng.standard_normal((rows, inner)) @ rng.standard_normal(
                (inner, cols)
            )
        if case % 7 == 3:
            matrix = matrix * 1e6
        elif case % 11 == 4:
            matrix = matrix * 1e-6
        svd = svd_one_sided_jacobi(matrix)
        u, s, v = svd.left_vectors, svd.singular_values, svd.right_vectors
        sigma1 = s[0]
        rebuilt = u @ np.diag(s) @ v.T
        assert np.linalg.norm(matrix - rebuilt, 2) <= 1e-10 * max(sigma1, 1e-300)
        for l in range(svd.numerical_rank):
            residual = matrix - u[:, :l] @ np.diag(s[:l]) @ v[:, :l].T
            gap = abs(np.linalg.norm(residual, 2) - s[l])
            assert gap <= 1e-8 * s[l], (case, l)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("bundle_name", ["a_raw", "b_raw"])
def test_criterion_02_projection_residuals(bundle_name, request):
    """Every snapshot's distance to the retained span is at most
    sigma_{l+1} + 1e-10 * sigma_1, for both snapshot sources, at every
    (spacing, dimension) pairing of the preset.  Zero violations."""
    config, report = request.getfixturevalue(bundle_name)
    svds = report.factorizations
    dims = [rule.fixed_dimension for rule in config.rules if rule.fixed_dimension is not None]
    checked = 0
    for (method, delta), svd in svds.items():
        columns = build_snapshot_matrix(report.snapshots[delta], method)
        sigmas = svd.singular_values
        slack = 1e-10 * sigmas[0]
        for l in dims:
            basis = svd.left_vectors[:, :l]
            residual = columns - basis @ (basis.T @ columns)
            norms = np.linalg.norm(residual, axis=0)
            sigma_next = sigmas[l] if l < sigmas.size else 0.0
            worst = float(np.max(norms - sigma_next))
            assert worst <= slack, (method, delta, l, worst, slack)
            checked += 1
    assert checked == len(svds) * len(dims)


def test_criterion_03_interpolation_orders():
    """Piecewise-linear max error decays at order 2, piecewise-cubic with
    derivative matching at order 4, over five spacing halvings."""
    start = time.perf_counter()
    horizon = 2.0
    probe = np.linspace(0.0, horizon, 2001)
    truth = np.sin(probe)
    spacings, linear_errors, cubic_errors = [], [], []
    for level in range(6):
        count = 4 * 2**level + 1
        times = np.linspace(0.0, horizon, count)
        snaps = SnapshotSet(
            times=times,
            solution_columns=np.sin(times)[None, :],
            derivative_columns=np.cos(times)[None, :],
        )
        linear = np.array([lagrange_piecewise(snaps, t)[0] for t in probe])
        cubic = np.array([hermite_piecewise(snaps, t)[0] for t in probe])
        spacings.append(times[1] - times[0])
        linear_errors.append(np.max(np.abs(linear - truth)))
        cubic_errors.append(np.max(np.abs(cubic - truth)))
    linear_slope = np.polyfit(np.log(spacings), np.log(linear_errors), 1)[0]
    cubic_slope = np.polyfit(np.log(spacings), np.log(cubic_errors), 1)[0]
    assert abs(linear_slope - 2.0) <= 0.1, linear_slope
    assert abs(cubic_slope - 4.0) <= 0.1, cubic_slope
    assert time.perf_counter() - start < 5.0


def test_criterion_04_bound_dominates_error(a_sweep_report):
    """With exact linear-route constants, the a-priori bound lies on or
    above the measured error at every evaluation time in every
    (spacing, cutoff) cell.  Zero violations."""
    cells = [c for c in a_sweep_report.cells if c.rule.cutoff_epsilon is not None]
    assert len(cells) == 18
    for cell in cells:
        assert cell.bound is not None
        gap = cell.bound.values - cell.curve.norms
        assert np.all(gap >= 0.0), (cell.method, cell.delta, cell.rule.label())


def test_criterion_05_derivative_method_wins_per_spacing(a_sweep_report):
    """At the 1e-15 cutoff the derivative-augmented basis beats the
    solution-only basis at every common spacing."""
    cells = _cutoff_cells(a_sweep_report, 1e-15)
    for delta in (0.01, 0.005, 0.0025):
        assert cells[("Z", delta)].max_error < cells[("Y", delta)].max_error


def test_criterion_05_refinement_gain_factors(a_sweep_report):
    """Halving the spacing should cut the peak error by at least 4x for the
    solution-only basis and 16x for the derivative-augmented one.

    The peak sits at the first evaluation point, inside the first snapshot
    interval, where the startup transient (zero state, constant forcing)
    is steeper than any of these grids resolve; measured gains there are
    roughly half these factors at every integrator tolerance tried, and
    projection-level gains cap at about 3.4x/8.8x (solution-only) and
    6.1x/28x (derivative-augmented) per halving.  The assertions record
    the target factors.
    """
    cells = _cutoff_cells(a_sweep_report, 1e-15)
    for coarse, fine in ((0.01, 0.005), (0.005, 0.0025)):
        y_gain = cells[("Y", coarse)].max_error / cells[("Y", fine)].max_error
        z_gain = cells[("Z", coarse)].max_error / cells[("Z", fine)].max_error
        assert y_gain >= 4.0, f"solution-only gain {y_gain:.2f} from one halving"
        assert z_gain >= 16.0, f"derivative-augmented gain {z_gain:.2f} from one halving"


def test_criterion_05_full_sweep_runtime(a_sweep_report):
    assert a_sweep_report.timings["total"] < 300.0


def test_criterion_06_saturated_cutoff_flattens_refinement(a_sweep_report):
    """At the loose 1e-1 cutoff the first neglected singular value, not the
    spacing, controls the error: refining the spacing changes the peak
    solution-only error by less than a factor of 3."""
    cells = _cutoff_cells(a_sweep_report, 1e-1)
    maxima = [cells[("Y", d)].max_error for d in (0.01, 0.005, 0.0025)]
    assert max(maxima) / min(maxima) < 3.0


def test_criterion_07_crossover_dimensions(b_crossover_report):
    """Second preset, coarsest spacing: the derivative-augmented basis wins
    at dimensions 25 and 50, and the two methods agree within a factor of
    3 at dimension 5."""
    report = b_crossover_report
    assert report.failures == ()
    cells = {(c.method, c.l): c for c in report.cells}
    for l in (25, 50):
        assert cells[("Z", l)].max_error < cells[("Y", l)].max_error, l
    low = (cells[("Y", 5)].max_error, cells[("Z", 5)].max_error)
    assert max(low) / min(low) < 3.0
    assert report.timings["total"] < 600.0


def test_criterion_08_coarse_snapshots_still_favor_derivatives(c_coarse_report):
    """Third preset with unit spacing and dimension 20: the
    derivative-augmented error does not exceed the solution-only error."""
    report = c_coarse_report
    assert report.failures == ()
    cells = {c.method: c for c in report.cells}
    assert cells["Z"].max_error <= cells["Y"].max_error


def test_criterion_09_full_dimension_reproduces_truth():
    """A basis of full state dimension makes the reduced model restate the
    original one; the lifted solution matches to 1e-8."""
    config = preset(
        "A", methods=("Y",), deltas=(0.01,), epsilons=(), dims=(402,)
    )
    report = run_experiment(config)
    assert report.failures == ()
    assert report.cells[0].max_error <= 1e-8


def test_criterion_10_reruns_byte_identical(tmp_path):
    """The same configuration and seed writes byte-identical artifacts."""

    def run(dirname):
        out = tmp_path / dirname
        code = main([
            "run", "--preset", "A", "--methods", "Y,Z", "--deltas", "0.01",
            "--epsilons", "1e-1", "--dims", "5", "--bounds", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        return out

    first = run("first")
    second = run("second")
    for name in (ERROR_CSV_NAME, SPECTRUM_CSV_NAME, BOUND_CSV_NAME, PLOT_SCRIPT_NAME):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
