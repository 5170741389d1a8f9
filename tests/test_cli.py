"""Driver tests: config handling, the sweep loop, CSV artifacts, CLI glue."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from podrom import cli, experiment
from podrom.cli import (
    BOUND_CSV_NAME,
    ERROR_CSV_NAME,
    PLOT_SCRIPT_NAME,
    SPECTRUM_CSV_NAME,
    emit_plot_script,
    main,
    write_bound_csv,
    write_error_csv,
    write_spectrum_csv,
)
from podrom.bounds import BoundCurve
from podrom.fhn import build_fhn
from podrom.errors import (
    ConvergenceError,
    InvalidInputError,
    RhsEvaluationError,
    StiffnessError,
)
from podrom.experiment import CellResult, RunConfig, RunReport, preset, run_experiment
from podrom.linalg import SvdResult
from podrom.ode import MAX_STEP_ATTEMPTS, Trajectory, integrate
from podrom.pod import (
    ErrorCurve,
    TruncationRule,
    build_snapshot_matrix,
    error_curve,
    solve_rom_lifted,
    truncate_basis,
)


# One instance of each error type the library raises on purpose.
LIBRARY_ERRORS = (
    InvalidInputError("bad input"),
    ConvergenceError("no convergence"),
    StiffnessError("step size underflow", 0.25),
    RhsEvaluationError("non-finite rhs"),
)


def tiny_config(**overrides):
    """One-cell preset-A config; cheap enough for per-test runs."""
    base = dict(methods=("Y",), deltas=(0.01,), dims=(5,), epsilons=())
    base.update(overrides)
    return preset("A", **base)


def cutoff_keeping(config, method, delta, k):
    """The cutoff at sigma_k of the (method, delta) snapshot matrix: it keeps k modes."""
    spectra_only = dataclasses.replace(config, rules=())
    svd = run_experiment(spectra_only).factorizations[(method, delta)]
    rule = TruncationRule.cutoff(float(svd.singular_values[k - 1]))
    assert truncate_basis(svd, rule).l == truncate_basis(svd, TruncationRule.fixed(k)).l == k
    return rule


def synthetic_report(with_bound=False, cells=1, saturated=False):
    """Hand-built three-point report for exercising the writers alone."""
    times = np.array([0.0, 0.5, 1.0])
    params = preset("A").params
    cell_list = []
    for k in range(cells):
        curve = ErrorCurve(times=times, norms=np.array([0.0, 1.5e-3 * (k + 1), 2.5e-5]))
        bound = None
        if with_bound:
            bound = BoundCurve(
                times=times, values=np.array([1e-2, 2e-2, 4e-2]), saturated=saturated
            )
        cell_list.append(
            CellResult(
                method="Y" if k % 2 == 0 else "Z",
                delta=0.01 * (k + 1),
                rule=TruncationRule.fixed(5 + k),
                l=5 + k,
                sigma_next=1e-9,
                curve=curve,
                bound=bound,
            )
        )
    config = RunConfig(
        params=params,
        final_time=0.5,
        methods=("Y", "Z"),
        deltas=(0.01, 0.02),
        rules=tuple(TruncationRule.fixed(5 + k) for k in range(max(cells, 1))),
    )
    return RunReport(
        cells=tuple(cell_list),
        failures=(),
        snapshots={},
        factorizations={
            ("Y", 0.01): SvdResult(
                left_vectors=np.eye(3),
                singular_values=np.array([2.0, 1e-5, 1e-320]),
                right_vectors=np.eye(3),
                numerical_rank=3,
                rank_tolerance=0.0,
            )
        },
        timings={"total": 0.1},
        counters={},
        config=config,
    )


# A value other than the default for every setting, as flag and file text.
NON_DEFAULT_TEXT = {
    "preset": "B",
    "methods": "Z",
    "deltas": "0.02",
    "epsilons": "1e-3",
    "dims": "7,9",
    "out": "elsewhere",
    "evaluate_bounds": "true",
    "plots": "true",
    "seed": "5",
    "rel_tol": "1e-9",
    "abs_tol": "1e-12",
}


def settings_from(tmp_path, file_keys, *flags):
    """(RunConfig, output directory, plot flag) of ``run`` with this INI file and flags."""
    path = tmp_path / "settings.ini"
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in file_keys.items()
    ))
    args = cli._build_parser().parse_args(["run", "--config", str(path), *flags])
    return cli._config_from_args(args)


class TestRunConfig:
    def test_preset_defaults(self):
        config = preset("A")
        assert config.methods == ("Y", "Z")
        assert config.deltas == (0.01, 0.005, 0.0025)
        # three cutoff rules then six fixed dimensions
        assert len(config.rules) == 9
        assert config.rules[0].cutoff_epsilon == 1e-15
        assert config.rules[3].fixed_dimension == 5

    def test_schedule_override_replaces_rules(self):
        config = preset("A", epsilons=(1e-3,), dims=(7,))
        labels = [rule.label() for rule in config.rules]
        assert labels == ["eps=0.001", "l=7"]

    def test_methods_normalized_and_deduplicated(self):
        config = tiny_config(methods=("z", "Y", "Z"))
        assert config.methods == ("Z", "Y")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_config(methods=("Y", "Q"))

    def test_repeated_spacings_factored_once(self):
        # A repeated spacing would only factorize the same matrix twice.
        # The cutoff at sigma_5 and dims 5 give the same l and share one
        # reduced solve.
        cutoff = cutoff_keeping(tiny_config(), "Y", 0.01, 5)
        config = tiny_config(deltas=(0.01, 0.01), epsilons=(cutoff.cutoff_epsilon,))
        assert config.deltas == (0.01,)
        assert len(config.rules) == 2
        report = run_experiment(config)
        assert len(report.factorizations) == 1
        assert len(report.cells) == 2
        assert report.counters["rom_cache_hits"] == 1

    def test_delta_must_divide_horizon(self):
        with pytest.raises(InvalidInputError):
            tiny_config(deltas=(0.013,))

    def test_spacing_capped_by_step_attempts(self):
        # The truth solve lands a step on every snapshot time, so a grid of
        # more intervals than a solve may attempt steps is rejected up front.
        # Only configs are built here: no grid is allocated.
        horizon = preset("A").final_time
        assert tiny_config(deltas=(horizon / MAX_STEP_ATTEMPTS,)).deltas
        with pytest.raises(InvalidInputError, match="snapshot intervals"):
            tiny_config(deltas=(horizon / (MAX_STEP_ATTEMPTS + 1),))

    def test_bad_tolerances_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_config(rel_tol=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="positive and finite"):
                tiny_config(rel_tol=bad)
            with pytest.raises(InvalidInputError, match="positive and finite"):
                tiny_config(abs_tol=bad)

    @pytest.mark.parametrize(
        "override",
        [
            {"params": "A"},
            {"final_time": 0.0},
            {"methods": ()},
            {"deltas": ()},
            {"rules": ("l=5",)},
            {"deltas": (-0.01,)},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_rejects_bad_field(self, override):
        fields = dict(
            params=preset("A").params,
            final_time=0.5,
            deltas=(0.01,),
            rules=(TruncationRule.fixed(5),),
        )
        RunConfig(**fields)
        with pytest.raises(InvalidInputError):
            RunConfig(**{**fields, **override})


class TestRunExperiment:
    def test_single_cell_smoke(self):
        config = preset(
            "A", methods=("Y",), deltas=(0.01,), epsilons=(1e-15,), dims=()
        )
        report = run_experiment(config)
        assert len(report.cells) == 1
        assert report.failures == ()
        cell = report.cells[0]
        assert cell.method == "Y"
        assert cell.l >= 1
        assert cell.curve.times.size == experiment.EVAL_GRID_SIZE
        # the numerical rank of the snapshot matrix is below its 51 columns
        # but high enough for the cutoff
        svd = report.factorizations[("Y", 0.01)]
        spectrum = svd.singular_values[: svd.numerical_rank]
        assert cell.l <= spectrum.size < 51
        assert np.all(np.diff(spectrum) <= 0.0)
        assert np.all(spectrum > 0.0)

    def test_cell_grid_complete_and_truth_shared(self, monkeypatch):
        config = tiny_config(methods=("Y", "Z"), dims=(5, 10), epsilons=(1e-1,))
        truth_solves = []
        integrate = experiment.integrate

        def counting_integrate(*args, **kwargs):
            truth_solves.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiment, "integrate", counting_integrate)
        report = run_experiment(config)
        assert len(report.cells) == 6
        assert report.failures == ()
        assert len(truth_solves) == 1
        assert len(report.factorizations) == 2 * len(config.deltas)
        solves = report.counters["rom_solves"] + report.counters["rom_cache_hits"]
        assert solves == 6
        # every (method, delta, rule) combination is present exactly once
        keys = {(c.method, c.delta, c.rule) for c in report.cells}
        assert len(keys) == 6

    def test_union_truth_released_before_factorizations(self, monkeypatch):
        # The union-grid truth is the run's largest array; it must be gone
        # before the first SVD, and the report keeps the snapshot sets that
        # the factorizations were computed from.
        truths = []
        factored = []
        integrate = experiment.integrate
        svd = experiment.svd_one_sided_jacobi

        def recording_integrate(*args, **kwargs):
            truth = integrate(*args, **kwargs)
            truths.append((weakref.ref(truth), weakref.ref(truth.states)))
            return truth

        def checking_svd(matrix):
            assert [(a(), b()) for a, b in truths] == [(None, None)]
            factored.append(np.array(matrix))
            return svd(matrix)

        monkeypatch.setattr(experiment, "integrate", recording_integrate)
        monkeypatch.setattr(experiment, "svd_one_sided_jacobi", checking_svd)
        report = run_experiment(
            tiny_config(methods=("Y", "Z"), deltas=(0.05, 0.025), evaluate_bounds=True)
        )
        assert report.failures == ()
        assert list(report.snapshots) == [0.05, 0.025]
        keys = list(report.factorizations)
        assert len(factored) == len(keys) == 4
        for (method, delta), matrix in zip(keys, factored):
            assert np.array_equal(build_snapshot_matrix(report.snapshots[delta], method), matrix)

    def test_jacobi_counters_sum_over_factorizations(self):
        # Each factorization in the report carries its own Jacobi work.
        svds = run_experiment(tiny_config(methods=("Y", "Z"))).factorizations
        assert list(svds) == [("Y", 0.01), ("Z", 0.01)]
        assert all(svd.sweeps >= 2 and svd.rotations > 0 for svd in svds.values())

    def test_config_without_rules_is_a_spectra_only_run(self):
        config = preset("A", methods=("Y", "Z"), deltas=(0.01,), epsilons=(), dims=())
        assert config.rules == ()
        report = run_experiment(config)
        assert report.cells == () and report.failures == ()
        with_rules = run_experiment(tiny_config(methods=("Y", "Z"))).factorizations
        assert list(report.factorizations) == list(with_rules)
        for key, svd in report.factorizations.items():
            other = with_rules[key]
            assert np.array_equal(svd.singular_values, other.singular_values)
            assert (svd.numerical_rank, svd.sweeps, svd.rotations) == (
                other.numerical_rank, other.sweeps, other.rotations
            )

    def test_timings_hold_the_stages_that_ran(self, monkeypatch):
        spectra_only = run_experiment(tiny_config(dims=()))
        assert list(spectra_only.timings) == ["fom", "snapshots", "svd", "total"]
        with_bounds = run_experiment(tiny_config(evaluate_bounds=True))
        assert list(with_bounds.timings) == [
            "fom", "snapshots", "constants", "svd", "rom", "bounds", "total"
        ]
        assert all(seconds >= 0.0 for seconds in with_bounds.timings.values())

        def failing_solve(*args, **kwargs):
            raise StiffnessError("step size underflow", 0.0)

        monkeypatch.setattr(experiment, "solve_rom_lifted", failing_solve)
        report = run_experiment(tiny_config())
        assert len(report.failures) == 1
        assert list(report.timings) == ["fom", "snapshots", "svd", "total"]

    def test_integrator_counters_sum_over_solves(self, monkeypatch):
        # Preset B's cubic keeps its reduced solves on DP5.  Two distinct
        # bases and one cache hit (dims 5 and the cutoff at sigma_5 share a
        # solve).
        config = RunConfig(
            params=preset("B").params,
            final_time=0.5,
            methods=("Y",),
            deltas=(0.05,),
            rules=(TruncationRule.fixed(5),),
        )
        cutoff = cutoff_keeping(config, "Y", 0.05, 5)
        config = dataclasses.replace(
            config, rules=(TruncationRule.fixed(5), TruncationRule.fixed(10), cutoff)
        )
        solved = {"fom": [], "rom": []}
        integrate = experiment.integrate
        solve = experiment.solve_rom_lifted

        def recording_integrate(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            solved["fom"].append(traj)
            return traj

        def recording_solve(*args, **kwargs):
            traj = solve(*args, **kwargs)
            solved["rom"].append(traj)
            return traj

        monkeypatch.setattr(experiment, "integrate", recording_integrate)
        monkeypatch.setattr(experiment, "solve_rom_lifted", recording_solve)
        report = run_experiment(config)
        assert report.counters["rom_cache_hits"] == 1
        assert len(solved["fom"]) == 1 and len(solved["rom"]) == 2
        for prefix, trajectories in solved.items():
            for name in ("step_attempts", "rejected_steps"):
                total = sum(getattr(traj, name) for traj in trajectories)
                assert report.counters[f"{prefix}_{name}"] == total
            assert report.counters[f"{prefix}_step_attempts"] > 0

    def test_exact_solves_counted_without_integrator_work(self, monkeypatch):
        # Preset A's reduced models are linear and time-invariant: each
        # fresh solve is exact in time and adds no DP5 work.  The cutoff at
        # sigma_5 and dims 5 share a solve.
        cutoff = cutoff_keeping(tiny_config(), "Y", 0.01, 5)
        config = tiny_config(dims=(5, 10), epsilons=(cutoff.cutoff_epsilon,))
        solved = []
        solve = experiment.solve_rom_lifted

        def recording_solve(*args, **kwargs):
            traj = solve(*args, **kwargs)
            solved.append(traj)
            return traj

        monkeypatch.setattr(experiment, "solve_rom_lifted", recording_solve)
        report = run_experiment(config)
        assert report.counters["rom_cache_hits"] == 1
        assert report.counters["rom_solves"] == 2
        assert len(solved) == 2
        for name in ("step_attempts", "rejected_steps"):
            assert all(getattr(traj, name) == 0 for traj in solved)
            assert report.counters[f"rom_{name}"] == 0
        assert report.counters["fom_step_attempts"] > 0

    def test_failed_cell_recorded_and_rest_continue(self):
        # 60 exceeds the 51 snapshot columns at delta 0.01, so that cell
        # cannot be built; the other cells must still be populated.
        config = tiny_config(dims=(5, 60))
        report = run_experiment(config)
        assert len(report.cells) == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.rule == TruncationRule.fixed(60)
        assert failure.stage == "basis"
        assert "60" in failure.message

    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda e: type(e).__name__)
    def test_failed_reduced_solve_recorded_and_rest_continue(self, monkeypatch, error):
        solve = experiment.solve_rom_lifted

        def solve_failing_at_5(system, basis, *args):
            if basis.l == 5:
                raise error
            return solve(system, basis, *args)

        monkeypatch.setattr(experiment, "solve_rom_lifted", solve_failing_at_5)
        report = run_experiment(tiny_config(dims=(5, 6)))
        assert [cell.l for cell in report.cells] == [6]
        (failure,) = report.failures
        assert (failure.rule, failure.stage) == (TruncationRule.fixed(5), "rom")
        assert failure.message == str(error)

    def test_fixed_dimension_beyond_rank_is_honored(self):
        # the snapshot spectrum decays far below 50 resolved modes, yet the
        # cell must still produce an orthonormal basis of that size
        config = tiny_config(dims=(50,))
        report = run_experiment(config)
        assert report.failures == ()
        assert report.cells[0].l == 50

    def test_full_dimension_reproduces_truth(self):
        config = tiny_config(dims=(402,))
        report = run_experiment(config)
        assert report.failures == ()
        cell = report.cells[0]
        assert cell.l == 402
        assert cell.sigma_next == 0.0
        assert cell.max_error <= 1e-8

    def test_bounds_attached_when_requested(self):
        config = tiny_config(evaluate_bounds=True, rel_tol=1e-11, abs_tol=1e-13)
        report = run_experiment(config)
        cell = report.cells[0]
        assert cell.bound is not None
        assert cell.bound.times.shape == cell.curve.times.shape
        assert np.all(cell.bound.values >= cell.curve.norms)

    def test_bound_constants_once_per_spacing(self, monkeypatch):
        # one interval reader per spacing, asked for its constants once
        calls = []
        reader_of = experiment.interval_reader

        def spy(system, snapshot_times, sample_times):
            reader = reader_of(system, snapshot_times, sample_times)
            constants_of = reader.constants

            def constants():
                calls.append(snapshot_times)
                return constants_of()

            reader.constants = constants
            return reader

        monkeypatch.setattr(experiment, "interval_reader", spy)
        config = tiny_config(methods=("Y", "Z"), deltas=(0.05, 0.025), evaluate_bounds=True)
        report = run_experiment(config)
        assert report.failures == ()
        assert all(cell.bound is not None for cell in report.cells)
        assert [times.size for times in calls] == [11, 21]

    def test_deterministic_given_seed(self):
        config = tiny_config()
        first = run_experiment(config)
        second = run_experiment(config)
        assert np.array_equal(first.cells[0].curve.norms, second.cells[0].curve.norms)
        assert np.array_equal(
            first.factorizations[("Y", 0.01)].singular_values,
            second.factorizations[("Y", 0.01)].singular_values,
        )


@pytest.fixture(scope="module")
def short_b():
    """A short preset-B run whose DP5 reduced solves are loosened, with the
    identity basis (l = n, no projection error) among its cells, and its
    truth on the evaluation grid: the run's, bit for bit, solved on the same
    union grid."""
    n = preset("B").params.dimension
    config = preset(
        "B", final_time=0.05, deltas=(0.01,), epsilons=(), dims=(3, 5, n),
        rel_tol=1e-13, abs_tol=1e-15,
    )
    report = run_experiment(config)
    assert report.failures == ()
    system = build_fhn(config.params)
    eval_times = report.cells[0].curve.times
    union = np.union1d(eval_times, report.snapshots[0.01].times)
    solved = integrate(system, np.zeros(n), config.rel_tol, config.abs_tol, union)
    truth = solved.states[solved.rows(eval_times)]
    return config, report, system, eval_times, truth


def cell_basis(report, cell):
    return truncate_basis(report.factorizations[(cell.method, cell.delta)], cell.rule)


def largest_row_norm(rows):
    return float(np.max(np.linalg.norm(rows, axis=1)))


def spy_on_the_floor(monkeypatch):
    """The argument tuples of every projection floor the driver computes."""
    calls = []
    floor_of = experiment._projection_floor

    def spy(*args):
        calls.append(args)
        return floor_of(*args)

    monkeypatch.setattr(experiment, "_projection_floor", spy)
    return calls


class TestReducedTolerance:
    """A DP5 reduced solve runs at the truth's tolerances times
    k = max(1, f rho / rel_tol), rho the cell's relative projection error."""

    def test_max_error_is_at_least_the_projection_floor(self, short_b):
        _, report, _, _, truth = short_b
        for cell in report.cells:
            vectors = cell_basis(report, cell).reduced_vectors
            floor = largest_row_norm(truth - (truth @ vectors) @ vectors.T)
            assert cell.max_error >= floor, (cell.method, cell.l)

    def test_agrees_with_a_solve_at_the_run_tolerances(self, short_b):
        # k = 1 on the identity basis, which has no projection error: the
        # unloosened solve, bit for bit
        config, report, system, eval_times, truth = short_b
        loosened = 0
        for cell in report.cells:
            lifted = solve_rom_lifted(
                system, cell_basis(report, cell), np.zeros(system.dimension), eval_times,
                config.rel_tol, config.abs_tol,
            )
            tight = error_curve(Trajectory(times=eval_times, states=truth), lifted)
            assert abs(cell.max_error - tight.max_norm) <= 1e-5 * tight.max_norm, cell.l
            if cell.l == system.dimension:
                assert cell.rom_rel_tol == config.rel_tol
                assert np.array_equal(cell.curve.norms, tight.norms)
            else:
                loosened += cell.rom_rel_tol > config.rel_tol
        assert loosened == 4

    def test_tolerance_follows_the_floor(self, short_b):
        config, report, _, _, truth = short_b
        peak = largest_row_norm(truth)
        for cell in report.cells:
            vectors = cell_basis(report, cell).reduced_vectors
            rho = largest_row_norm(truth - (truth @ vectors) @ vectors.T) / peak
            expect = max(config.rel_tol, experiment.FLOOR_FRACTION * rho)
            assert cell.rom_rel_tol == pytest.approx(expect, rel=1e-12), (cell.method, cell.l)

    @pytest.mark.parametrize("rho", [0.0, 1e-12, 9.9e-11])
    def test_scale_is_one_while_the_floor_is_below_the_tolerance(self, rho):
        assert experiment.FLOOR_FRACTION * rho <= 1e-13
        assert experiment._tolerance_scale(rho, 1e-13) == 1.0

    def test_scale_grows_with_the_floor(self):
        assert experiment._tolerance_scale(1e-6, 1e-13) == pytest.approx(1e4, rel=1e-12)
        assert experiment._tolerance_scale(0.5, 1e-9) == pytest.approx(5e5, rel=1e-12)

    def test_floor_of_a_small_residual_does_not_cancel(self):
        # the Pythagoras form ||x||^2 - ||U^T x||^2 reads 0 here: 1 + 1e-18 rounds to 1
        states = np.array([[1.0, 0.0, 1e-9], [0.0, 2.0, 0.0]])
        vectors = np.eye(3)[:, :2]
        assert experiment._projection_floor(states, vectors, 2.0) == pytest.approx(5e-10, rel=1e-12)

    def test_exact_flow_computes_no_floor(self, monkeypatch):
        calls = spy_on_the_floor(monkeypatch)
        report = run_experiment(tiny_config(methods=("Y", "Z"), dims=(5, 10)))
        assert report.failures == () and report.counters["rom_solves"] == 4
        assert calls == []
        assert all(cell.rom_rel_tol is None for cell in report.cells)
        for name in ("step_attempts", "rejected_steps"):
            assert report.counters[f"rom_{name}"] == 0

    def test_one_floor_per_fresh_dp5_solve(self, monkeypatch):
        # the cutoff at sigma_3 of Y shares its solve with l = 3
        config = preset("B", final_time=0.05, deltas=(0.01,), epsilons=(), dims=(3, 4))
        cutoff = cutoff_keeping(config, "Y", 0.01, 3)
        config = preset(
            "B", final_time=0.05, methods=("Y",), deltas=(0.01,),
            epsilons=(cutoff.cutoff_epsilon,), dims=(3, 4),
        )
        calls = spy_on_the_floor(monkeypatch)
        report = run_experiment(config)
        assert report.failures == ()
        assert report.counters["rom_cache_hits"] == 1
        assert len(calls) == report.counters["rom_solves"] == 2
        shared = [cell for cell in report.cells if cell.l == 3]
        assert len(shared) == 2 and shared[0].rom_rel_tol == shared[1].rom_rel_tol > config.rel_tol


class TestCsvWriters:
    def test_error_csv_shape(self, tmp_path):
        report = synthetic_report(cells=2)
        path = tmp_path / ERROR_CSV_NAME
        write_error_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,log10_err,method,delta,l,sigma_next"
        assert len(lines) == 1 + 2 * 3
        # exact zero norm is the -inf sentinel, not a number
        first = lines[1].split(",")
        assert first[1] == "-inf"
        assert first[2] == "Y"
        assert first[4] == "5"

    def test_error_csv_parse_back(self, tmp_path):
        report = synthetic_report()
        path = tmp_path / ERROR_CSV_NAME
        write_error_csv(report, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        norms = report.cells[0].curve.norms
        for row, want in zip(rows, norms):
            if row[1] == "-inf":
                assert want == 0.0
            else:
                got = 10.0 ** float(row[1])
                assert got == pytest.approx(want, rel=1e-12)

    def test_spectrum_csv(self, tmp_path):
        report = synthetic_report()
        path = tmp_path / SPECTRUM_CSV_NAME
        write_spectrum_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,log10_sigma,method,delta"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        parsed = 10.0 ** float(lines[2].split(",")[1])
        assert parsed == pytest.approx(1e-5, rel=1e-12)
        # below the representable floor the sentinel takes over
        assert lines[3].split(",")[1] == "-inf"

    def test_bound_csv(self, tmp_path):
        report = synthetic_report(with_bound=True)
        path = tmp_path / BOUND_CSV_NAME
        write_bound_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,log10_bound,method,delta,l,saturated"
        assert len(lines) == 4
        assert lines[1].endswith(",0")
        # a saturated curve carries the flag on every one of its rows
        write_bound_csv(synthetic_report(with_bound=True, saturated=True), str(path))
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith(",1") for row in rows)

    def test_write_failure_names_path(self):
        report = synthetic_report()
        with pytest.raises(OSError, match="no_such_dir"):
            write_error_csv(report, "/no_such_dir/sub/errors.csv")


class TestPlotScript:
    def test_references_csvs_and_compiles(self, tmp_path):
        report = synthetic_report(with_bound=True)
        path = tmp_path / PLOT_SCRIPT_NAME
        emit_plot_script(report, str(path))
        text = path.read_text()
        assert ERROR_CSV_NAME in text
        assert SPECTRUM_CSV_NAME in text
        assert BOUND_CSV_NAME in text
        compile(text, str(path), "exec")

    def test_emission_is_deterministic(self, tmp_path):
        report = synthetic_report(cells=2)
        first = tmp_path / "a.py"
        second = tmp_path / "b.py"
        emit_plot_script(report, str(first))
        emit_plot_script(report, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_series_keeps_one_block_of_cells_sharing_l(self, tmp_path):
        # Two rules that give the same l write two equal row blocks for
        # (method, delta, l); the curve must not run from the end back to 0.
        path = tmp_path / PLOT_SCRIPT_NAME
        emit_plot_script(synthetic_report(), str(path))
        tree = ast.parse(path.read_text())
        (series_def,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "series"
        ]
        namespace = {}
        exec(compile(ast.Module(body=[series_def], type_ignores=[]), str(path), "exec"), namespace)
        block = [
            {"t": t, "log10_err": y, "method": "Y", "delta": "0.01", "l": "22"}
            for t, y in (("0.0", "-inf"), ("0.25", "-3.5"), ("0.5", "-3.0"))
        ]
        xs, ys = namespace["series"](block + block, "Y", 0.01, 22, "t", "log10_err")
        assert (xs, ys) == ([0.25, 0.5], [-3.5, -3.0])

    def test_each_panel_lists_each_cell_once(self, tmp_path):
        # A repeated rule is one rule: its panel draws each cell once.
        path = tmp_path / PLOT_SCRIPT_NAME
        emit_plot_script(run_experiment(tiny_config(dims=(5, 5))), str(path))
        (panels,) = [
            ast.literal_eval(node.value)
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) and node.targets[0].id == "PANELS"
        ]
        assert [panel["label"] for panel in panels] == ["l=5"]
        for panel in panels:
            keys = [(cell["method"], cell["delta"], cell["l"]) for cell in panel["cells"]]
            assert len(keys) == len(set(keys)) == 1

    def test_empty_report_script_runs(self, tmp_path):
        report = synthetic_report()
        report = RunReport(
            cells=(),
            failures=(),
            snapshots={},
            factorizations={},
            timings={},
            counters={},
            config=report.config,
        )
        script = tmp_path / PLOT_SCRIPT_NAME
        emit_plot_script(report, str(script))
        (tmp_path / ERROR_CSV_NAME).write_text("t,log10_err,method,delta,l,sigma_next\n")
        (tmp_path / SPECTRUM_CSV_NAME).write_text("index,log10_sigma,method,delta\n")
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "errors.png").exists()
        assert (tmp_path / "spectra.png").exists()


class TestCommandLine:
    def run_args(self, out_dir, *extra):
        return [
            "run", "--preset", "A", "--methods", "Y", "--deltas", "0.01",
            "--dims", "5", "--out", str(out_dir), *extra,
        ]

    def test_run_success_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(self.run_args(out))
        assert code == 0
        assert (out / ERROR_CSV_NAME).exists()
        assert (out / SPECTRUM_CSV_NAME).exists()
        assert (out / PLOT_SCRIPT_NAME).exists()
        assert not (out / BOUND_CSV_NAME).exists()

    def test_run_partial_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--preset", "A", "--methods", "Y", "--deltas", "0.01",
            "--dims", "5,60", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        # the good cell still landed in the CSV
        lines = (out / ERROR_CSV_NAME).read_text().splitlines()
        assert len(lines) == 1 + 400

    def test_stage_timings_printed_in_run_order(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path / "out", "--bounds")) == 0
        summary = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("cells:")
        )
        stages = [item.split("=")[0] for item in summary.split("; ")[1].split()]
        assert stages == ["fom", "snapshots", "constants", "svd", "rom", "bounds", "total"]

    def test_config_errors_exit_code(self, tmp_path, capsys):
        assert main(["run", "--preset", "Q", "--out", str(tmp_path)]) == 1
        assert main(["run", "--out", str(tmp_path)]) == 1
        assert main(["run", "--preset", "A", "--deltas", "abc"]) == 1
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        for flag in ("--rel-tol", "--abs-tol"):
            assert main(self.run_args(tmp_path / "out", flag, "inf")) == 1
            assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--preset", "A", "--methods", "Y", "--deltas", "0.01", "--dims", "5"],
            ["spectrum", "--preset", "A", "--delta", "0.01"],
        ],
        ids=["run", "spectrum"],
    )
    def test_output_directory_that_is_a_file(self, tmp_path, monkeypatch, capsys, argv):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", calls.append)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main([*argv, "--out", str(blocker)]) == 1
        assert "error:" in capsys.readouterr().err
        assert calls == []

    def test_empty_rule_schedule_rejected_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", calls.append)
        out = tmp_path / "out"
        argv = ["run", "--preset", "A", "--epsilons", "", "--dims", "", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: at least one truncation rule is required\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--preset", "A", "--methods", "Y", "--deltas", "0.01", "--dims", "5"],
            ["spectrum", "--preset", "A", "--delta", "0.01"],
        ],
        ids=["run", "spectrum"],
    )
    def test_library_errors_are_error_lines(self, tmp_path, monkeypatch, capsys, argv, error):
        def failing_run(config):
            raise error

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    def test_unwritable_artifact_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / ERROR_CSV_NAME).mkdir(parents=True)
        assert main(self.run_args(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert ERROR_CSV_NAME in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--preset", "A", "--methods", "Y", "--deltas", "0.5", "--dims", "1"],
            ["spectrum", "--preset", "A", "--delta", "0.5", "--methods", "Y"],
        ],
        ids=["run", "spectrum"],
    )
    @pytest.mark.filterwarnings("error")
    def test_failing_truth_solve_is_an_error_line(self, tmp_path, capsys, argv):
        # Tolerances this tight underflow the first step of the truth solve,
        # which runs before any cell and so outside the per-cell records.
        # Its overflowing error norms reject steps without a warning.
        tolerances = ["--rel-tol", "1e-300", "--abs-tol", "1e-300"]
        assert main([*argv, *tolerances, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "step size underflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("delta", ["1e-300", "1e-310"])
    def test_spacing_beyond_step_cap_is_an_error_line(self, tmp_path, capsys, delta):
        argv = ["spectrum", "--preset", "A", "--delta", delta, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: delta {float(delta)!r} gives more snapshot intervals")
        assert "Traceback" not in err

    def test_plots_flag_renders_pngs(self, tmp_path):
        out = tmp_path / "out"
        code = main(self.run_args(out, "--plots"))
        assert code == 0
        assert (out / "errors.png").exists()
        assert (out / "spectra.png").exists()

    def test_plots_with_relative_out_dir(self, tmp_path, monkeypatch):
        # rendering must not resolve the output path twice
        monkeypatch.chdir(tmp_path)
        code = main(self.run_args("rel_out", "--plots"))
        assert code == 0
        assert (tmp_path / "rel_out" / "errors.png").exists()

    def test_config_file_supplies_values(self, tmp_path):
        out = tmp_path / "from_config"
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\npreset = A\nmethods = Y\ndeltas = 0.01\ndims = 6\n"
            f"out = {out}\n"
        )
        code = main(["run", "--config", str(config)])
        assert code == 0
        lines = (out / ERROR_CSV_NAME).read_text().splitlines()
        assert len(lines) == 1 + experiment.EVAL_GRID_SIZE
        assert lines[1].split(",")[4] == "6"

    def test_cli_overrides_config_file(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.ini"
        config.write_text("[run]\npreset = A\nmethods = Y\ndeltas = 0.01\ndims = 6\n")
        code = main([
            "run", "--config", str(config), "--dims", "7", "--out", str(out),
        ])
        assert code == 0
        lines = (out / ERROR_CSV_NAME).read_text().splitlines()
        assert lines[1].split(",")[4] == "7"

    def test_env_var_overrides_config_out_only(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        cfg_out = tmp_path / "cfg_out"
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\npreset = A\nmethods = Y\ndeltas = 0.01\ndims = 5\nout = {cfg_out}\n"
        )
        monkeypatch.setenv("PODROM_OUT", str(env_out))
        assert main(["run", "--config", str(config)]) == 0
        assert (env_out / ERROR_CSV_NAME).exists()
        assert not cfg_out.exists()
        # an explicit flag still wins over the environment
        flag_out = tmp_path / "flag_out"
        assert main(["run", "--config", str(config), "--out", str(flag_out)]) == 0
        assert (flag_out / ERROR_CSV_NAME).exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\npreset = A\nturbo = yes\n")
        assert main(["run", "--config", str(config)]) == 1
        # an unknown section is rejected even when it sets nothing
        config.write_text("[run]\npreset = A\n\n[turbo]\n")
        assert main(["run", "--config", str(config)]) == 1
        # the [bounds] and [grid] sections and their keys are gone
        for removed in (
            "[bounds]\nvariant = literal",
            "[bounds]\nsamples_per_interval = 16",
            "[grid]\neval_size = 50",
        ):
            config.write_text(f"[run]\npreset = A\n\n{removed}\n")
            assert main(["run", "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "argv,ini",
        [
            (["run", "--preset", "A", "--out", ""], None),
            (["spectrum", "--preset", "A", "--delta", "0.01", "--out", ""], None),
            (["run"], "[run]\npreset = A\nout =\n"),
        ],
        ids=["run-flag", "spectrum-flag", "run-file"],
    )
    def test_empty_output_directory_rejected_before_the_sweep(
        self, tmp_path, monkeypatch, argv, ini
    ):
        monkeypatch.delenv("PODROM_OUT", raising=False)
        calls = []
        monkeypatch.setattr(cli, "run_experiment", calls.append)
        if ini is not None:
            path = tmp_path / "run.ini"
            path.write_text(ini)
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 1
        assert calls == []

    @pytest.mark.parametrize("name", list(cli._SETTINGS))
    def test_flag_and_file_key_mean_the_same(self, tmp_path, monkeypatch, name):
        monkeypatch.delenv("PODROM_OUT", raising=False)
        key, _, flag, _ = cli._SETTINGS[name]
        section, option = key.split(".")
        text = NON_DEFAULT_TEXT[name]
        file_keys = {"run": {"preset": "A"}}
        file_keys.setdefault(section, {})[option] = text
        default = settings_from(tmp_path, {"run": {"preset": "A"}})
        from_file = settings_from(tmp_path, file_keys)
        if name == "seed":
            assert from_file == default  # parsed, and no output depends on it
        else:
            assert from_file != default
        flag_args = [flag] if text == "true" else [flag, text]
        assert settings_from(tmp_path, {"run": {"preset": "A"}}, *flag_args) == from_file

    @pytest.mark.parametrize("text,expect", [("true", True), ("off", False)])
    def test_bounds_key_is_boolean(self, tmp_path, text, expect):
        config, _, _ = settings_from(tmp_path, {"run": {"preset": "A", "bounds": text}})
        assert config.evaluate_bounds is expect

    @pytest.mark.parametrize("extra", ["", "[integrator]\nrel_tol = 1e-11\n"])
    @pytest.mark.parametrize("default", ["", "bounds = true\n"])
    def test_default_section_rejected(self, tmp_path, capsys, default, extra):
        # [DEFAULT] is an unknown section like any other: its keys do not
        # leak into [run] or [integrator].
        out = tmp_path / "out"
        config = tmp_path / "run.ini"
        config.write_text(
            f"[DEFAULT]\n{default}\n[run]\npreset = A\nmethods = Y\ndeltas = 0.01\n"
            f"dims = 5\nout = {out}\n\n{extra}"
        )
        assert main(["run", "--config", str(config)]) == 1
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_are_literal(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PODROM_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\npreset = A\nmethods = Y\ndeltas = 0.01\ndims = 5\nout = res%ults\n"
        )
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "res%ults" / ERROR_CSV_NAME).exists()

    def test_non_boolean_bounds_key_rejected(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\npreset = A\nbounds = maybe\n")
        assert main(["run", "--config", str(config)]) == 1

    def test_removed_fd_step_key_rejected(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\npreset = A\n\n[bounds]\nfd_step = 1e-5\n")
        assert main(["run", "--config", str(config)]) == 1

    def test_seed_parsed_as_integer_without_effect(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[run]\npreset = A\nseed = three\n")
        assert main(["run", "--config", str(config)]) == 1
        assert main(self.run_args(tmp_path / "flag", "--seed", "three")) == 1
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(self.run_args(first, "--seed", "1", "--bounds")) == 0
        assert main(self.run_args(second, "--seed", "2", "--bounds")) == 0
        for name in (ERROR_CSV_NAME, SPECTRUM_CSV_NAME, BOUND_CSV_NAME, PLOT_SCRIPT_NAME):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_repeat_runs_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(self.run_args(first, "--seed", "7")) == 0
        assert main(self.run_args(second, "--seed", "7")) == 0
        for name in (ERROR_CSV_NAME, SPECTRUM_CSV_NAME, PLOT_SCRIPT_NAME):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_spectrum_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "spectrum", "--preset", "A", "--delta", "0.01", "--methods", "Y,Z",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / SPECTRUM_CSV_NAME).read_text().splitlines()
        assert lines[0] == "index,log10_sigma,method,delta"
        assert len(lines) > 10
        assert "rank" in capsys.readouterr().out
        # the subcommand shares run's truth solve and factorization path
        assert main([
            "run", "--preset", "A", "--methods", "Y,Z", "--deltas", "0.01",
            "--dims", "5", "--out", str(tmp_path / "run"),
        ]) == 0
        spectra = (tmp_path / "run" / SPECTRUM_CSV_NAME).read_bytes()
        assert (out / SPECTRUM_CSV_NAME).read_bytes() == spectra
        # spectra draw no random numbers, so the subcommand takes no seed
        assert main([
            "spectrum", "--preset", "A", "--delta", "0.01", "--seed", "3",
            "--out", str(tmp_path / "seeded"),
        ]) == 1

    def test_plot_rendering_times_out(self, tmp_path, monkeypatch, capsys):
        script = tmp_path / PLOT_SCRIPT_NAME
        script.write_text("import time\ntime.sleep(60)\n")
        monkeypatch.setattr(cli, "PLOT_TIMEOUT_S", 0.5)
        assert cli._render_plots(str(script)) is False
        assert "plot rendering timed out" in capsys.readouterr().err

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("preset", "epsilons", "rel_tol", "PODROM_OUT"):
            assert key in text
