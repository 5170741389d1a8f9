"""Driver tests: config handling, the sweep loop, CSV artifacts, CLI glue."""

import math
import os
import subprocess
import sys

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
from podrom.errors import InvalidInputError
from podrom.experiment import CellResult, RunConfig, RunReport, run_experiment
from podrom.fhn import preset
from podrom.linalg import SvdResult
from podrom.pod import ErrorCurve, TruncationRule


def tiny_config(**overrides):
    """One-cell preset-A config; cheap enough for per-test runs."""
    base = dict(methods=("Y",), deltas=(0.01,), dims=(5,), epsilons=())
    base.update(overrides)
    return RunConfig.for_preset("A", **base)


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
        eval_times=times,
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
        config = RunConfig.for_preset("A")
        assert config.methods == ("Y", "Z")
        assert config.deltas == (0.01, 0.005, 0.0025)
        # three cutoff rules then six fixed dimensions
        assert len(config.rules) == 9
        assert config.rules[0].cutoff_epsilon == 1e-15
        assert config.rules[3].fixed_dimension == 5

    def test_schedule_override_replaces_rules(self):
        config = RunConfig.for_preset("A", epsilons=(1e-3,), dims=(7,))
        labels = [rule.label() for rule in config.rules]
        assert labels == ["eps=0.001", "l=7"]

    def test_methods_normalized_and_deduplicated(self):
        config = tiny_config(methods=("z", "Y", "Z"))
        assert config.methods == ("Z", "Y")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_config(methods=("Y", "Q"))

    def test_repeated_spacings_factorized_once(self):
        # Repeated rules stay (they share one reduced solve); a repeated
        # spacing would only factorize the same matrix twice.
        config = tiny_config(deltas=(0.01, 0.01), dims=(5, 5))
        assert config.deltas == (0.01,)
        assert len(config.rules) == 2
        report = run_experiment(config)
        assert len(report.factorizations) == 1
        assert report.cell_count == 2
        assert report.counters["rom_cache_hits"] == 1

    def test_delta_must_divide_horizon(self):
        with pytest.raises(InvalidInputError):
            tiny_config(deltas=(0.013,))

    def test_empty_rules_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig.for_preset("A", epsilons=(), dims=())

    def test_bad_tolerances_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_config(rel_tol=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="positive and finite"):
                tiny_config(rel_tol=bad)
            with pytest.raises(InvalidInputError, match="positive and finite"):
                tiny_config(abs_tol=bad)

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig.for_preset("D")

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
        config = RunConfig.for_preset(
            "A", methods=("Y",), deltas=(0.01,), epsilons=(1e-15,), dims=()
        )
        report = run_experiment(config)
        assert report.cell_count == 1
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
        assert report.cell_count == 6
        assert report.failures == ()
        assert len(truth_solves) == 1
        assert len(report.factorizations) == 2 * len(config.deltas)
        solves = report.counters["rom_solves"] + report.counters["rom_cache_hits"]
        assert solves == 6
        # every (method, delta, rule) combination is present exactly once
        keys = {(c.method, c.delta, c.rule) for c in report.cells}
        assert len(keys) == 6

    def test_jacobi_counters_sum_over_factorizations(self):
        # Each factorization in the report carries its own Jacobi work, the
        # same whichever driver entry point made it.
        config = tiny_config(methods=("Y", "Z"))
        svds = run_experiment(config).factorizations
        assert list(svds) == [("Y", 0.01), ("Z", 0.01)]
        assert all(svd.sweeps >= 2 and svd.rotations > 0 for svd in svds.values())
        spectra_only = experiment.run_spectra(config).factorizations
        for key, svd in svds.items():
            assert (svd.sweeps, svd.rotations) == (
                spectra_only[key].sweeps,
                spectra_only[key].rotations,
            )

    def test_integrator_counters_sum_over_solves(self, monkeypatch):
        # Preset B's cubic keeps its reduced solves on DP5.  Two distinct
        # bases and one cache hit (dims 5 and 5 share a solve).
        config = RunConfig(
            params=preset("B").params,
            final_time=0.5,
            methods=("Y",),
            deltas=(0.05,),
            rules=tuple(TruncationRule.fixed(l) for l in (5, 10, 5)),
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
        # fresh solve is exact in time and adds no DP5 work.
        config = tiny_config(dims=(5, 10, 5))
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
        assert report.cell_count == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.rule_label == "l=60"
        assert failure.stage == "basis"
        assert "60" in failure.message

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
        calls = []
        constants_of = experiment.bound_constants

        def spy(system, fom, snapshot_times):
            calls.append(snapshot_times)
            return constants_of(system, fom, snapshot_times)

        monkeypatch.setattr(experiment, "bound_constants", spy)
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

    def test_empty_report_script_runs(self, tmp_path):
        report = synthetic_report()
        report = RunReport(
            cells=(),
            failures=(),
            factorizations={},
            timings={},
            counters={},
            eval_times=report.eval_times,
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
        monkeypatch.setattr(cli, "run_spectra", calls.append)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main([*argv, "--out", str(blocker)]) == 1
        assert "error:" in capsys.readouterr().err
        assert calls == []

    def test_unwritable_artifact_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / ERROR_CSV_NAME).mkdir(parents=True)
        assert main(self.run_args(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert ERROR_CSV_NAME in err

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
        monkeypatch.setattr(cli, "run_spectra", calls.append)
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
