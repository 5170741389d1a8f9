"""podrom benchmark: closed loop of ``podrom run`` sweeps, one client.

    python3 perfbench/run.py --workload b_crossover --seed 3 --seconds 20 --trace 0

Each sweep runs in a fresh interpreter (``worker.py``), one after the
other, until the next sweep would end after ``--seconds`` (at least one
sweep, or one untraced-traced pair with ``--trace 1``).  The seed reaches
the program only as ``podrom run --seed``.  Every sweep is checked against
``reference.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (grid cells) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end times
are speed-normalised CPU seconds (``speedclock.py``).  The full result, with
the environment it ran in, is also written to ``perfbench/out``.
Exits 1 when the correctness check fails and 2 when the podrom sources or
the reference are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

# A run must end within 180 s; stop starting sweeps well before that.
RUN_LIMIT_S = 170.0
# Import-only interpreters timed for setup_s: some before the first sweep
# and more after every batch, because slow spells on the host last tens of
# seconds and would otherwise bias the whole median.
SETUP_PROBES_FIRST = 4
SETUP_PROBES_PER_BATCH = 3

END_TO_END = {
    "sweep_s": "s",
    "fom_solve_s": "s",
    "rom_solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "frac",
}

# Criterion-05 tracking (preset A, cutoff 1e-15): reported, never checked.
REFINE_DELTAS = (0.01, 0.005)
CRITERION_05 = {
    **{f"pod.refine_gain.{m}.0.01-0.005": "ratio" for m in ("Y", "Z")},
    **{f"pod.peak_t.{m}.{d!r}": "model_time" for m in ("Y", "Z") for d in REFINE_DELTAS},
}

PER_LAYER = {
    "fhn.rhs_calls.fom": "count",
    "fhn.rhs_calls.rom": "count",
    "fhn.rhs_calls.other": "count",
    "fhn.rhs_us": "us",
    "ode.fom.step_attempts": "count",
    "ode.rom.step_attempts": "count",
    "ode.fom.step_us": "us",
    "ode.rom.step_us": "us",
    "ode.sample_rhs_s": "s",
    "linalg.svd_calls": "count",
    "linalg.svd_cols": "count",
    "linalg.svd_s": "s",
    "linalg.svd_s_max": "s",
    "linalg.spectral_norm_s": "s",
    "pod.rom_solves": "count",
    "pod.rom_cache_hits": "count",
    "pod.rom_rhs_calls": "count",
    "pod.reduced_rhs_us": "us",
    "pod.rom_lift_frac": "frac",
    "pod.rom_fom_ratio": "ratio",
    "pod.error_curve_s": "s",
    "bounds.constants_s": "s",
    "bounds.curve_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.artifacts_match_ref": "flag",
    "trace.sweep_s": "s",
    "trace.fom_share": "frac",
    "trace.rom_share": "frac",
    "trace.svd_share": "frac",
    "trace.overhead_frac": "frac",
    **{f"self_s.{layer}": "s" for layer in ("cli", "fhn", "ode", "linalg", "pod", "bounds")},
    **CRITERION_05,
}


def spawn(workload: str, seed: int, trace: int, timeout: float, setup_only=False,
          pad=None) -> dict:
    """Run ``worker.py`` once and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if pad:
        cmd += ["--pad", pad]
    cmd += ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout", "traced": bool(trace), "error": f"over {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": f"worker exit {proc.returncode}", "traced": bool(trace),
                "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision() -> str:
    """HEAD of a git checkout at the repository root, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(seed: int, probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe.get("python", "unknown"),
        "numpy": probe.get("numpy", "unknown"),
        "blas": probe.get("blas", "unknown"),
        "blas_threads": 1,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def criterion_05(cells) -> dict:
    """Refinement gains and peak-error times at cutoff 1e-15 (0 where absent)."""
    tight = {(c["method"], c["delta"]): c for c in cells if c["rule"] == "eps=1e-15"}
    values = dict.fromkeys(CRITERION_05, 0.0)
    for method in ("Y", "Z"):
        coarse, fine = (tight.get((method, d)) for d in REFINE_DELTAS)
        if coarse and fine:
            values[f"pod.refine_gain.{method}.0.01-0.005"] = (
                coarse["max_error"] / fine["max_error"]
            )
        for delta in REFINE_DELTAS:
            cell = tight.get((method, delta))
            if cell:
                values[f"pod.peak_t.{method}.{delta!r}"] = cell["peak_t"]
    return values


def solve_medians(untraced) -> tuple:
    """Median truth-solve seconds and median mean fresh-reduced-solve seconds."""
    fom = _median(sum(s["fom_solve_s"]) for s in untraced)
    # Mean over a sweep's fresh solves: per-solve times are bimodal in l,
    # so their median would jump between the two groups.
    rom = _median(statistics.fmean(s["rom_solve_s"]) for s in untraced if s["rom_solve_s"])
    return fom, rom


def end_to_end(untraced, setups, attempted, failed) -> dict:
    fom, rom = solve_medians(untraced)
    return {
        "sweep_s": _median(s["sweep_s"] for s in untraced),
        "fom_solve_s": fom,
        "rom_solve_s": rom,
        "setup_s": _median(setups),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in untraced),
        "cells_ok_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced, reference) -> dict:
    values = {
        name: _median(s["layers"][name] for s in traced)
        for name in PER_LAYER
        if traced and name in traced[0]["layers"]
    }
    fom, rom = solve_medians(untraced)
    ok = untraced + traced
    values.update({
        "pod.rom_fom_ratio": rom / fom if fom else 0.0,
        "cli.csv_bytes": _median(s["csv_bytes"] for s in ok),
        "cli.artifacts_match_ref": float(
            bool(ok) and all(s["digests"] == reference["digests"] for s in ok)
        ),
        "trace.overhead_frac": (
            _median(s["sweep_s"] for s in traced) / _median(s["sweep_s"] for s in untraced) - 1.0
            if traced and untraced else 0.0
        ),
    })
    values.update(criterion_05(ok[0]["cells"] if ok else []))
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        entry = json.load(handle)["workloads"][name]
    if entry["args"] != workloads.WORKLOADS[name].cli_args():
        raise ValueError(f"reference for {name} was recorded with other arguments")
    return entry


def measure(name: str, seed: int, seconds: float, trace: int, reference: dict) -> dict:
    """Run the closed loop and return the full result record."""
    start = time.monotonic()

    def probe(count):
        return [spawn(name, seed, 0, 60.0, setup_only=True) for _ in range(count)]

    probes = probe(SETUP_PROBES_FIRST)
    env = environment(seed, probes[0])
    sweeps = []
    loop_start = time.monotonic()
    while True:
        batch_start = time.monotonic()
        for traced in (0, 1)[: trace + 1]:
            budget = RUN_LIMIT_S - (time.monotonic() - start)
            sweeps.append(spawn(name, seed, traced, max(budget, 5.0)))
        probes += probe(SETUP_PROBES_PER_BATCH)
        now = time.monotonic()
        batch = now - batch_start
        if now - loop_start + batch > seconds or now - start + batch > RUN_LIMIT_S - 10.0:
            break

    workload = workloads.ALL[name]
    attempted = failed = 0
    problems = []
    for index, sweep in enumerate(sweeps):
        bad, issues = workloads.check_sweep(sweep, reference, workload)
        sweep["failed_cells"] = bad
        attempted += len(workload.cell_keys())
        failed += bad
        problems += [f"sweep {index + 1}: {issue}" for issue in issues]
    good = [s for s in sweeps if s["failed_cells"] == 0 and s.get("exit_code") == 0]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    setups = [p["setup_s"] for p in probes if "setup_s" in p]
    setups += [s["setup_s"] for s in sweeps if "setup_s" in s]

    if trace:
        values, units = per_layer(untraced, traced, reference), PER_LAYER
    else:
        values, units = end_to_end(untraced, setups, attempted, failed), END_TO_END
    correct = not problems and bool(untraced) and (bool(traced) or not trace)
    return {
        "environment": env,
        "workload": name,
        "args": workload.cli_args(),
        "sweeps": sweeps,
        "setup_s": setups,
        "problems": problems,
        "summary": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
    }


def report_lines(record: dict) -> list:
    env = record["environment"]
    lines = ["env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items())]
    for index, sweep in enumerate(record["sweeps"], 1):
        kind = "traced" if sweep.get("traced") else "untraced"
        lines.append(
            f"sweep {index} {kind}: {sweep.get('sweep_s', float('nan')):.3f} s "
            f"(cpu {sweep.get('sweep_cpu_s', float('nan')):.3f} s, "
            f"wall {sweep.get('sweep_wall_s', float('nan')):.3f} s, speed kernel "
            f"{sweep.get('kernel_us', float('nan')):.1f} us), "
            f"exit {sweep.get('exit_code')}, failed cells {sweep.get('failed_cells')}"
        )
        for cell in sweep.get("cells", ()) if index == 1 else ():
            lines.append(
                f"cell {cell['key']}: l={cell['l']} sigma_next={cell['sigma_next']:.6e} "
                f"max_err={cell['max_error']:.9e} peak_t={cell['peak_t']!r}"
            )
    lines += [f"FAIL {problem}" for problem in record["problems"]]
    for name, metric in record["summary"]["metrics"].items():
        lines.append(f"metric {name} = {metric['value']!r} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="podrom benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "podrom", "cli.py")):
        print(f"error: no podrom sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        reference = load_reference(args.workload)
    except (OSError, KeyError, ValueError) as err:
        print(f"error: unusable reference {REFERENCE}: {err}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, args.trace, reference)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for line in report_lines(record):
        print(line)
    print(json.dumps(record["summary"]))
    return 0 if record["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
