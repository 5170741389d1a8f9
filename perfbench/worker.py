"""Run one sweep in a fresh interpreter and print its result as JSON.

``run.py`` starts this script once per sweep, so set-up time and peak
memory belong to that sweep alone.  BLAS threads are pinned to 1 before
numpy is imported.  The sweep is one ``podrom.cli.main(["run", ...])`` call
writing into a scratch directory under ``perfbench/out``; its CSV artifacts
are parsed for the correctness check and then deleted.

Usage (normally from run.py):
    python3 perfbench/worker.py --workload a_bounds --seed 1 --trace 0 \
        --spawn-time <time.monotonic() of the parent just before the spawn>
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import speedclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "fhn", "ode", "linalg", "pod", "bounds")

# Extra program work added before every integration by ``--pad``, for the
# self-test's check that speed-normalised time tracks program work: full
# right-hand-side calls at the initial state, or passes over a buffer
# larger than the CPU's L2 cache, which evict the speed kernel's data.
PAD_RHS_CALLS = 40000
PAD_BUFFER_MB = 16
PAD_BUFFER_PASSES = 600
PADDINGS = ("rhs", "memory")


class Padder:
    """``tracer.install`` recorder that pads ``integrate`` with fixed work."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.buffer = None

    def _pad(self, system, x0, t0) -> None:
        if self.kind == "rhs":
            for _ in range(PAD_RHS_CALLS):
                system.rhs(t0, x0)
            return
        import numpy

        if self.buffer is None:
            self.buffer = numpy.ones(PAD_BUFFER_MB * 2**20 // 8)
        for _ in range(PAD_BUFFER_PASSES):
            self.buffer.sum()

    def wrap(self, fn, span):
        if span != tracer.FOM_SOLVE:
            return None

        def padded_integrate(system, x0, t0, *args, **kwargs):
            self._pad(system, x0, t0)
            return fn(system, x0, t0, *args, **kwargs)

        return padded_integrate


def _total(spans, prefix):
    return sum(s.duration for s in spans if s.name.startswith(prefix))


def layer_metrics(trace: tracer.Tracer, cells: int) -> dict:
    """Per-layer metrics of one traced sweep, keyed by metric name."""
    spans = trace.spans
    names = {s.span_id: s.name for s in spans}
    self_s = trace.self_times()
    (root,) = [s for s in spans if s.name == tracer.ROOT]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer_self[span.name.split(".")[0]] += self_s[span.span_id]
    folded = trace.folded
    for (name, _parent), (_calls, _total_s, own) in folded.items():
        layer_self[name.split(".")[0]] += own

    integrations = [s for s in spans if s.name == tracer.FOM_SOLVE]
    rom_ints = [s for s in integrations if names.get(s.parent_id) == tracer.ROM_SOLVE]
    fom_ints = [s for s in integrations if names.get(s.parent_id) != tracer.ROM_SOLVE]
    # Dormand-Prince with a reused last stage: one start-up call, then six
    # right-hand-side calls per attempted step.
    fom_attempts = sum((s.folded_calls - 1) / 6 for s in fom_ints)
    rom_attempts = [(s.folded_calls - 1) / 6 for s in rom_ints]

    def fold(name, parent=None):
        calls = total = own = 0.0
        for (n, p), (c, t, o) in folded.items():
            if n == name and (parent is None or p == parent):
                calls, total, own = calls + c, total + t, own + o
        return calls, total, own

    rhs_calls, _, rhs_self = fold("fhn.rhs")
    rhs_fom, _, _ = fold("fhn.rhs", tracer.FOM_SOLVE)
    rhs_rom, rhs_rom_s, _ = fold("fhn.rhs", "pod.reduced_rhs")
    red_calls, red_total, red_self = fold("pod.reduced_rhs")
    svds = [s for s in spans if s.name == "linalg.svd_one_sided_jacobi"]
    rom_solves = [s for s in spans if s.name == tracer.ROM_SOLVE]

    def per_call_us(seconds, calls):
        return 1e6 * seconds / calls if calls else 0.0

    metrics = {
        "fhn.rhs_calls.fom": rhs_fom,
        "fhn.rhs_calls.rom": rhs_rom,
        "fhn.rhs_calls.other": rhs_calls - rhs_fom - rhs_rom,
        "fhn.rhs_us": per_call_us(rhs_self, rhs_calls),
        "ode.fom.step_attempts": fom_attempts,
        "ode.rom.step_attempts": statistics.median(rom_attempts) if rom_attempts else 0.0,
        "ode.fom.step_us": per_call_us(sum(self_s[s.span_id] for s in fom_ints), fom_attempts),
        "ode.rom.step_us": per_call_us(
            sum(self_s[s.span_id] for s in rom_ints), sum(rom_attempts)
        ),
        "ode.sample_rhs_s": _total(spans, "ode.sample_rhs"),
        "linalg.svd_calls": len(svds),
        "linalg.svd_cols": sum(s.cols for s in svds),
        "linalg.svd_s": sum(s.duration for s in svds),
        "linalg.svd_s_max": max((s.duration for s in svds), default=0.0),
        "linalg.spectral_norm_s": _total(spans, "linalg.spectral_norm"),
        "pod.rom_solves": len(rom_solves),
        "pod.rom_cache_hits": cells - len(rom_solves),
        "pod.rom_rhs_calls": statistics.median(s.folded_calls for s in rom_ints)
        if rom_ints else 0.0,
        "pod.reduced_rhs_us": per_call_us(red_self, red_calls),
        "pod.rom_lift_frac": rhs_rom_s / red_total if red_total else 0.0,
        "pod.error_curve_s": _total(spans, "pod.error_curve"),
        "bounds.constants_s": sum(
            s.duration for s in spans if s.name.endswith("_bound_constants")
        ),
        "bounds.curve_s": sum(
            s.duration for s in spans if s.name in ("bounds.method1_bound", "bounds.method2_bound")
        ),
        "cli.self_s": self_s[root.span_id],
        "cli.write_s": sum(
            s.duration
            for s in spans
            if s.name.startswith("cli.write_") or s.name == "cli.emit_plot_script"
        ),
        "trace.sweep_s": root.duration,
        "trace.fom_share": sum(s.duration for s in fom_ints) / root.duration,
        "trace.rom_share": sum(s.duration for s in rom_solves) / root.duration,
        "trace.svd_share": sum(s.duration for s in svds) / root.duration,
    }
    metrics.update({f"self_s.{layer}": seconds for layer, seconds in layer_self.items()})
    return metrics


def _import_podrom(spawn_time: float):
    if not os.path.isfile(os.path.join(SRC, "podrom", "cli.py")):
        raise SystemExit(f"error: no podrom sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy
    import podrom.cli

    setup_cpu_s = speedclock.now()
    setup_wall_s = time.monotonic() - spawn_time
    if not os.path.abspath(podrom.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {podrom.cli.__file__}, not the checkout's podrom")
    return numpy, podrom.cli, setup_cpu_s, setup_wall_s


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_sweep(name: str, seed: int, traced: bool, cli, pad=None) -> dict:
    """One sweep of workload ``name``; returns the JSON-able result.

    ``sweep_s``, ``fom_solve_s`` and ``rom_solve_s`` are speed-normalised
    CPU seconds (see ``speedclock``); ``sweep_cpu_s`` and ``sweep_wall_s``
    are the raw CPU and wall times.
    ``pad`` names a ``Padder`` kind that adds fixed work to the sweep.
    """
    workload = workloads.ALL[name]
    if pad:
        tracer.install(Padder(pad))
    recorder = tracer.Tracer(f"{name}-{seed}-{os.getpid()}") if traced else tracer.SolveTimer()
    wrapped = tracer.install(recorder)
    main = recorder.span(cli.main, tracer.ROOT) if traced else cli.main
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
    argv = ["run", *workload.cli_args(), "--seed", str(seed), "--out", out_dir]
    result = {"workload": name, "seed": seed, "traced": traced, "argv": argv, "wrapped": wrapped}
    clock = speedclock.SpeedClock()
    try:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), clock:
            wall_start, start = time.perf_counter(), speedclock.now()
            try:
                code = main(argv)
            except Exception:  # reported as a failed sweep, not a crash
                code = "exception"
                result["error"] = traceback.format_exc()
            end, wall_end = speedclock.now(), time.perf_counter()
        result["sweep_s"] = clock.seconds(start, end)
        result["sweep_cpu_s"] = end - start
        result["sweep_wall_s"] = wall_end - wall_start
        result["kernel_us"] = clock.median_kernel_us()
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if code == 0:
            result.update(workloads.summarize(out_dir, workload))
        else:
            result.setdefault("error", captured.getvalue()[-2000:])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if traced:
        result["layers"] = layer_metrics(recorder, len(result.get("cells", ())))
        result["integrate_rhs_calls"] = [
            s.folded_calls for s in recorder.spans if s.name == tracer.FOM_SOLVE
        ]
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.to_json(), handle)
    else:
        result["fom_solve_s"] = [clock.seconds(a, b) for a, b in recorder.fom]
        result["rom_solve_s"] = [clock.seconds(a, b) for a, b in recorder.rom]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after importing podrom and numpy")
    parser.add_argument("--pad", choices=PADDINGS,
                        help="add fixed extra work before every integration (self-test only)")
    args = parser.parse_args()

    numpy, cli, setup_cpu_s, setup_wall_s = _import_podrom(args.spawn_time)
    # Interpreter set-up CPU time, speed-normalised like the sweep's own times.
    setup_s = setup_cpu_s * speedclock.speed_factor()
    if args.setup_only:
        result = {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "setup_wall_s": setup_wall_s,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": _blas(numpy),
        }
    else:
        result = run_sweep(args.workload, args.seed, bool(args.trace), cli, args.pad)
        result["setup_s"] = setup_s
        result["setup_cpu_s"] = setup_cpu_s
        result["setup_wall_s"] = setup_wall_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
