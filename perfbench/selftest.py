"""Self-test of the benchmark harness on a seconds-long sweep.

    python3 perfbench/selftest.py

Runs preset A, method Y, delta 0.01, l = 5 (not a benchmark workload)
through the same code as run.py, untraced and traced, and checks that:

- every metric in BENCHMARK.json is printed by name with its unit;
- every watched function name is found and wrapped;
- each integration's right-hand-side count gives a whole number of step
  attempts, (calls - 1) / 6;
- the per-layer self times add up to the traced sweep time;
- the correctness check accepts a fresh sweep and rejects a reference
  whose max error, l or rank was perturbed;
- speed-normalised sweep time grows by the same factor as raw CPU time,
  within 5% (median of seven padded sweeps), when the sweep is padded with
  fixed extra work (``worker.py --pad``): extra right-hand-side calls, or
  passes over a buffer larger than the L2 cache.  Padded sweeps alternate
  with plain ones and each is compared with the mean of its two plain
  neighbours, which cancels a host speed drift that is linear over the
  three sweeps.

Exits 0 when every check passes.
"""

import copy
import fnmatch
import json
import os
import statistics
import sys

import run
import tracer
import worker
import workloads

WORKLOAD = workloads.SELFTEST
FIDELITY_ROUNDS = 7  # padded sweeps per padding kind
FIDELITY_RTOL = 0.05


def _declared(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _printed(record: dict) -> dict:
    printed = {}
    for line in run.report_lines(record):
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.split()[-1]
    return printed


def fidelity(check) -> None:
    """Check that padding grows normalised and raw CPU sweep time alike."""

    def sweep(pad=None):
        result = run.spawn("selftest", 0, 0, timeout=120.0, pad=pad)
        if result.get("exit_code") != 0:
            raise SystemExit(f"FAIL self-test sweep with pad={pad} did not run")
        return result

    growth = {pad: [] for pad in worker.PADDINGS}
    previous = sweep()
    for _ in range(FIDELITY_ROUNDS):
        for pad in growth:
            padded = sweep(pad)
            plain = sweep()
            growth[pad].append(tuple(
                padded[key] / statistics.fmean((previous[key], plain[key]))
                for key in ("sweep_s", "sweep_cpu_s", "kernel_us")
            ))
            previous = plain
    for pad, rows in growth.items():
        normalised, cpu, kernel = (statistics.median(column) for column in zip(*rows))
        rounds = " ".join(f"{n / c:.3f}" for n, c, _ in rows)
        what = (f"--pad {pad}: normalised sweep time x{normalised:.3f}, CPU time x{cpu:.3f}, "
                f"kernel time x{kernel:.3f}; normalised over CPU growth by round: {rounds}")
        check(abs(normalised / cpu - 1.0) <= FIDELITY_RTOL, what)


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    first = run.spawn("selftest", 0, 0, timeout=120.0)
    if first.get("exit_code") != 0:
        print(f"FAIL self-test sweep did not run: {first.get('error')}")
        return 1
    reference = workloads.reference_entry(WORKLOAD, first)

    untraced = run.measure("selftest", 1, 0.0, 0, reference)
    traced = run.measure("selftest", 2, 0.0, 1, reference)
    for record, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = _declared(section)
        check(_printed(record) == declared, f"{section} metrics printed with their units")
        check(record["summary"]["correct"], f"{section} run passes the correctness check")

    sweep = next(s for s in traced["sweeps"] if s["traced"])
    missing = [
        pattern for pattern, layer in tracer.WATCHED
        if not any(fnmatch.fnmatchcase(name, f"{layer}.{pattern}") for name in sweep["wrapped"])
    ]
    check(not missing, f"every watched function is wrapped (missing: {missing})")
    calls = sweep["integrate_rhs_calls"]
    check(bool(calls) and all((c - 1) % 6 == 0 for c in calls),
          f"step attempts (calls - 1) / 6 are whole numbers for calls {calls}")
    layers = sweep["layers"]
    self_total = sum(v for k, v in layers.items() if k.startswith("self_s."))
    check(abs(self_total - layers["trace.sweep_s"]) <= 1e-9 * layers["trace.sweep_s"],
          f"layer self times sum to {self_total!r} s, traced sweep {layers['trace.sweep_s']!r} s")

    perturbations = {
        "max error +0.1%": lambda ref: ref["cells"][0].update(
            max_error=ref["cells"][0]["max_error"] * 1.001),
        "l + 1": lambda ref: ref["cells"][0].update(l=ref["cells"][0]["l"] + 1),
        "rank + 1": lambda ref: ref["ranks"].update(
            {key: rank + 1 for key, rank in ref["ranks"].items()}),
    }
    for label, perturb in perturbations.items():
        bad = copy.deepcopy(reference)
        perturb(bad)
        failed, _ = workloads.check_sweep(sweep, bad, WORKLOAD)
        check(failed > 0, f"correctness check rejects a reference with {label}")

    fidelity(check)

    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
