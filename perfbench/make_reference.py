"""Record the correctness reference for every benchmark workload.

    python3 perfbench/make_reference.py

Runs each workload's sweep with seeds 0 and 1, requires the two to agree
(the seed moves only the power-iteration start vector, which no checked
output depends on), and writes ranks, per-cell l / sigma_next / max error /
peak time, and the CSV digests of every workload to a fresh
``perfbench/reference.json``.
"""

import json
import sys

import run
import workloads

KEPT = ("ranks", "cells", "digests")


def record(name: str) -> dict:
    entries = []
    for seed in (0, 1):
        sweep = run.spawn(name, seed, 0, timeout=600.0)
        if sweep.get("exit_code") != 0:
            raise SystemExit(f"{name} seed {seed} failed: {sweep.get('error', sweep.get('exit_code'))}")
        entries.append(workloads.reference_entry(workloads.WORKLOADS[name], sweep))
        print(f"{name} seed {seed}: {sweep['sweep_s']:.2f} s", file=sys.stderr)
    first, second = entries
    if any(first[key] != second[key] for key in KEPT):
        raise SystemExit(f"{name}: outputs depend on the seed; no reference written")
    return first


def main() -> int:
    recorded_at = {"git_revision": run.git_revision(), "src_sha256": run.source_digest()}
    reference = {"workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        reference["workloads"][name] = dict(record(name), recorded_at=recorded_at)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
