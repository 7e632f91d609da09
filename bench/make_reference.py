"""Regenerate reference.json, the benchmark's expected outputs.

    python3 bench/make_reference.py

For the default seed it stores, per serial workload, each drop's total
power and step-log digest for every algorithm, over more drops than a
default run reaches; for the pool workload, the serial run_monte_carlo
records. Rerun only when an allocation is meant to change, and say so.
"""

from __future__ import annotations

import json
import sys

import checks
import run

# drops stored per serial workload: more than a 50 s run reaches on a
# 2-core box; drops beyond them are audited only
REFERENCE_DROPS = {"paper-9M": 160, "opa-12M": 200, "dense-40u": 50}


def workload_reference(workload: run.Workload, seed: int, drops: int) -> dict:
    prog = run.Program(workload)
    if workload.pool:
        records = prog.nm.harness.run_monte_carlo(
            prog.run_config(seed, workers=1))
        return {"records": [checks.record_row(r) for r in records]}
    entries = []
    for i in range(drops):
        results = prog.run_drop(prog.rng(seed, i))
        for res in results:
            if isinstance(res, Exception):
                raise res
        entries.append(checks.drop_reference(results))
    return {"drops": entries}


def main() -> int:
    seed = run.DEFAULT_SEED
    doc = {"seed": seed, "workloads": {}}
    for name, wl in run.WORKLOADS.items():
        doc["workloads"][name] = workload_reference(
            wl, seed, REFERENCE_DROPS.get(name, 0))
        print(f"{name}: done", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
