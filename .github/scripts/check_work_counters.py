#!/usr/bin/env python3
"""Exact gate on perfbench's deterministic work counters.

A traced perfbench run (`--trace 1`) prints, as its last two lines, a
report object and a result object. This script reads those two lines
from each run's saved standard output and asserts that every counter
named below equals the value recorded in the fixture for that workload.
The counters are deterministic for a given workload, seed and
`--seconds`, so any difference is a change in the work the code does,
not noise.

usage: check_work_counters.py FIXTURE.json WORKLOAD=OUTPUT.txt [...]
       check_work_counters.py --record FIXTURE.json WORKLOAD=OUTPUT.txt [...]

`--record` rewrites the fixture's entries for the given workloads from
the outputs instead of checking them (for an intended change only).
"""
import json
import sys

# Metrics (result line) and report fields (report line) under the gate.
METRICS = (
    "core.dp_steps",
    "core.trail_entries",
    "core.rollbacks",
    "core.redo_replays",
    "core.redo_bytes",
    "core.budget_exhausted",
    "sim.validate_calls",
    "engine.online_deadline_fired",
    "engine.online_shed",
)
REPORT = ("online.virtual_digest",)


def counters(path):
    lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l.strip()]
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    for name in REPORT:
        values[name] = report.get(name)
    values["seed"] = report["seed"]
    values["seconds"] = report["seconds"]
    return values


def main(argv):
    record = argv[:1] == ["--record"]
    if record:
        argv = argv[1:]
    if len(argv) < 2 or any("=" not in a for a in argv[1:]):
        sys.exit(__doc__)
    fixture_path, runs = argv[0], [a.split("=", 1) for a in argv[1:]]
    try:
        fixture = json.load(open(fixture_path, encoding="utf-8"))
    except FileNotFoundError:
        fixture = {}
    failures = []
    for workload, output in runs:
        actual = counters(output)
        if record:
            fixture[workload] = actual
            continue
        expected = fixture.get(workload)
        if expected is None:
            failures.append(f"{workload}: no fixture entry")
            continue
        for name, want in expected.items():
            got = actual.get(name)
            status = "ok" if got == want else "MISMATCH"
            print(f"{workload} {name}: {got} (fixture {want}) {status}")
            if got != want:
                failures.append(f"{workload} {name}: {got} != {want}")
    if record:
        with open(fixture_path, "w", encoding="utf-8") as f:
            json.dump(fixture, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    if failures:
        sys.exit("work counters moved:\n  " + "\n  ".join(failures))
    print("work counters match the fixture")


if __name__ == "__main__":
    main(sys.argv[1:])
