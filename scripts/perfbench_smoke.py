#!/usr/bin/env python3
"""Smoke check of the repo benchmark's traced, per-layer runs.

Runs two short traced ``perfbench/run.py`` invocations (seed 1) and
fails unless each reports a correct run with no failed operations:

* ``policy_sweep`` must show nonzero self time in every layer the
  simulator still has: the SoA build and fault lane
  (``FastReplay.run_phase`` and ``FastReplay._run_bulk_fault``), the
  per-record loop (``Machine._run_phase``) and the snapshot tier.  The
  benchmark reads a layer as 0 when the simulator method it wraps no
  longer exists, so a renamed or removed entry point would otherwise
  blank the per-layer metrics without an error.  The mask-build and
  steady-lane layers are not checked: every policy now replays in whole
  chunks, so their methods are gone and they read 0.
* ``oversub_sweep`` must replay no record per record: its capacity
  runs (memory oversubscription) take the fused loops too, so a gate
  that sent them back to ``Machine.access`` fails here instead of only
  slowing the benchmark down.

Usage (from the repository root)::

    python3 scripts/perfbench_smoke.py      # or: make perfbench-smoke
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Layers of the traced ``policy_sweep`` whose self time must be positive.
LAYERS = ("soa_build_ms", "fault_lane_ms", "per_record_ms", "memo_ms")


def _command(workload: str) -> list[str]:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", "1",
    ]


def _value(report: dict, name: str, default=0.0):
    return report.get("metrics", {}).get(name, {}).get("value", default)


def _run_problems(report: dict) -> list[str]:
    """Problems every run can have: a wrong result or a failed pass."""
    problems = []
    if report.get("correct") is not True:
        problems.append(f"correct is {report.get('correct')!r}")
    if report.get("failed") != 0:
        problems.append(f"failed is {report.get('failed')!r}")
    return problems


def check(report: dict) -> list[str]:
    """Problems with the traced ``policy_sweep`` report."""
    problems = _run_problems(report)
    for name in LAYERS:
        value = _value(report, name)
        if not value > 0:
            problems.append(f"{name} is {value!r}: its wrapped method "
                            "is gone or never ran")
    return problems


def check_capacity(report: dict) -> list[str]:
    """Problems with the traced ``oversub_sweep`` report."""
    problems = _run_problems(report)
    value = _value(report, "per_record_records", None)
    if value != 0:
        problems.append(f"per_record_records is {value!r}: capacity runs "
                        "left the fused loops")
    return problems


#: (workload, its check, the metrics to print).
RUNS = (
    ("policy_sweep", check, LAYERS),
    ("oversub_sweep", check_capacity,
     ("fault_lane_records", "per_record_records")),
)


def run_one(workload: str, checker, shown) -> list[str]:
    """Run one traced workload; return its problems, prefixed."""
    command = _command(workload)
    print("$", " ".join(command[1:]), flush=True)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout)
        return [f"{workload}: perfbench exited {done.returncode}"]
    report = json.loads(lines[-1])
    for name in shown:
        print(f"{name:20s} {_value(report, name):10.1f}")
    return [f"{workload}: {problem}" for problem in checker(report)]


def main() -> int:
    problems = []
    for workload, checker, shown in RUNS:
        problems.extend(run_one(workload, checker, shown))
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("perfbench smoke ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
