#!/usr/bin/env python3
"""Smoke check of the repo benchmark's traced, per-layer run.

Runs one short traced ``perfbench/run.py`` invocation (``policy_sweep``,
seed 1) and fails unless it reports a correct run with no failed
operations and nonzero self time in every fast-path layer.  The
benchmark reads a layer as 0 when the simulator method it wraps no
longer exists, so a renamed or removed entry point would otherwise
blank the per-layer metrics without an error.

Usage (from the repository root)::

    python3 scripts/perfbench_smoke.py      # or: make perfbench-smoke
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = [
    sys.executable, "perfbench/run.py", "--workload", "policy_sweep",
    "--seed", "1", "--seconds", "1", "--trace", "1",
]

#: Layers whose self time must be positive.
LAYERS = ("soa_build_ms", "mask_build_ms", "steady_lane_ms",
          "fault_lane_ms", "per_record_ms", "memo_ms")


def check(report: dict) -> list[str]:
    """Problems with one benchmark report (its last stdout line)."""
    problems = []
    if report.get("correct") is not True:
        problems.append(f"correct is {report.get('correct')!r}")
    if report.get("failed") != 0:
        problems.append(f"failed is {report.get('failed')!r}")
    metrics = report.get("metrics", {})
    for name in LAYERS:
        value = metrics.get(name, {}).get("value", 0.0)
        if not value > 0:
            problems.append(f"{name} is {value!r}: its wrapped method "
                            "is gone or never ran")
    return problems


def main() -> int:
    print("$", " ".join(COMMAND[1:]), flush=True)
    done = subprocess.run(COMMAND, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout)
        print(f"perfbench exited {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    metrics = report.get("metrics", {})
    for name in LAYERS:
        print(f"{name:16s} {metrics.get(name, {}).get('value', 0.0):10.1f}")
    problems = check(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("perfbench smoke ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
