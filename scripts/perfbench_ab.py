#!/usr/bin/env python3
"""Before/after record of the repo benchmark: ``results/BENCH_<name>.json``.

Runs ``perfbench/run.py`` on two trees of this repository — a git ref
(exported with ``git archive``) and the working tree — for every
workload ``BENCHMARK.json`` declares:

* end-to-end metrics (``--trace 0``) once per seed, alternating which
  tree goes first, so host-speed drift hits both sides alike; each
  metric reports both sides' medians and quartiles and how many seed
  pairs the working tree won (by the direction ``BENCHMARK.json``
  gives);
* one traced run (``--trace 1``) per side at the first seed, for the
  per-layer self times and the lane counts (deterministic per seed, so
  a change that claims bit-identical replay shows equal counts).

The record holds each side's per-run values and medians, the median
change in percent, and stamps for both trees (git SHA, whether
``src/`` differs from it, a digest of ``src/``) and for the host
(name, CPU count, Python and numpy versions).

Every run lasts the benchmark's ``run_seconds``, and every declared
workload is measured, so the record compares the two trees the way the
benchmark itself does, over the ten seeds 101-110: a claimed gain
needs ten alternating pairs.

Usage (from the repository root)::

    python3 scripts/perfbench_ab.py --before HEAD --name fault_path

``--workdir`` holds the exported tree (default ``.perfbench/ab``,
removed at exit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.conftest import write_bench_artifact  # noqa: E402

# Ten seeds: a record with fewer pairs cannot back a claimed gain.
SEEDS = list(range(101, 111))


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def src_digest(tree: Path) -> str:
    """SHA-256 over every file under ``tree/src`` (paths and contents)."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest``."""
    blob = subprocess.run(
        ["git", "archive", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=blob, check=True)


def perfbench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One benchmark run; its final JSON report."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    return {
        "correct": report["correct"],
        "failed": report["failed"],
        "attempted": report["attempted"],
        "metrics": {k: v["value"] for k, v in report["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    """Per-metric values across runs, their median and quartiles."""
    names = sorted({k for run in runs for k in run["metrics"]})
    values = {n: [run["metrics"].get(n) for run in runs] for n in names}
    complete = {n: v for n, v in values.items() if None not in v}
    return {
        "correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "values": values,
        "median": {n: statistics.median(v) for n, v in complete.items()},
        "quartiles": {
            n: statistics.quantiles(v, n=4)[::2]
            for n, v in complete.items() if len(v) >= 2
        },
    }


def pairs_won(before: dict, after: dict, lower_is_better: dict) -> dict:
    """Per metric: seed pairs in which the working tree read better."""
    won = {}
    for name, lower in lower_is_better.items():
        pairs = zip(before["values"].get(name, []),
                    after["values"].get(name, []))
        won[name] = sum(
            (a < b) if lower else (a > b) for b, a in pairs
            if a is not None and b is not None
        )
    return won


def change_pct(before: dict, after: dict) -> dict:
    return {
        n: round(100.0 * (after[n] - b) / b, 1)
        for n, b in before.items() if n in after and b
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True,
                        help="git ref of the baseline tree")
    parser.add_argument("--name", required=True,
                        help="writes results/BENCH_<name>.json")
    parser.add_argument("--workdir", type=Path,
                        default=ROOT / ".perfbench" / "ab")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])
    lower_is_better = {
        m["name"]: m["better"] == "lower" for m in declared["end_to_end"]
    }
    workloads = [w["name"] for w in declared["workloads"]]

    before_dir = args.workdir / "before"
    shutil.rmtree(before_dir, ignore_errors=True)
    export(args.before, before_dir)
    before_src = src_digest(before_dir)
    trees = {"before": before_dir, "after": ROOT}
    try:
        end_to_end = {w: {"before": [], "after": []} for w in workloads}
        for k, seed in enumerate(SEEDS):
            for workload in workloads:
                order = ("before", "after") if k % 2 == 0 else (
                    "after", "before")
                for side in order:
                    print(f"seed {seed} {workload} {side}", flush=True)
                    end_to_end[workload][side].append(perfbench(
                        trees[side], workload, seed, seconds, 0
                    ))
        traced = {w: {} for w in workloads}
        for workload in workloads:
            for side in ("before", "after"):
                print(f"traced {workload} {side}", flush=True)
                traced[workload][side] = perfbench(
                    trees[side], workload, SEEDS[0], seconds, 1
                )
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    results = {}
    for workload in workloads:
        before = summarize(end_to_end[workload]["before"])
        after = summarize(end_to_end[workload]["after"])
        layers = {
            side: traced[workload][side]["metrics"]
            for side in ("before", "after")
        }
        counts = ("sims", "records", "steady_records", "fault_lane_records",
                  "per_record_records", "mask_builds")
        results[workload] = {
            "end_to_end": {
                "before": before,
                "after": after,
                "change_pct": change_pct(before["median"], after["median"]),
                "pairs": len(SEEDS),
                "pairs_won": pairs_won(before, after, lower_is_better),
            },
            "traced": {
                "seed": SEEDS[0],
                "before": layers["before"],
                "after": layers["after"],
                "change_pct": change_pct(layers["before"], layers["after"]),
                "lane_counts_equal": all(
                    layers["before"].get(c) == layers["after"].get(c)
                    for c in counts
                ),
            },
        }
    payload = {
        "benchmark": "perfbench/run.py (BENCHMARK.json)",
        "seeds": SEEDS,
        "seconds": seconds,
        "before": {
            "ref": args.before,
            "git_sha": git("rev-parse", args.before),
            "src_dirty": False,
            "src_sha256": before_src,
        },
        "after": {
            "git_sha": git("rev-parse", "HEAD"),
            "src_dirty": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": src_digest(ROOT),
        },
        "host": {
            "node": platform.node(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": results,
    }
    path = write_bench_artifact(args.name, payload)
    print(f"wrote {path}")
    for workload, result in results.items():
        e2e = result["end_to_end"]
        print(workload, "end-to-end change %", e2e["change_pct"])
        print(workload, f"pairs won of {e2e['pairs']}", e2e["pairs_won"])
        print(workload, "lane counts equal",
              result["traced"]["lane_counts_equal"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
