"""Sweep fast path benchmark: memoized vs cold wall clock + digest drift.

Times the same policy sweep three ways — cold (memo off), populate
(memo on, empty store) and warm (memo on, populated store) — asserts
the warm sweep's speedup over cold, verifies every warm result against
the pinned golden digests (zero drift allowed), and writes the
trajectory to ``results/BENCH_memo.json`` so future re-anchors can see
speed over time.

Modes:

* ``--smoke`` — two multi-phase apps x three policies, serial; finishes
  in about a minute and asserts speedup > 1.5x (the CI job's budget).
* default (full) — the fig15-style matrix (all registry apps x all
  policies); asserts speedup > 5x, the tentpole target.

The result disk cache is disabled throughout so the comparison measures
simulation work, not result-cache hits; snapshots persist in a
throwaway directory so pool workers (``--jobs N``) share them too.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

SMOKE_APPS = ["c2d", "st"]
SMOKE_POLICIES = ["oasis", "on_touch", "grit"]


def _sweep(config, pairs, jobs):
    from repro.harness import last_sweep_summary, run_sims_parallel

    requests = [(config, app, policy) for app, policy in pairs]
    t0 = time.perf_counter()
    results = run_sims_parallel(requests, jobs=jobs)
    return results, time.perf_counter() - t0, last_sweep_summary()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small matrix, ~60s budget, speedup > 1.5x")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per sweep (default serial)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="override the warm-vs-cold floor "
                             "(default 1.5 smoke, 5.0 full)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="trajectory JSON path "
                             "(default results/BENCH_memo.json)")
    args = parser.parse_args(argv)

    from repro import POLICY_FACTORIES, baseline_config
    from repro.harness import clear_cache, configure, runner
    from repro.sim import SimulationResult
    from repro.verify.golden import entry_for, golden_key, load_golden
    from repro.workloads import APPLICATION_ORDER

    if args.smoke:
        apps, policies = SMOKE_APPS, SMOKE_POLICIES
    else:
        apps, policies = list(APPLICATION_ORDER), sorted(POLICY_FACTORIES)
    min_speedup = args.min_speedup if args.min_speedup is not None else (
        1.5 if args.smoke else 5.0
    )
    pairs = [(app, policy) for app in apps for policy in policies]
    config = baseline_config()
    mode = "smoke" if args.smoke else "full"
    print(f"bench_memo [{mode}]: {len(apps)} apps x {len(policies)} "
          f"policies = {len(pairs)} runs, jobs={args.jobs}")

    with tempfile.TemporaryDirectory(prefix="repro-memo-") as memo_dir:
        configure(jobs=args.jobs, disk_cache=False, memo=False)
        clear_cache()
        _, t_cold, _ = _sweep(config, pairs, args.jobs)
        print(f"  cold (no memo):           {t_cold:8.2f}s")

        configure(memo=True, memo_dir=memo_dir)
        clear_cache()
        _, t_pop, pop_summary = _sweep(config, pairs, args.jobs)
        print(f"  populate (memo, empty):   {t_pop:8.2f}s")

        # Drop only the result tier; the snapshot store must carry the
        # warm sweep on its own.
        runner._session.results.clear()
        results, t_warm, warm_summary = _sweep(config, pairs, args.jobs)
        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        print(f"  warm (memo, populated):   {t_warm:8.2f}s  "
              f"-> {speedup:.1f}x vs cold")
        configure(memo=False, memo_dir="")

    pop_memo = pop_summary["memo"]
    warm_memo = warm_summary["memo"]
    print(f"  populate: {pop_memo['stores']} snapshots "
          f"({pop_memo['snapshot_bytes'] / 1e6:.1f} MB), "
          f"{pop_memo['prefix_forks']} prefix forks")
    print(f"  warm: {warm_memo['hits']} hits / {warm_memo['misses']} "
          f"misses, {warm_memo['resumed_phases']} phases resumed")

    # Zero digest drift: every warm result must match its pinned entry.
    entries = load_golden().get("entries", {})
    drift: list[str] = []
    checked = missing = 0
    for (app, policy), result in zip(pairs, results):
        if not isinstance(result, SimulationResult):
            drift.append(f"{app}/{policy}: run failed: {result}")
            continue
        pin = entries.get(golden_key(app, policy))
        if pin is None:
            missing += 1
            continue
        checked += 1
        if entry_for(result)["core"] != pin["core"]:
            drift.append(f"{app}/{policy}: core digest drifted")
    print(f"  golden: {checked} entries checked, {missing} unpinned, "
          f"{len(drift)} drifted")

    payload = {
        "benchmark": "memo_sweep",
        "mode": mode,
        "apps": apps,
        "policies": policies,
        "jobs": args.jobs,
        "wall_clock_s": {
            "cold": round(t_cold, 3),
            "populate": round(t_pop, 3),
            "warm": round(t_warm, 3),
        },
        "speedup_vs_cold": round(speedup, 2),
        "memo": {"populate": pop_memo, "warm": warm_memo},
        "golden": {
            "checked": checked,
            "missing": missing,
            "drift": drift,
        },
        "timestamp": time.time(),
    }
    from benchmarks.conftest import write_bench_artifact

    out = write_bench_artifact("memo", payload, out=args.out)
    print(f"  trajectory written to {out}")

    failed = False
    if drift:
        for line in drift:
            print(f"  DRIFT {line}")
        failed = True
    if warm_memo["hits"] == 0:
        print("  FAIL: warm sweep never resumed from a snapshot")
        failed = True
    if speedup < min_speedup:
        print(f"  FAIL: warm speedup {speedup:.2f}x below the "
              f"{min_speedup:.1f}x floor")
        failed = True
    print("bench_memo: " + ("FAILED" if failed else
                            f"ok ({speedup:.1f}x, zero drift)"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
