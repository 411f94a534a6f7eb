"""Phase-snapshot benchmark: memoized vs cold wall clock + digest drift.

Times the same serial policy sweep three ways — cold (memo off),
populate (memo on, empty store) and warm (memo on, populated store) —
asserts the warm sweep's speedup over cold, verifies every warm result
against the pinned golden digests (zero drift allowed), and writes the
record to ``--out`` (default ``results/BENCH_memo.json``).

* ``--smoke`` — two multi-phase apps x three policies, about a minute,
  speedup > 1.5x (``make verify-memo``).
* default (full) — all registry apps x all policies, speedup > 5x.

The result disk cache is off throughout, so the comparison measures
simulation work.  Counters come from the session's ``PhaseMemo``; its
snapshots also go to a throwaway blob tier, because the full matrix's
outgrow the in-memory one.
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


def _sweep(config, pairs):
    from repro.harness import run_sims_parallel

    requests = [(config, app, policy) for app, policy in pairs]
    t0 = time.perf_counter()
    results = run_sims_parallel(requests, jobs=1)
    return results, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small matrix, ~60s budget, speedup > 1.5x")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="override the warm-vs-cold floor "
                             "(default 1.5 smoke, 5.0 full)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="trajectory JSON path "
                             "(default results/BENCH_memo.json)")
    args = parser.parse_args(argv)

    from repro import POLICY_FACTORIES, baseline_config
    from repro.harness import DiskCache, clear_cache, configure, runner
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
          f"policies = {len(pairs)} runs, serial")

    with tempfile.TemporaryDirectory(prefix="repro-snap-") as snap_dir:
        configure(jobs=1, disk_cache=False, memo=False)
        clear_cache()
        _, t_cold = _sweep(config, pairs)
        print(f"  cold (no memo):           {t_cold:8.2f}s")

        configure(memo=True)
        clear_cache()
        memo = runner._session.memo
        memo.disk = DiskCache(snap_dir)
        _, t_pop = _sweep(config, pairs)
        pop_memo = memo.stats()
        print(f"  populate (memo, empty):   {t_pop:8.2f}s")

        # Drop only the result tier; the snapshot store must carry the
        # warm sweep on its own.
        runner._session.results.clear()
        results, t_warm = _sweep(config, pairs)
        warm_memo = {
            key: value - pop_memo[key] for key, value in memo.stats().items()
        }
        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        print(f"  warm (memo, populated):   {t_warm:8.2f}s  "
              f"-> {speedup:.1f}x vs cold")
        configure(memo=False)

    print(f"  populate: {pop_memo['stores']} snapshots "
          f"({pop_memo['snapshot_bytes'] / 1e6:.1f} MB)")
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
