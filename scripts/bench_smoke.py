"""Replay-performance smoke benchmark: the perf trajectory for PRs.

Times single-run replay (fast path vs ``REPRO_FORCE_SLOW_PATH``) for a
fixed three-app subset (mm, st, i2c — the steady-state-heavy traces),
exercises the two-level result cache, and writes
``results/BENCH_replay.json`` with records/sec, wall time per run and
the cache hit rate so successive PRs can compare like for like.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py   # or: make bench-smoke
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro import baseline_config, get_workload, make_policy  # noqa: E402
from repro.harness import cache_stats, configure, run_sim  # noqa: E402
from repro.harness.runner import clear_cache  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

APPS = ("mm", "st", "i2c")
POLICY = "on_touch"


def time_replay(config, trace, slow: bool) -> float:
    """Wall time of one full replay, built fresh (no warm caches)."""
    if slow:
        os.environ["REPRO_FORCE_SLOW_PATH"] = "1"
    else:
        os.environ.pop("REPRO_FORCE_SLOW_PATH", None)
    try:
        machine = Machine(config, trace, make_policy(POLICY))
        t0 = time.perf_counter()
        machine.run()
        return time.perf_counter() - t0
    finally:
        os.environ.pop("REPRO_FORCE_SLOW_PATH", None)


def bench_replay(config) -> list[dict]:
    rows = []
    for app in APPS:
        trace = get_workload(app, config)
        records = trace.total_records
        fast_s = min(time_replay(config, trace, slow=False) for _ in range(3))
        slow_s = min(time_replay(config, trace, slow=True) for _ in range(2))
        rows.append(
            {
                "app": app,
                "policy": POLICY,
                "records": records,
                "fast_wall_s": round(fast_s, 4),
                "slow_wall_s": round(slow_s, 4),
                "speedup": round(slow_s / fast_s, 2),
                "records_per_sec": round(records / fast_s),
            }
        )
        print(
            f"{app:6s} {records:8d} records  fast {fast_s:6.3f}s  "
            f"slow {slow_s:6.3f}s  speedup {slow_s / fast_s:5.2f}x  "
            f"({records / fast_s:,.0f} rec/s)"
        )
    return rows


def bench_cache(config) -> dict:
    """Cold+warm pass through the harness; returns the hit rate."""
    with tempfile.TemporaryDirectory() as tmp:
        configure(disk_cache=True, cache_dir=tmp)
        try:
            for app in APPS:
                run_sim(config, app, POLICY, footprint_mb=8.0)
            clear_cache()  # drop in-process entries; disk survives
            for app in APPS:
                run_sim(config, app, POLICY, footprint_mb=8.0)
            stats = cache_stats()
        finally:
            configure(disk_cache=False)
            clear_cache()
    lookups = stats["disk_hits"] + stats["disk_misses"]
    rate = stats["disk_hits"] / lookups if lookups else 0.0
    print(
        f"cache  warm pass: {stats['disk_hits']}/{len(APPS)} runs from disk "
        f"(hit rate {rate:.0%})"
    )
    return {
        "disk_hits": stats["disk_hits"],
        "disk_misses": stats["disk_misses"],
        "hit_rate": round(rate, 3),
    }


def bench_obs_overhead(config, pairs: int = 9) -> dict:
    """Observability must be free when off and cheap when on.

    Off: passing the null tracer keeps the vectorized fast path engaged
    and the result bit-identical to an uninstrumented run.  On: a
    recording tracer forces the per-record path, so its cost is judged
    against the forced-slow-path baseline on one small workload — it
    must stay within 10%.

    Shared hosts show 2x run-to-run wall-clock swings that drift on
    multi-second scales, so the two variants are timed as back-to-back
    interleaved pairs and the overhead is the median of the per-pair
    ratios: each pair sees (nearly) the same host load, and the median
    discards the pairs a load shift lands inside.
    """
    from statistics import median

    from repro.obs import NULL_TRACER, MetricsRegistry, RecordingTracer
    from repro.sim import simulate

    app = "pr"
    trace = get_workload(app, config, footprint_mb=8.0)
    null_machine = Machine(config, trace, make_policy(POLICY), tracer=NULL_TRACER)
    assert null_machine._fast is not None, "null tracer disabled the fast path"
    plain_result = simulate(config, trace, make_policy(POLICY))
    null_result = simulate(config, trace, make_policy(POLICY), tracer=NULL_TRACER)
    assert plain_result.to_dict() == null_result.to_dict(), (
        "null tracer changed the simulation result"
    )

    def time_observed() -> float:
        machine = Machine(
            config, trace, make_policy(POLICY),
            tracer=RecordingTracer(), metrics=MetricsRegistry(),
        )
        t0 = time.perf_counter()
        machine.run()
        return time.perf_counter() - t0

    samples = [
        (time_replay(config, trace, slow=True), time_observed())
        for _ in range(pairs)
    ]
    overhead = median(t / s for s, t in samples) - 1.0
    slow_s = min(s for s, _ in samples)
    traced_s = min(t for _, t in samples)
    print(
        f"obs    {app}: slow-path {slow_s:6.3f}s  traced {traced_s:6.3f}s  "
        f"overhead {overhead:+.1%} median of {pairs} interleaved pairs "
        f"(null tracer bit-identical, fast path kept)"
    )
    return {
        "app": app,
        "footprint_mb": 8.0,
        "pairs": pairs,
        "slow_path_wall_s": round(slow_s, 4),
        "traced_wall_s": round(traced_s, 4),
        "overhead": round(overhead, 4),
        "null_tracer_bit_identical": True,
        "null_tracer_fast_path": True,
    }


def main() -> int:
    config = baseline_config()
    replay = bench_replay(config)
    cache = bench_cache(config)
    obs = bench_obs_overhead(config)
    payload = {
        "benchmark": "replay_smoke",
        "apps": list(APPS),
        "policy": POLICY,
        "replay": replay,
        "cache": cache,
        "obs_overhead": obs,
        "timestamp": time.time(),
    }
    from benchmarks.conftest import write_bench_artifact

    path = write_bench_artifact("replay", payload)
    print(f"[saved to {path}]")
    worst = min(row["speedup"] for row in replay)
    status = 0
    if worst < 3.0:
        print(f"WARNING: worst-case replay speedup {worst:.2f}x is below 3x")
        status = 1
    if obs["overhead"] > 0.10:
        print(
            f"WARNING: tracing overhead {obs['overhead']:+.1%} exceeds the "
            "10% budget over the slow path"
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
