"""Host-time benchmark of the OASIS reproduction.

Run from the repository root; nothing needs building or installing::

    python3 perfbench/run.py --workload policy_sweep --seed 1 \\
        --seconds 25 --trace 0

The workloads (``policy_sweep``, ``oversub_sweep``, ``reproduce_subset``)
are described in :mod:`perfbench.plans`.  A run repeats (cold pass, then
batches of ten warm passes for at least half a second) until
``--seconds`` have passed and at least three
cold passes are done, then checks the outputs: every cold pass and every
warm pass must produce the same digest, and the workload's own checks
(including a per-record replay of some sweep cells) must pass.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, in simulator
host time (not simulated time):

``cold_pass_s``   median seconds of a cold pass
``warm_pass_s``   median seconds of a warm pass
``peak_rss_mb``   peak resident memory of the benchmark process up to
                  the end of its first cold pass, as one invocation of
                  the command would reach (each further pass in the
                  same process adds a few MB that a user never sees)
``setup_s``       median seconds of a fresh interpreter that imports
                  the simulator, builds the workload plan and runs one
                  small warm-up simulation (5 probes; untraced runs
                  only)

Every time is wall time rescaled by a host-speed reference sampled
during the timed interval (see :mod:`perfbench.hostspeed`): seconds on
a host that runs the reference at a fixed speed, which removes most of
the drift other tenants cause on a shared host.

With ``--trace 1`` every simulator layer is wrapped with spans (see
:mod:`perfbench.spans`) and the metrics are per cold pass: self time per
layer in ms, record counts per replay lane, and the traced pass wall
time (its excess over ``cold_pass_s`` is the tracing overhead, plus
about 1% of reference sampling that traced passes keep).  The
spans of the first cold pass are written as a Chrome trace under
``.perfbench/``.

Scratch state (result stores, artifact dirs) lives in ``.perfbench/``
under the repository root and is removed at exit; traces stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Cold passes measured even when ``--seconds`` is shorter.
MIN_PASSES = 3
#: Warm passes timed together; the cache resets between them
#: (microseconds) fall inside the timed interval.  Only one batch's
#: results are held at a time, so peak memory does not grow with it.
WARM_BATCH = 10
#: Warm batches after each cold pass: at least one, and more until this
#: many seconds have passed.
WARM_S = 0.5
#: Fresh-interpreter set-up probes per run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

#: Per-layer self-time metrics: name -> span layers summed.
LAYER_METRICS = {
    "trace_generate_ms": ("trace.generate",),
    "machine_build_ms": ("machine.build",),
    "run_loop_ms": ("sim.run",),
    "soa_build_ms": ("replay.soa_build",),
    "mask_build_ms": ("fastpath.mask_build",),
    "steady_lane_ms": ("fastpath.steady",),
    "fault_lane_ms": ("fastpath.fault_lane",),
    "per_record_ms": ("replay.phase", "fastpath.chunk"),
    "memo_ms": ("memo",),
    "cache_write_ms": ("cache.write",),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _isolate_environment() -> None:
    """Default simulator settings, minus per-write fsync.

    ``REPRO_*`` knobs from the caller are dropped so every run measures
    the same configuration.  fsync is off: its cost is the disk's, not
    the simulator's, and it is the noisiest part of a shared host.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NO_FSYNC"] = "1"


def _load_plan(workload: str, seed: int):
    """Import the simulator from ``src/`` and build the workload plan."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import plans

    if workload not in plans.WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; known: "
            + ", ".join(sorted(plans.WORKLOADS))
        )
    plan = plans.WORKLOADS[workload](seed)
    plans.warm_up()
    return plan


def _probe_setup(args: argparse.Namespace) -> None:
    """One fresh-interpreter ``--setup-only`` run; raises if it fails."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")


def _layer_sample(recorder, since: int, scaled_s: float,
                  factor: float) -> dict[str, float]:
    """Per-layer numbers for one traced cold pass, host-speed scaled."""
    own = {layer: ms * factor
           for layer, ms in recorder.self_ms(since).items()}
    counts = recorder.records
    sample = {
        name: sum(own.get(layer, 0.0) for layer in layers)
        for name, layers in LAYER_METRICS.items()
    }
    sample["traced_cold_pass_ms"] = scaled_s * 1e3
    sample["unattributed_ms"] = scaled_s * 1e3 - sum(own.values())
    records = counts.get("replay.phase", 0)
    steady = counts.get("fastpath.steady", 0)
    fault_lane = counts.get("fastpath.fault_lane", 0)
    sample.update({
        "sims": counts.get("machine.build", 0),
        "records": records,
        "steady_records": steady,
        "fault_lane_records": fault_lane,
        "per_record_records": records - steady - fault_lane,
        "mask_builds": counts.get("fastpath.mask_build", 0),
    })
    return sample


#: Units of the per-layer metrics that are not milliseconds.
COUNT_METRICS = ("sims", "records", "steady_records", "fault_lane_records",
                 "per_record_records", "mask_builds")


def measure(args: argparse.Namespace) -> dict:
    plan = _load_plan(args.workload, args.seed)
    from perfbench.hostspeed import HostSpeed

    recorder = None
    if args.trace:
        from repro.obs.export import write_chrome_trace

        from perfbench.spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    cold_s: list[float] = []
    warm_s: list[float] = []
    layers: list[dict] = []
    cache_read_ms: list[float] = []
    outcomes = []
    problems: list[str] = []

    def timed_passes(cold: bool, count: int):
        """Time ``count`` back-to-back passes; seconds per pass."""
        plan.prepare(work, cold=cold)
        mark = recorder.mark() if recorder else 0
        raws = []

        def passes():
            for index in range(count):
                if index:
                    plan.prepare(work, cold=cold)
                raws.append(plan.run(work, cold=cold))

        # Traced runs keep the sampler's own time in the pass, so that
        # layer self times (which include it) never exceed the pass.
        scaled, factor, _ = speed.timed(passes, exclusive=recorder is None)
        outcomes.extend(plan.outcome(work, cold, raw) for raw in raws)
        return scaled / count, factor, mark, raws[0]

    with HostSpeed() as speed:
        # setup_s is end-to-end, so traced runs skip the probes.
        setup = [] if recorder else [
            speed.timed(lambda: _probe_setup(args), exclusive=False)[0]
            for _ in range(SETUP_PROBES)
        ]
        deadline = time.perf_counter() + args.seconds
        try:
            while len(cold_s) < MIN_PASSES or time.perf_counter() < deadline:
                scaled, factor, mark, raw = timed_passes(cold=True, count=1)
                cold_s.append(scaled)
                if recorder:
                    layers.append(
                        _layer_sample(recorder, mark, scaled, factor)
                    )
                    if len(cold_s) == 1:
                        write_chrome_trace(
                            trace_path, recorder.to_tracer(mark),
                            run_meta={"pass": "cold pass 1",
                                      "workload": args.workload,
                                      "seed": args.seed},
                        )
                # The check re-simulates cells, so it runs after the
                # pass's spans, counts and memory are read.
                if len(cold_s) == 1:
                    peak_kb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss
                    problems += plan.check(raw)
                del raw  # only digests are kept, so memory stays flat
                # Warm passes are short, so they are timed in batches,
                # and batches are repeated until WARM_S have passed.
                warm_until = time.perf_counter() + WARM_S
                while True:
                    scaled, factor, mark, _ = timed_passes(cold=False,
                                                           count=WARM_BATCH)
                    warm_s.append(scaled)
                    if recorder:
                        read = recorder.self_ms(mark).get("cache.read", 0.0)
                        cache_read_ms.append(read * factor / WARM_BATCH)
                        del recorder.spans[:]  # keep memory flat
                    if time.perf_counter() >= warm_until:
                        break
        finally:
            if recorder:
                recorder.uninstall()
            shutil.rmtree(work, ignore_errors=True)

    for outcome in outcomes:
        problems += outcome.problems
    if len({outcome.digest for outcome in outcomes}) != 1:
        problems.append("passes disagree: outputs are not deterministic "
                        "or the warm path differs from the cold one")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    median = statistics.median
    if recorder:
        metrics = {
            name: {
                "value": median([sample[name] for sample in layers]),
                "unit": "count" if name in COUNT_METRICS else "ms",
            }
            for name in layers[0]
        }
        metrics["cache_read_ms"] = {"value": median(cache_read_ms),
                                    "unit": "ms"}
    else:
        metrics = {
            "cold_pass_s": {"value": median(cold_s), "unit": "s"},
            "warm_pass_s": {"value": median(warm_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    print(f"{args.workload} seed={args.seed}: {len(cold_s)} cold and "
          f"{len(warm_s)} batches of {WARM_BATCH} warm passes, "
          f"{len(setup)} set-up probes")
    for name, metric in metrics.items():
        print(f"  {name:<22} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: simulator sources not found under src/repro",
              file=sys.stderr)
        return 2
    _isolate_environment()
    if args.setup_only:
        _load_plan(args.workload, args.seed)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
