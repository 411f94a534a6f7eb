"""Command-line interface: ``repro-oasis``.

Subcommands:

* ``simulate APP [--policy P ...]`` — run one application under one or
  more policies and print a comparison table.
* ``experiment ID`` — regenerate a paper table/figure (see ``list``).
* ``reproduce`` — one-command reproduce-all: every experiment through
  the parallel harness into a per-run artifact directory
  (``manifest.json``, ``metrics.jsonl``, ``summary.json``) plus the
  consolidated ``results/BENCH_all.json``; resumable (``--smoke``,
  ``--only``, ``--seeds``; same as ``scripts/reproduce_all``).
* ``sweep`` — speedup table of applications x policies against
  on-touch through the parallel harness (``--apps``, ``--policy``,
  ``--jobs``).
* ``list`` — list applications, policies, and experiments.
* ``characterize APP`` — print the Section IV object characterization.
* ``trace APP [--policy P] [--out FILE]`` — record one run with the
  observability tracer and export a Chrome ``trace_event`` JSON timeline
  (open in Perfetto / ``chrome://tracing``); the only command that
  records a run.
* ``verify`` — simulator-wide verification: phase-boundary invariants,
  differential oracles across every execution mode, golden-digest
  regression (``--update-golden`` re-pins), and a seeded trace fuzzer
  with delta-debugging shrinking (``--fuzz``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import (
    POLICY_FACTORIES,
    baseline_config,
    get_workload,
    make_policy,
    simulate,
)
from repro.analysis import (
    access_share_by_object,
    classify_object,
    classify_pages,
)
from repro.config import PAGE_SIZE_2M
from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.charts import bar_chart
from repro.workloads import APPLICATION_ORDER, APPLICATIONS


def _build_config(args):
    """The ``SystemConfig`` a command's flags select (``ValueError`` when
    ``SystemConfig`` rejects them)."""
    kwargs = {}
    if args.gpus is not None:
        kwargs["n_gpus"] = args.gpus
    if args.large_pages:
        kwargs["page_size"] = PAGE_SIZE_2M
    if args.oversubscription is not None:
        kwargs["oversubscription"] = args.oversubscription
    if args.distributed:
        kwargs["initial_placement"] = "distributed"
    if args.reset_threshold is not None:
        kwargs["reset_threshold"] = args.reset_threshold
    return baseline_config(**kwargs)


def cmd_simulate(args) -> int:
    config = args.config
    trace = get_workload(args.app, config, footprint_mb=args.footprint_mb)
    results = {
        name: simulate(config, trace, make_policy(name))
        for name in args.policy
    }
    baseline = results[args.policy[0]]
    print(f"{'policy':<16s} {'time(ms)':>10s} {'speedup':>8s} "
          f"{'faults':>9s} {'migr':>8s} {'dup':>8s} {'collapse':>8s}")
    for name, r in results.items():
        print(f"{name:<16s} {r.total_time_ns / 1e6:>10.2f} "
              f"{r.speedup_over(baseline):>8.2f} {int(r.total_faults):>9d} "
              f"{int(r.migrations):>8d} {int(r.duplications):>8d} "
              f"{int(r.collapses):>8d}")
    print()
    print(bar_chart(
        [(name, r.speedup_over(baseline)) for name, r in results.items()],
        reference=1.0,
    ))
    return 0


def _configure_runner(args) -> None:
    from repro.harness import configure

    configure(
        jobs=getattr(args, "jobs", None),
        disk_cache=not getattr(args, "no_cache", False),
    )


def cmd_experiment(args) -> int:
    _configure_runner(args)
    apps = args.apps.split(",") if args.apps else None
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    for exp_id in ids:
        result = run_experiment(exp_id, apps=apps)
        print(result.render())
        print()
        if args.save:
            path = result.save(Path(args.save))
            print(f"saved to {path}")
    return 0


def cmd_reproduce(args) -> int:
    from repro.artifacts.pipeline import run_from_args

    return run_from_args(args)


def cmd_list(_args) -> int:
    print("applications (Table II):")
    for app in APPLICATION_ORDER:
        info = APPLICATIONS[app]
        print(f"  {app:<9s} {info.full_name:<34s} {info.suite:<11s} "
              f"{info.pattern:<15s} {info.n_objects:>3d} objects  "
              f"{info.footprint_for(4):>4d} MB")
    print("\npolicies:")
    for name in POLICY_FACTORIES:
        print(f"  {name}")
    print("\nexperiments:")
    for exp_id, fn in sorted(EXPERIMENTS.items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:<8s} {doc}")
    return 0


def cmd_sweep(args) -> int:
    _configure_runner(args)
    config = args.config
    apps = (
        [a.strip() for a in args.apps.split(",") if a.strip()]
        if args.apps else list(APPLICATION_ORDER)
    )
    policies = args.policy or ["on_touch", "access_counter", "duplication",
                               "ideal", "grit", "oasis"]
    from repro.harness import (
        last_sweep_summary,
        run_sims_parallel,
        speedup_table,
    )

    footprints = (
        {a: args.footprint_mb for a in apps} if args.footprint_mb else None
    )
    summary = None
    if args.metrics_out:
        # Drive every cell, the on-touch baseline included, through
        # run_sims_parallel so the sweep-level summary covers the whole
        # table (the speedup_table call below then hits the warm cache —
        # capture the summary now, before that warm pass overwrites it).
        requests = []
        for app in apps:
            mb = footprints.get(app) if footprints else None
            for policy in dict.fromkeys(["on_touch", *policies]):
                requests.append((config, app, policy, {"footprint_mb": mb}))
        run_sims_parallel(requests)
        summary = last_sweep_summary()
    rows, geo = speedup_table(
        config, apps, policies, footprint_mb=footprints,
    )
    header = f"{'app':<10s}" + "".join(f"{p[:12]:>13s}" for p in policies)
    print(header)
    for row in rows:
        print(f"{row[0]:<10s}" + "".join(f"{v:13.2f}" for v in row[1:]))
    if args.metrics_out:
        import json

        path = Path(args.metrics_out)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"\nsweep summary written to {path} "
              f"({summary['runs']} runs, {summary['failed']} failed, "
              f"{summary['wall_clock_s']['total']:.2f}s)")
    return 0


def cmd_trace(args) -> int:
    """Record one observed run and export its timeline."""
    from repro.obs import RecordingTracer, write_chrome_trace

    config = args.config
    trace = get_workload(args.app, config, footprint_mb=args.footprint_mb)
    tracer = RecordingTracer()
    result = simulate(
        config, trace, make_policy(args.policy), tracer=tracer
    )
    out = Path(args.out or f"{args.app}.{args.policy}.trace.json")
    write_chrome_trace(out, tracer, {
        "workload": args.app,
        "policy": args.policy,
        "n_gpus": config.n_gpus,
    })
    totals = tracer.event_totals()
    rendered = ", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
    print(f"{args.app}/{args.policy}: "
          f"time={result.total_time_ns / 1e6:.2f} ms  "
          f"{len(tracer)} trace events on {len(tracer.tracks())} tracks")
    print(f"  instants: {rendered}")
    print(f"  trace written to {out} (load in Perfetto or chrome://tracing)")
    return 0


def cmd_verify(args) -> int:
    """Simulator-wide verification (see :mod:`repro.verify`)."""
    apps = (
        tuple(a.strip() for a in args.apps.split(",") if a.strip())
        if args.apps else None
    )
    policies = tuple(args.policy) if args.policy else None
    jobs = args.jobs or 1
    failed = False

    if args.update_golden:
        from repro.verify import golden

        summary = golden.update_golden(
            apps=apps, policies=policies, seed=args.seed, jobs=jobs,
        )
        print(f"golden: pinned {summary['pinned']} entries "
              f"({len(summary['added'])} added, "
              f"{len(summary['changed'])} changed)")
        for key in summary["changed"]:
            print(f"  repinned {key}")
        print(f"  written to {golden.GOLDEN_PATH}")
        return 0

    run_all = not (
        args.invariants or args.differential or args.golden or args.fuzz
    )

    if args.invariants or run_all:
        from repro.verify import run_invariant_suite

        kwargs = {}
        if apps is not None:
            kwargs["apps"] = apps
        if policies is not None:
            kwargs["policies"] = policies
        report = run_invariant_suite(**kwargs)
        print(f"invariants: {report['checks']} runs, "
              f"{report['phases']} phase boundaries checked")
        for violation in report["violations"]:
            print(f"  VIOLATION {violation}")
        failed |= bool(report["violations"])

    if args.differential or run_all:
        from repro.verify import differential

        lanes = (
            tuple(
                lane.strip()
                for lane in args.lanes.split(",")
                if lane.strip()
            )
            if getattr(args, "lanes", None) else None
        )
        report = differential.run_differential(
            apps=apps if apps is not None else differential.DEFAULT_APPS,
            policies=policies,
            seed=args.seed,
            jobs=max(2, jobs),
            lanes=lanes,
        )
        print(f"differential: {report['comparisons']} comparisons over "
              f"{report['pairs']} pairs ({', '.join(report['lanes'])})")
        for mismatch in report["mismatches"]:
            print(f"  MISMATCH {mismatch}")
        failed |= bool(report["mismatches"])

    if args.golden or run_all:
        from repro.verify import golden

        try:
            report = golden.check_golden(
                apps=apps, policies=policies, seed=args.seed, jobs=jobs,
            )
        except FileNotFoundError:
            print(f"golden: {golden.GOLDEN_PATH} missing — "
                  "run `make golden-update` once to pin baselines")
            failed = True
        else:
            print(f"golden: {report['checked']} entries checked")
            for key in report["missing"]:
                print(f"  MISSING {key} (pin with `make golden-update`)")
            for mismatch in report["mismatches"]:
                print(f"  DRIFT {mismatch}")
            failed |= bool(report["missing"] or report["mismatches"])

    if args.fuzz or run_all:
        from repro.verify import fuzz

        kwargs = {}
        if policies is not None:
            kwargs["policies"] = policies
        report = fuzz.run_fuzz(
            seed=args.seed, cases=args.cases, budget_s=args.budget,
            **kwargs,
        )
        print(f"fuzz: {report['cases']} cases in "
              f"{report['elapsed_s']:.1f}s")
        for finding in report["failures"]:
            print(f"  FAILURE (seed {finding.seed}, shrunk to "
                  f"{finding.n_records} record(s)): {finding.failure}")
            print(f"  repro: {finding.command}")
            print("  minimal TraceBuilder program:")
            for line in finding.program.rstrip().splitlines():
                print(f"    {line}")
        failed |= bool(report["failures"])

    if failed:
        return 1
    print("verify: all checks passed")
    return 0


def cmd_characterize(args) -> int:
    config = baseline_config()
    trace = get_workload(args.app, config)
    cls = classify_pages(trace)
    shares = access_share_by_object(trace)
    print(f"{args.app}: {trace.n_objects} objects, "
          f"{trace.footprint_bytes / 2**20:.1f} MB")
    for obj in sorted(trace.objects, key=lambda o: -shares[o.name])[:20]:
        pattern = classify_object(trace, obj, cls)
        print(f"  {obj.name:<24s} {pattern.label:<22s} "
              f"{100 * shares[obj.name]:5.1f}% of accesses")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.artifacts.pipeline import add_pipeline_arguments

    parser = argparse.ArgumentParser(
        prog="repro-oasis",
        description="OASIS (HPCA 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an application")
    sim.add_argument("app", choices=sorted(APPLICATIONS))
    sim.add_argument("--policy", action="append",
                     choices=sorted(POLICY_FACTORIES),
                     help="repeatable; first one is the baseline "
                          "(default: on_touch oasis)")
    sim.add_argument("--gpus", type=int, default=None)
    sim.add_argument("--footprint-mb", type=float, default=None,
                     dest="footprint_mb")
    sim.add_argument("--large-pages", action="store_true")
    sim.add_argument("--distributed", action="store_true")
    sim.add_argument("--oversubscription", type=float, default=None)
    sim.add_argument("--reset-threshold", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("id", choices=[*sorted(EXPERIMENTS), "all"])
    exp.add_argument("--apps", default=None)
    exp.add_argument("--save", default="results")
    exp.add_argument("--jobs", type=int, default=None,
                     help="worker processes for independent runs")
    exp.add_argument("--no-cache", action="store_true", dest="no_cache",
                     help="skip the persistent result cache")
    exp.set_defaults(func=cmd_experiment)

    rpr = sub.add_parser(
        "reproduce",
        help="reproduce every table/figure into an artifact dir",
        description="One-command reproduce-all: run every paper "
                    "table/figure experiment through the parallel "
                    "harness and its result cache, writing "
                    "manifest.json / metrics.jsonl / summary.json plus "
                    "results/BENCH_all.json.  Resumable: re-invoking "
                    "the same profile skips recorded experiments and "
                    "serves re-run cells from the result cache.",
    )
    add_pipeline_arguments(rpr)
    rpr.set_defaults(func=cmd_reproduce)

    swp = sub.add_parser("sweep",
                         help="speedup table: apps x policies vs on-touch")
    swp.add_argument("--apps", default=None)
    swp.add_argument("--policy", action="append",
                     choices=sorted(POLICY_FACTORIES))
    swp.add_argument("--gpus", type=int, default=None)
    swp.add_argument("--footprint-mb", type=float, default=None,
                     dest="footprint_mb")
    swp.add_argument("--large-pages", action="store_true")
    swp.add_argument("--distributed", action="store_true")
    swp.add_argument("--oversubscription", type=float, default=None)
    swp.add_argument("--reset-threshold", type=int, default=None)
    swp.add_argument("--jobs", type=int, default=None,
                     help="worker processes for independent runs")
    swp.add_argument("--no-cache", action="store_true", dest="no_cache",
                     help="skip the persistent result cache")
    swp.add_argument("--metrics-out", default=None, dest="metrics_out",
                     metavar="FILE",
                     help="write the sweep summary (runs, cache "
                          "hits, wall clock, summed counters) as JSON")
    swp.set_defaults(func=cmd_sweep)

    lst = sub.add_parser("list", help="list apps, policies, experiments")
    lst.set_defaults(func=cmd_list)

    trc = sub.add_parser(
        "trace",
        help="record one run and export a Perfetto-loadable timeline",
    )
    trc.add_argument("app", choices=sorted(APPLICATIONS))
    trc.add_argument("--policy", default="oasis",
                     choices=sorted(POLICY_FACTORIES))
    trc.add_argument("--out", default=None, metavar="FILE",
                     help="Chrome trace_event JSON path "
                          "(default: <app>.<policy>.trace.json)")
    trc.add_argument("--gpus", type=int, default=None)
    trc.add_argument("--footprint-mb", type=float, default=None,
                     dest="footprint_mb")
    trc.add_argument("--large-pages", action="store_true")
    trc.add_argument("--distributed", action="store_true")
    trc.add_argument("--oversubscription", type=float, default=None)
    trc.add_argument("--reset-threshold", type=int, default=None)
    trc.set_defaults(func=cmd_trace)

    ver = sub.add_parser(
        "verify",
        help="simulator-wide verification: invariants, differential "
             "oracles, golden digests, fuzzing",
    )
    ver.add_argument("--invariants", action="store_true",
                     help="phase-boundary invariant suite only")
    ver.add_argument("--differential", action="store_true",
                     help="differential oracle lanes only")
    ver.add_argument("--golden", action="store_true",
                     help="golden-digest regression check only")
    ver.add_argument("--fuzz", action="store_true",
                     help="seeded random trace/config fuzzing (failures "
                          "are shrunk to a minimal TraceBuilder program)")
    ver.add_argument("--update-golden", action="store_true",
                     dest="update_golden",
                     help="recompute and re-pin the golden digests "
                          "instead of checking them")
    ver.add_argument("--seed", type=int, default=0,
                     help="base seed for fuzzing/differential runs; "
                          "fuzz case i uses seed+i")
    ver.add_argument("--cases", type=int, default=None,
                     help="number of fuzz cases (default 50 unless "
                          "--budget is given)")
    ver.add_argument("--budget", type=float, default=None,
                     help="fuzz wall-clock budget in seconds")
    ver.add_argument("--apps", default=None,
                     help="comma-separated app subset (default: lanes' "
                          "own defaults; golden uses the full registry)")
    ver.add_argument("--lanes", default=None,
                     help="comma-separated differential lane subset "
                          "(fast_slow, cache, traced, parallel, memo; "
                          "default: all)")
    ver.add_argument("--policy", action="append",
                     choices=sorted(POLICY_FACTORIES),
                     help="repeatable policy subset (default: all; the "
                          "fuzzer defaults to its own set)")
    ver.add_argument("--jobs", type=int, default=None,
                     help="worker processes for golden/differential runs")
    ver.set_defaults(func=cmd_verify)

    cha = sub.add_parser("characterize", help="Section IV object analysis")
    cha.add_argument("app", choices=sorted(APPLICATIONS))
    cha.set_defaults(func=cmd_characterize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not args.policy:
        args.policy = ["on_touch", "oasis"]
    if hasattr(args, "gpus"):  # simulate, sweep and trace
        try:
            args.config = _build_config(args)
        except ValueError as exc:
            parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
