"""One-command reproduce-all orchestrator.

``scripts/reproduce_all`` (and ``repro-oasis reproduce``) drive every
experiment in :data:`repro.harness.EXPERIMENTS`, in paper order, through
the parallel harness with the persistent result cache engaged (and the
phase-snapshot tier off), and write a per-run artifact directory::

    results/artifacts/<run-id>/
        manifest.json     git SHA, config digest, seeds, env knobs
        metrics.jsonl     one line per (experiment, seed): wall time,
                          cache hit deltas, new-simulation count
        summary.json      roll-up of the whole run
        reports/          rendered per-experiment reports (.txt + .json)
        trace.json        Chrome trace of the pipeline timeline

The run id is deterministic over (git SHA, profile), so re-invoking the
same pipeline resumes: experiments already recorded in
``metrics.jsonl`` are skipped outright, and re-run cells are served
from the persistent result cache — a killed run picks up with zero
re-simulations of cached cells.

After the experiment loop the pipeline folds every ``results/BENCH_*``
perf artifact plus its own summary into ``results/BENCH_all.json`` (the
cross-PR perf trajectory), and on full-profile runs regenerates
``EXPERIMENTS.md`` from the saved reports — no hand-edited numbers.

A run killed mid-loop (SIGKILL, ``KeyboardInterrupt``) leaves its
completed experiments journaled in ``metrics.jsonl`` and never writes
``summary.json``; the next invocation resumes from the journal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.config import baseline_config
from repro.harness import (
    EXPERIMENTS,
    SEEDED_EXPERIMENTS,
    cache_stats,
    configure,
    run_experiment,
)
from repro.harness import runner as _runner
from repro.artifacts.registry import normalize_exp_id, repo_root

SCHEMA_VERSION = 1

#: The smoke profile's application subset (3 apps, steady-state-heavy).
SMOKE_APPS = ["mm", "st", "bfs"]


def _git_info(root: Path) -> dict:
    """Best-effort git identity of the tree the pipeline ran on."""
    info = {"sha": "unknown", "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode == 0:
            info["sha"] = sha.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if status.returncode == 0:
            info["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def _config_digest() -> str:
    """Content hash of the Table I baseline configuration."""
    blob = json.dumps(
        dataclasses.asdict(baseline_config()), sort_keys=True, default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _env_knobs() -> dict[str, str]:
    return {
        key: value for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


def _result_file_count() -> int | None:
    """Simulation results persisted in the runner's store (all writers).

    Counted from the store's result files, not the parent's miss
    counters: pool workers write their own misses, so file counts are
    the only accounting that sees every simulation of a parallel run.
    ``None`` when the disk cache is off.
    """
    disk = _runner.disk_cache()
    if disk is None:
        return None
    root = Path(disk.root)
    if not root.is_dir():
        return 0
    return sum(1 for _ in root.glob("[0-9a-f][0-9a-f]/*.json"))


def _load_completed(metrics_path: Path) -> set[tuple[str, int]]:
    """(exp_id, seed) pairs already recorded ok by a previous run."""
    done: set[tuple[str, int]] = set()
    if not metrics_path.exists():
        return done
    for line in metrics_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line from a killed run
        if record.get("ok"):
            done.add((record["exp_id"], int(record.get("seed", 0))))
    return done


def _select(only: list[str] | None) -> list[str]:
    """The chosen experiment ids in paper order (every one without
    ``only``); :func:`normalize_exp_id` rejects unknown ids."""
    if not only:
        return list(EXPERIMENTS)
    chosen = {normalize_exp_id(raw) for raw in only}
    return [exp_id for exp_id in EXPERIMENTS if exp_id in chosen]


def run_pipeline(
    only: list[str] | None = None,
    seeds: int = 1,
    smoke: bool = False,
    apps: list[str] | None = None,
    jobs: int | None = None,
    artifact_root: str | Path | None = None,
    artifact_dir: str | Path | None = None,
    results_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    fresh: bool = False,
    docs: bool | None = None,
    log=print,
) -> dict:
    """Run the reproduce-all pipeline; returns the summary dict.

    Args:
        only: experiment-id subset (``fig02`` and ``fig2`` both work).
        seeds: workload seeds per seeded experiment (characterization
            experiments are seed-invariant and run once).
        smoke: 3-app smoke profile (``mm,st,bfs``) unless ``apps`` is
            given explicitly.
        apps: explicit application subset; ``None`` = profile default.
        jobs: harness worker processes (default 1 = serial).
        artifact_root: parent for per-run artifact dirs (default
            ``results/artifacts``).
        artifact_dir: exact artifact directory (overrides the
            deterministic run-id naming — still resumable).
        results_dir: where canonical reports and ``BENCH_all.json``
            land (default ``results/``).
        cache_dir: persistent result-store directory (default: the
            repo store under ``results/cache``).
        no_cache: disable the persistent result cache.
        fresh: ignore (and truncate) a previous run's ``metrics.jsonl``
            instead of resuming from it.
        docs: force EXPERIMENTS.md regeneration on/off; ``None`` = only
            after a clean full-profile run (every experiment, all apps).
        log: progress sink (``print``); pass a no-op to silence.
    """
    from repro.obs import RecordingTracer, write_chrome_trace

    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    root = repo_root()
    results = Path(results_dir) if results_dir else root / "results"
    selection = _select(only)
    run_apps = list(apps) if apps else (list(SMOKE_APPS) if smoke else None)
    git = _git_info(root)

    # The snapshot tier stays off even after an earlier
    # configure(memo=True): a snapshot's key is the run's full
    # identity, so the result cache would always answer first.
    configure(
        jobs=jobs if jobs is not None else 1,
        disk_cache=not no_cache,
        cache_dir=str(cache_dir) if cache_dir and not no_cache else None,
        memo=False,
    )

    profile = "smoke" if smoke else "full"
    sel_blob = json.dumps([selection, run_apps, seeds], sort_keys=True)
    sel_digest = hashlib.sha256(sel_blob.encode()).hexdigest()[:8]
    run_id = f"{profile}-{git['sha'][:10]}-{sel_digest}"
    if artifact_dir is not None:
        out_dir = Path(artifact_dir)
    else:
        out_root = (
            Path(artifact_root) if artifact_root
            else results / "artifacts"
        )
        out_dir = out_root / run_id
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    if fresh and metrics_path.exists():
        metrics_path.unlink()
    completed = _load_completed(metrics_path)

    # The full canonical report set only comes from full-app runs;
    # subset runs keep their (smaller) reports inside the artifact dir
    # so they can never clobber the canonical tables under results/.
    full_profile = run_apps is None and not only
    save_canonical = run_apps is None

    manifest = {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git": git,
        "config_digest": _config_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "profile": profile,
        "seeds": seeds,
        "only": sorted(only) if only else None,
        "apps": run_apps,
        "jobs": jobs if jobs is not None else 1,
        "no_cache": no_cache,
        "cache_dir": str(_runner.disk_cache().root)
                     if _runner.disk_cache() is not None else None,
        "env": _env_knobs(),
        "experiments": selection,
        "resumed": bool(completed),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )

    tracer = RecordingTracer()
    started = time.monotonic()

    def now_ns() -> float:
        return (time.monotonic() - started) * 1e9

    log(f"reproduce: {len(selection)} experiment(s), profile={profile}, "
        f"seeds={seeds}, apps={','.join(run_apps) if run_apps else 'all'}, "
        f"artifacts -> {out_dir}")

    per_experiment: dict[str, dict] = {}
    n_run = n_skipped = n_failed = 0
    total_new = 0
    with metrics_path.open("a") as journal:
        for exp_id in selection:
            exp_seeds = range(seeds if exp_id in SEEDED_EXPERIMENTS else 1)
            entry = per_experiment.setdefault(
                exp_id, {"seeds": [], "wall_s": 0.0, "sims_new": 0,
                         "ok": True, "skipped": 0},
            )
            for seed in exp_seeds:
                if (exp_id, seed) in completed:
                    entry["skipped"] += 1
                    n_skipped += 1
                    tracer.instant("pipeline", "pipeline_skip", now_ns(),
                                   {"exp": exp_id, "seed": seed})
                    log(f"  {exp_id} seed={seed}: already recorded, skipped")
                    continue
                cache_before = cache_stats()
                files_before = _result_file_count()
                t0 = time.monotonic()
                tracer.begin_span("pipeline", exp_id, now_ns(),
                                  {"seed": seed})
                error = None
                try:
                    result = run_experiment(exp_id, apps=run_apps, seed=seed)
                except Exception as exc:  # noqa: BLE001 — journaled below
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    tracer.end_span("pipeline", now_ns())
                wall_s = time.monotonic() - t0
                cache_after = cache_stats()
                files_after = _result_file_count()
                if files_before is not None and files_after is not None:
                    sims_new = files_after - files_before
                else:
                    sims_new = cache_after["misses"] - cache_before["misses"]
                record = {
                    "exp_id": exp_id,
                    "seed": seed,
                    "ok": error is None,
                    "wall_s": round(wall_s, 4),
                    "sims_new": sims_new,
                    "cache": {
                        name: cache_after[name] - cache_before[name]
                        for name in ("hits", "misses",
                                     "disk_hits", "disk_misses")
                    },
                    "error": error,
                    "apps": run_apps or "all",
                    "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                }
                journal.write(json.dumps(record, sort_keys=True) + "\n")
                journal.flush()
                entry["seeds"].append(seed)
                entry["wall_s"] = round(entry["wall_s"] + wall_s, 4)
                entry["sims_new"] += sims_new
                total_new += sims_new
                if error is None:
                    n_run += 1
                    tracer.instant(
                        "pipeline", "pipeline_experiment", now_ns(),
                        {"exp": exp_id, "seed": seed, "wall_s": wall_s,
                         "sims_new": sims_new},
                    )
                    if seed == 0:
                        result.save(reports_dir)
                        if save_canonical:
                            result.save(results)
                    log(f"  {exp_id} seed={seed}: ok in {wall_s:.2f}s "
                        f"({sims_new} new simulation(s))")
                else:
                    n_failed += 1
                    entry["ok"] = False
                    tracer.instant(
                        "pipeline", "pipeline_error", now_ns(),
                        {"exp": exp_id, "seed": seed, "error": error},
                    )
                    log(f"  {exp_id} seed={seed}: FAILED ({error})")

    wall_total = time.monotonic() - started
    summary = {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "git_sha": git["sha"],
        "ok": n_failed == 0,
        "profile": profile,
        "seeds": seeds,
        "apps": run_apps or "all",
        "experiments": {
            "selected": len(selection),
            "run": n_run,
            "skipped": n_skipped,
            "failed": n_failed,
        },
        "sims_new": total_new,
        "wall_s": round(wall_total, 3),
        "per_experiment": per_experiment,
        "artifact_dir": str(out_dir),
    }

    bench_all_path = write_bench_all(results, summary, git)
    summary["bench_all"] = str(bench_all_path)

    regen_docs = docs if docs is not None else (full_profile and n_failed == 0)
    if regen_docs:
        from repro.artifacts.experiments_md import write_experiments_md

        missing = write_experiments_md(results_dir=results)
        summary["experiments_md"] = {"written": True, "missing": missing}
        log(f"  EXPERIMENTS.md regenerated "
            f"({len(selection) - len(missing)} report(s))")
    else:
        summary["experiments_md"] = {"written": False, "missing": []}

    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    write_chrome_trace(out_dir / "trace.json", tracer,
                       {"run_id": run_id, "profile": profile})
    log(f"reproduce: {n_run} run, {n_skipped} skipped, {n_failed} failed "
        f"in {wall_total:.1f}s ({total_new} new simulation(s)); "
        f"summary -> {out_dir / 'summary.json'}")
    return summary


def write_bench_all(
    results: Path, pipeline_summary: dict | None, git: dict,
) -> Path:
    """Consolidate every ``results/BENCH_*.json`` into one trajectory.

    The record is self-describing: one ``benches`` entry per perf
    artifact present (replay smoke, memo, fault path, ...), plus
    the pipeline summary that produced it — future re-anchors read a
    single file to see speed over time.
    """
    benches = {}
    for path in sorted(results.glob("BENCH_*.json")):
        if path.name == "BENCH_all.json":
            continue
        name = path.stem[len("BENCH_"):]
        try:
            benches[name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            benches[name] = {"error": f"{type(exc).__name__}: {exc}"}
    payload = {
        "schema": SCHEMA_VERSION,
        "generated_by": "scripts/reproduce_all",
        "git": git,
        "timestamp": time.time(),
        "pipeline": pipeline_summary,
        "benches": benches,
    }
    out = results / "BENCH_all.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


# -- command-line front end (scripts/reproduce_all, repro-oasis reproduce) --


def add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    """The pipeline's flags (shared by the script and the subcommand)."""
    parser.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated experiment subset "
                             "(fig02/fig2 and table2 both work)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="workload seeds per seeded experiment "
                             "(default 1; characterization experiments "
                             "always run once)")
    parser.add_argument("--smoke", action="store_true",
                        help="3-app smoke profile (mm,st,bfs)")
    parser.add_argument("--apps", default=None,
                        help="comma-separated application subset "
                             "(overrides the profile default)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="harness worker processes (default 1)")
    parser.add_argument("--artifact-root", default=None,
                        dest="artifact_root", metavar="DIR",
                        help="parent directory for per-run artifact "
                             "dirs (default results/artifacts)")
    parser.add_argument("--artifact-dir", default=None, dest="artifact_dir",
                        metavar="DIR",
                        help="exact artifact directory (overrides the "
                             "deterministic run-id naming)")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir",
                        metavar="DIR",
                        help="persistent result-store directory "
                             "(default results/cache)")
    parser.add_argument("--results-dir", default=None, dest="results_dir",
                        metavar="DIR",
                        help="canonical reports + BENCH_all.json "
                             "directory (default results/)")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore a previous run's metrics.jsonl "
                             "instead of resuming from it")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="skip the persistent result cache")
    parser.add_argument("--docs", action="store_true", default=None,
                        help="regenerate EXPERIMENTS.md even for "
                             "subset/smoke runs")
    parser.add_argument("--no-docs", action="store_false", dest="docs",
                        help="never regenerate EXPERIMENTS.md")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-experiment progress lines")


def run_from_args(args: argparse.Namespace) -> int:
    """Run the pipeline from parsed CLI args; returns the exit code."""
    only = (
        [part for part in args.only.split(",") if part.strip()]
        if args.only else None
    )
    apps = (
        [part.strip().lower() for part in args.apps.split(",")
         if part.strip()]
        if args.apps else None
    )
    try:
        summary = run_pipeline(
            only=only,
            seeds=args.seeds,
            smoke=args.smoke,
            apps=apps,
            jobs=args.jobs,
            artifact_root=args.artifact_root,
            artifact_dir=args.artifact_dir,
            results_dir=args.results_dir,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            fresh=args.fresh,
            docs=args.docs,
            log=(lambda *_args, **_kw: None) if args.quiet else print,
        )
    except ValueError as exc:
        print(f"reproduce: {exc}", file=sys.stderr)
        return 2
    return 0 if summary["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reproduce_all",
        description="Reproduce every paper table/figure and write a "
                    "per-run artifact directory (manifest, metrics, "
                    "summary, BENCH_all trajectory).",
    )
    add_pipeline_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
