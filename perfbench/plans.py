"""The benchmark's workloads: inputs from the seed, passes and checks.

Each workload is one *pass* that a user of the reproduction runs, built
from the seed alone.  The benchmark times it in two states:

* **cold**: every in-process cache dropped and an empty result store,
  so the pass generates traces, simulates, snapshots and writes results;
* **warm**: in-process caches dropped again but the store the cold pass
  filled kept, so the pass is served from the persistent result cache,
  as a second invocation of the same command would be.

Workloads:

``policy_sweep``
    ``repro-oasis sweep``: 4 apps x 5 policies at an 8 MB footprint
    through ``run_sims_parallel`` with the disk cache and sweep
    memoization on.  Exercises trace generation, both fast-path lanes,
    the per-record fallback and the snapshot tier.
``oversub_sweep``
    The Fig. 25 sweep widened to 3 memory-pressure levels (fits, 125%,
    150%) for on-touch and OASIS on 3 of those apps, at the same
    footprint.  Oversubscribed runs keep the capacity
    manager on, which bypasses the vectorized fast path, so this is the
    workload where a fast-path change should show no effect.
``reproduce_subset``
    ``repro-oasis reproduce --smoke`` on C2D (8 kernels, so the
    phase-prefix snapshot tier is used) and five artifacts (Table II,
    Figs. 5, 22, 23, 24) at their paper footprints, through the artifact
    pipeline (manifest, journal, reports, ``BENCH_all.json``).  Figs. 23
    and 24 reuse Fig. 22's runs, so the in-process cache serves them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import baseline_config, get_workload, make_policy, simulate
from repro.artifacts.pipeline import run_pipeline
from repro.artifacts.registry import discover_experiments, normalize_exp_id
from repro.harness import (
    EXPERIMENTS,
    clear_cache,
    configure,
    run_sims_parallel,
)
from repro.harness.runner import RunFailure
from repro.workloads import registry


def reset_caches() -> None:
    """Drop every in-process cache: results, traces, snapshots."""
    clear_cache()
    build = getattr(registry, "_cached_build", None)
    while build is not None and not hasattr(build, "cache_clear"):
        build = getattr(build, "__wrapped__", None)
    if build is not None:
        build.cache_clear()


def warm_up() -> None:
    """One small simulation, so first-call costs land before timing."""
    cfg = baseline_config()
    simulate(cfg, get_workload("mm", cfg, footprint_mb=1.0, seed=0),
             make_policy("on_touch"))


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PassOutcome:
    """One pass: work attempted and failed, an output digest, problems."""

    attempted: int
    failed: int
    digest: str
    problems: list[str]


# -- simulation sweeps -----------------------------------------------------


class SweepPlan:
    """A batch of simulation requests run through the parallel harness."""

    def __init__(self, requests: list[tuple], cross_check: list[int]) -> None:
        self.requests = requests
        #: Request indices re-simulated on the per-record path.
        self.cross_check = cross_check

    def prepare(self, work: Path, cold: bool) -> None:
        if cold:
            shutil.rmtree(work, ignore_errors=True)
            configure(jobs=1, cache_dir=str(work / "cache"), memo=True)
        reset_caches()

    def run(self, work: Path, cold: bool) -> list:
        return run_sims_parallel(self.requests, jobs=1)

    def outcome(self, work: Path, cold: bool, results: list) -> PassOutcome:
        failures = [r for r in results if isinstance(r, RunFailure)]
        digest = _sha([
            None if isinstance(r, RunFailure) else r.to_dict()
            for r in results
        ])
        return PassOutcome(len(results), len(failures), digest,
                           [str(f) for f in failures])

    def check(self, results: list) -> list[str]:
        """Semantic checks on one cold pass's results, plus a per-record
        replay of the cross-check cells that must match bit for bit."""
        problems = []
        for (cfg, app, policy, _extra), result in zip(self.requests, results):
            if isinstance(result, RunFailure):
                continue  # already counted as failed
            label = f"{app}/{policy} oversubscription={cfg.oversubscription}"
            if not result.total_time_ns > 0:
                problems.append(f"{label}: non-positive simulated time")
            if (cfg.oversubscription is not None) != (result.evictions > 0):
                problems.append(f"{label}: {result.evictions:g} evictions")
        for index in self.cross_check:
            cfg, app, policy, extra = self.requests[index]
            fast = results[index]
            slow = _simulate_slow_path(cfg, app, policy, **extra)
            if isinstance(fast, RunFailure) or (
                slow.to_dict() != fast.to_dict()
            ):
                problems.append(
                    f"{app}/{policy}: harness result differs from a "
                    "per-record replay"
                )
        return problems


def _simulate_slow_path(cfg, app, policy, footprint_mb, seed):
    """One uncached simulation with the vectorized fast path disabled."""
    os.environ["REPRO_FORCE_SLOW_PATH"] = "1"
    try:
        trace = get_workload(app, cfg, footprint_mb=footprint_mb, seed=seed)
        return simulate(cfg, trace, make_policy(policy))
    finally:
        del os.environ["REPRO_FORCE_SLOW_PATH"]


#: Apps covering the three Table II access-pattern families: random
#: (bfs), scatter-gather (i2c, mm) and adjacent (st).
SWEEP_APPS = ("bfs", "i2c", "mm", "st")

#: Every policy with a fast-path mode: plain on-touch, counter
#: migration, duplication, GRIT and OASIS.
SWEEP_POLICIES = ("on_touch", "access_counter", "duplication", "grit",
                  "oasis")

#: The footprint ``scripts/bench_smoke.py`` runs its harness passes at.
#: On a 2-vCPU Xeon host a cold ``policy_sweep`` pass takes about 7.5 s
#: here; the paper footprints (24-297 MB) would take minutes.
SWEEP_FOOTPRINT_MB = 8.0

#: Oversubscription factors; None is the fits-in-memory reference.
OVERSUB_LEVELS = (None, 1.25, 1.5)
OVERSUB_POLICIES = ("on_touch", "oasis")
#: st is left out: at 8 MB its capacity runs alone take about 6 s per
#: pass, which would leave room for only two passes in a run.
OVERSUB_APPS = ("bfs", "i2c", "mm")


def policy_sweep(seed: int) -> SweepPlan:
    cfg = baseline_config()
    extra = {"footprint_mb": SWEEP_FOOTPRINT_MB, "seed": seed}
    requests = [
        (cfg, app, policy, extra)
        for app in SWEEP_APPS for policy in SWEEP_POLICIES
    ]
    # Cross-check every policy on one app, chosen by the seed.
    first = (seed % len(SWEEP_APPS)) * len(SWEEP_POLICIES)
    return SweepPlan(requests, list(range(first, first + len(SWEEP_POLICIES))))


def oversub_sweep(seed: int) -> SweepPlan:
    extra = {"footprint_mb": SWEEP_FOOTPRINT_MB, "seed": seed}
    requests = [
        (baseline_config(oversubscription=level), app, policy, extra)
        for level in OVERSUB_LEVELS
        for app in OVERSUB_APPS for policy in OVERSUB_POLICIES
    ]
    # Cross-check the fits-in-memory runs of one app: the only ones the
    # fast path replays.
    first = (seed % len(OVERSUB_APPS)) * len(OVERSUB_POLICIES)
    return SweepPlan(requests,
                     list(range(first, first + len(OVERSUB_POLICIES))))


# -- the reproduce pipeline ------------------------------------------------


#: Artifacts run by ``reproduce_subset``, and the app they run on.
REPRODUCE_ONLY = ("table2", "fig5", "fig22", "fig23", "fig24")
REPRODUCE_APPS = ("c2d",)


@contextmanager
def _seed_offset(offset: int):
    """Shift the workload seed every registered experiment receives.

    The pipeline runs seed 0 of each seeded experiment; the benchmark's
    seed moves that to ``offset`` through the experiment registry the
    pipeline consults, so different seeds simulate different traces of
    the same shape.
    """
    originals = dict(EXPERIMENTS)

    def shifted(fn):
        def run(apps=None, seed: int = 0):
            return fn(apps=apps, seed=seed + offset)
        return run

    EXPERIMENTS.update({k: shifted(fn) for k, fn in originals.items()})
    try:
        yield
    finally:
        EXPERIMENTS.update(originals)


class ReproducePlan:
    """``repro-oasis reproduce --smoke`` on a fixed artifact subset."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Registry discovery is part of set-up: it scans benchmarks/.
        chosen = {normalize_exp_id(exp) for exp in REPRODUCE_ONLY}
        self.selection = [e for e in discover_experiments() if e in chosen]

    def prepare(self, work: Path, cold: bool) -> None:
        if cold:
            shutil.rmtree(work, ignore_errors=True)
        reset_caches()

    def run(self, work: Path, cold: bool) -> dict:
        with _seed_offset(self.seed):
            return run_pipeline(
                only=list(REPRODUCE_ONLY), smoke=True,
                apps=list(REPRODUCE_APPS), jobs=1,
                artifact_dir=work / "artifacts",
                results_dir=work / "results", cache_dir=work / "cache",
                fresh=not cold, docs=False, log=lambda *a, **k: None,
            )

    def outcome(self, work: Path, cold: bool, summary: dict) -> PassOutcome:
        counts = summary["experiments"]
        problems = []
        if counts["run"] + counts["failed"] != len(self.selection):
            problems.append(
                f"ran {counts['run']} of {len(self.selection)} experiments"
            )
        if cold and summary["sims_new"] <= 0:
            problems.append("cold pass simulated nothing")
        if not cold and summary["sims_new"] != 0:
            problems.append(
                f"warm pass simulated {summary['sims_new']} new runs"
            )
        reports = {
            path.name: json.loads(path.read_text())
            for path in (work / "artifacts" / "reports").glob("*.json")
        }
        if sorted(reports) != sorted(f"{e}.json" for e in self.selection):
            problems.append(f"reports written: {sorted(reports)}")
        return PassOutcome(len(self.selection), counts["failed"],
                           _sha(reports), problems)

    def check(self, summary: dict) -> list[str]:
        return []


WORKLOADS = {
    "policy_sweep": policy_sweep,
    "oversub_sweep": oversub_sweep,
    "reproduce_subset": ReproducePlan,
}
