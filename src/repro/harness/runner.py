"""Cached simulation runner.

Several figures share (config, workload, policy) combinations — Fig. 2 is
a subset of Fig. 15, Figs. 22/23/24 reuse the same OASIS/GRIT runs — so
simulation results are memoized at two levels:

* **in process** — a bounded LRU keyed by the full parameter tuple
  (``SystemConfig`` is a frozen dataclass, so the whole configuration is
  hashable).  The bound (:data:`DEFAULT_CACHE_SIZE`, 256 results) keeps
  long sweep sessions from holding every result ever computed.
* **on disk** — optionally, a persistent content-addressed store (see
  :mod:`repro.harness.diskcache`) shared across processes and sessions.
  Enable it with :func:`configure`.

Traces are not cached here: :func:`~repro.workloads.get_workload`
memoizes them, so every policy of a cohort replays one trace object.

All runner state lives in one :class:`Session`: its :class:`Settings`
(set only through :func:`configure`), the stores they open, the result
LRU, one counter dict and the last sweep's summary.  :func:`clear_cache`
clears it; :func:`cache_stats`, :func:`memo_stats`,
:func:`last_sweep_summary` and :func:`disk_cache` read it.

Independent runs can also be computed in parallel across worker
processes with :func:`run_sims_parallel`; :func:`speedup_table` uses it
to pre-warm the caches when ``jobs > 1``.  Each sweep uses one pool.  A
run that raises yields a :class:`RunFailure` in its result slot instead
of aborting the sweep; if a worker dies, the pool is torn down and the
runs it did not return finish in-process.
"""

from __future__ import annotations

import time
import traceback as _traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro import POLICY_FACTORIES, make_policy
from repro.config import SystemConfig
from repro.harness.diskcache import DiskCache, cache_key
from repro.harness.report import geomean
from repro.sim import SimulationResult, simulate
from repro.sim.sweep import PhaseMemo
from repro.workloads import get_workload

#: In-process memoized results kept, least recently used dropped first.
DEFAULT_CACHE_SIZE = 256

#: Scalar memo counters shipped as per-run deltas from pool workers.
_MEMO_DELTA_KEYS = (
    "hits", "misses", "stores", "snapshot_bytes",
    "resumed_phases", "corrupt", "io_errors",
)

#: A session's counters (see :func:`cache_stats`).  ``store_errors``
#: counts result-store writes that failed with OSError (disk full,
#: read-only store): the result survives in memory and a later process
#: recomputes it.  The ``memo_*`` counters are merged back from pool
#: workers; the serial path's live on the session's PhaseMemo itself,
#: so :func:`memo_stats` sums both (the sources are disjoint).
_COUNTERS = (
    "hits", "misses", "evictions", "pool_failures",
    "store_errors", *("memo_" + key for key in _MEMO_DELTA_KEYS),
)


@dataclass(frozen=True)
class Settings:
    """What :func:`configure` sets; pool workers receive it with each run."""

    #: Default worker processes for :func:`run_sims_parallel` (1 = serial).
    jobs: int = 1
    #: Directory of the persistent result store, or None when it is off.
    disk_root: str | None = None
    #: Whether runs resume from phase-prefix snapshots (repro.sim.sweep).
    memo: bool = False
    #: Directory of a persistent snapshot tier; None shares the result
    #: store's directory (or keeps snapshots in memory without one).
    memo_dir: str | None = None


class Session:
    """The runner's state: settings, the stores they open, the result
    LRU, one counter dict and the last sweep's summary."""

    def __init__(self) -> None:
        self.settings = Settings()
        #: Cap on :attr:`results`.
        self.capacity = DEFAULT_CACHE_SIZE
        self.results: OrderedDict[tuple, SimulationResult] = OrderedDict()
        #: Summary of the most recent :func:`run_sims_parallel` sweep.
        self.last_sweep: dict | None = None
        self.clear()

    def configure(self, settings: Settings) -> None:
        """Adopt ``settings``, reopening the stores only if they differ."""
        if settings != self.settings:
            self.settings = settings
            self._open_stores()

    def _open_stores(self) -> None:
        settings = self.settings
        self.disk = (
            DiskCache(settings.disk_root)
            if settings.disk_root is not None else None
        )
        self.memo = None
        if settings.memo:
            self.memo = PhaseMemo(
                disk=DiskCache(settings.memo_dir) if settings.memo_dir
                else self.disk
            )

    def clear(self) -> None:
        """Drop every memoized result and snapshot; zero every counter."""
        self.results.clear()
        self.stats = dict.fromkeys(_COUNTERS, 0)
        self._open_stores()

    def remember(self, key: tuple, result: SimulationResult) -> None:
        self.results[key] = result
        self.results.move_to_end(key)
        while len(self.results) > self.capacity:
            self.results.popitem(last=False)
            self.stats["evictions"] += 1


_session = Session()


def configure(
    jobs: int | None = None,
    disk_cache: bool | None = None,
    cache_dir: str | None = None,
    memo: bool | None = None,
    memo_dir: str | None = None,
) -> None:
    """Adjust runner-wide settings.

    Args:
        jobs: default worker-process count for :func:`run_sims_parallel`
            and :func:`speedup_table` (1 = serial).
        disk_cache: enable/disable the persistent result store.
        cache_dir: directory for the persistent store (implies enabling
            it); defaults to ``results/cache`` / ``REPRO_CACHE_DIR``.
        memo: enable/disable the sweep fast path (phase-prefix snapshot
            memoization; see :mod:`repro.sim.sweep`).  Off by default;
            the sweep CLI turns it on for sweeps unless ``--no-memo`` is
            given.
        memo_dir: directory for a persistent snapshot tier (implies
            enabling the memo).  Without it, snapshots share the result
            store's directory when the disk cache is on, else stay
            purely in-memory.
    """
    changes: dict = {}
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        changes["jobs"] = jobs
    if cache_dir is not None:
        changes["disk_root"] = str(cache_dir)
    elif disk_cache is not None:
        changes["disk_root"] = str(DiskCache().root) if disk_cache else None
    if memo_dir is not None:
        changes["memo_dir"] = memo_dir or None
        if memo is None:
            memo = True
    if memo is not None:
        changes["memo"] = bool(memo)
    _session.configure(replace(_session.settings, **changes))


def disk_cache() -> DiskCache | None:
    """The runner's persistent result store, or None when disabled."""
    return _session.disk


def clear_cache() -> None:
    """Drop all in-process memoized results and reset counters."""
    _session.clear()


def last_sweep_summary() -> dict | None:
    """Observability summary of the most recent parallel sweep.

    ``None`` until :func:`run_sims_parallel` has run.  The summary is a
    plain JSON-serializable dict::

        {
          "runs": 12, "ok": 11, "failed": 1,
          "cache": {"hits": 4, "misses": 8, "pool_failures": 0},
          "memo": {"enabled": True, "hits": 6, "misses": 2, ...},
          "wall_clock_s": {"total": 3.2,
                           "per_run": {"st/oasis": 0.41, ...}},
          "counters": {"fault.page": ..., "migration.count": ..., ...},
        }

    ``counters`` is the merge of every successful run's metric snapshot,
    so a sweep report and the individual run traces can never disagree
    on a total.
    """
    return _session.last_sweep


def _spec_label(spec: dict) -> str:
    """Human-readable run label for the sweep summary."""
    label = f"{spec['app']}/{spec['policy']}"
    if spec["footprint_mb"] is not None:
        label += f"@{spec['footprint_mb']:g}MB"
    if spec["seed"]:
        label += f"#{spec['seed']}"
    return label


def cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for both cache levels."""
    stats = {
        "size": len(_session.results),
        "capacity": _session.capacity,
        **_session.stats,
        "disk_hits": 0,
        "disk_misses": 0,
        "disk_quarantined": 0,
        "snap_hits": 0,
        "snap_misses": 0,
    }
    if _session.disk is not None:
        stats.update(_session.disk.stats())
    return stats


def memo_stats() -> dict:
    """Session sweep-fast-path counters, all sources combined.

    Serial runs count on the session's :class:`PhaseMemo`; pool runs
    ship per-run deltas back from their workers into the session's
    counters — the two sources are disjoint, so their sum is the total.
    """
    totals: dict = {
        key: _session.stats["memo_" + key] for key in _MEMO_DELTA_KEYS
    }
    totals.update(
        {"prefix_forks": 0, "mem_entries": 0, "mem_bytes": 0}
    )
    memo = _session.memo
    if memo is not None:
        live = memo.stats()
        for key in _MEMO_DELTA_KEYS:
            totals[key] += live[key]
        totals["prefix_forks"] = live["prefix_forks"]
        totals["mem_entries"] = live["mem_entries"]
        totals["mem_bytes"] = live["mem_bytes"]
    totals["enabled"] = _session.settings.memo
    return totals


def run_sim(
    config: SystemConfig,
    app: str,
    policy: str,
    *,
    footprint_mb: float | None = None,
    seed: int = 0,
    **policy_kwargs,
) -> SimulationResult:
    """Simulate one (config, app, policy) combination, memoized."""
    return _run_spec({
        "config": config,
        "app": app,
        "policy": policy,
        "footprint_mb": footprint_mb,
        "seed": seed,
        "policy_kwargs": policy_kwargs,
    })


def _run_spec(spec: dict) -> SimulationResult:
    config, app, policy = spec["config"], spec["app"], spec["policy"]
    footprint_mb, seed = spec["footprint_mb"], spec["seed"]
    policy_kwargs = spec["policy_kwargs"]
    if policy not in POLICY_FACTORIES:
        known = ", ".join(sorted(POLICY_FACTORIES))
        raise ValueError(f"unknown policy {policy!r}; known: {known}")
    session = _session
    key = _spec_key(spec)
    cached = session.results.get(key)
    if cached is not None:
        session.results.move_to_end(key)
        session.stats["hits"] += 1
        return cached
    session.stats["misses"] += 1
    disk = session.disk
    if disk is not None:
        digest = cache_key(config, app, policy, footprint_mb, seed, policy_kwargs)
        stored = disk.load(digest)
        if stored is not None:
            session.remember(key, stored)
            return stored
    trace = get_workload(app, config, footprint_mb=footprint_mb, seed=seed)
    memo_session = None
    if session.memo is not None:
        memo_session = session.memo.session(
            config, app, policy,
            footprint_mb=footprint_mb, seed=seed,
            policy_kwargs=policy_kwargs,
        )
    result = simulate(
        config, trace, make_policy(policy, **policy_kwargs),
        memo=memo_session,
    )
    if disk is not None:
        try:
            disk.store(digest, result)
        except OSError:
            # A result that cannot be persisted (disk full, read-only
            # store) is still a valid result; a later process simply
            # recomputes it.
            session.stats["store_errors"] += 1
    session.remember(key, result)
    return result


# -- parallel execution ----------------------------------------------------


@dataclass
class RunFailure:
    """Structured diagnosis of one run that could not be completed.

    :func:`run_sims_parallel` puts one of these in the failed run's
    result slot instead of aborting the sweep — a 55-run sweep with one
    poisoned run yields 54 results plus one ``RunFailure``.
    """

    app: str
    policy: str
    footprint_mb: float | None = None
    seed: int = 0
    policy_kwargs: dict = field(default_factory=dict)
    #: Exception class name (``"ValueError"``, ...).
    error_type: str = ""
    message: str = ""
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return False

    def __str__(self) -> str:
        return (
            f"FAILED {self.app}/{self.policy} (seed={self.seed}): "
            f"{self.error_type}: {self.message}"
        )


def _normalize_request(request) -> dict:
    if isinstance(request, dict):
        spec = dict(request)
    else:
        config, app, policy, *rest = request
        spec = {"config": config, "app": app, "policy": policy}
        if rest:
            spec.update(rest[0])
    spec.setdefault("footprint_mb", None)
    spec.setdefault("seed", 0)
    spec.setdefault("policy_kwargs", {})
    return spec


def _spec_key(spec: dict) -> tuple:
    return (
        spec["config"],
        spec["app"],
        spec["policy"],
        spec["footprint_mb"],
        spec["seed"],
        tuple(sorted(spec["policy_kwargs"].items())),
    )


def _worker(payload: tuple) -> tuple:
    """Pool entry point: run one spec, ship back (result, memo delta,
    the run's wall-clock seconds).

    The payload carries the parent's :class:`Settings`.  A forked worker
    already holds them and keeps its session across the runs it
    computes; a spawned one starts from the defaults and opens the
    parent's stores on its first run.  Memo counters accumulate across
    those runs, so the delta (this run's counter movement plus its lane
    records) is what the parent merges, keeping the sweep's accounting
    double-count-free.
    """
    spec, settings = payload
    _session.configure(settings)
    memo = _session.memo
    if memo is not None:
        # Keep this run's lane records to ship; the parent keeps none.
        memo.lanes.collect()
        before = memo.stats()
    started = time.monotonic()
    result = _run_spec(spec)
    elapsed = time.monotonic() - started
    delta = None
    if memo is not None:
        after = memo.stats()
        delta = {
            "counters": {
                key: after[key] - before[key] for key in _MEMO_DELTA_KEYS
            },
            "lanes": memo.lanes.drain(),
        }
    return result, delta, elapsed


def _merge_memo_delta(delta: dict | None) -> None:
    """Fold one worker run's memo delta into the parent's accounting."""
    if not delta:
        return
    for key, value in delta["counters"].items():
        _session.stats["memo_" + key] += value
    memo = _session.memo
    if memo is not None and delta["lanes"]:
        # Replaying through the parent's lanes recomputes shared-prefix
        # and fork accounting against the sweep-global cohort state.
        memo.lanes.replay(delta["lanes"])


def _failure_from(spec: dict, exc: Exception) -> RunFailure:
    return RunFailure(
        app=spec["app"],
        policy=spec["policy"],
        footprint_mb=spec["footprint_mb"],
        seed=spec["seed"],
        policy_kwargs=dict(spec["policy_kwargs"]),
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a (possibly wedged) pool down hard, killing stray workers."""
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()


def _drain_pool(
    pending: dict, n_jobs: int, fresh: dict, failures: dict, timings: dict
) -> None:
    """Compute ``pending`` runs in one pool of ``n_jobs`` workers.

    Fills ``fresh`` (key → result), ``failures`` (key → RunFailure for a
    run that raised in its worker) and ``timings`` (key → the run's own
    wall-clock seconds, timed in the worker).  A dying worker breaks the
    pool: it is torn down once, and the runs it did not return are in
    none of the three, for the caller to finish in-process.
    """
    settings = _session.settings
    pool = ProcessPoolExecutor(max_workers=n_jobs)
    futures: dict = {}
    broken = False
    try:
        for key, spec in pending.items():
            try:
                futures[pool.submit(_worker, (spec, settings))] = key, spec
            except BrokenProcessPool:
                broken = True
                break
        for future in as_completed(futures):
            key, spec = futures[future]
            try:
                result, memo_delta, elapsed = future.result()
            except BrokenProcessPool:
                broken = True
            except Exception as exc:
                failures[key] = _failure_from(spec, exc)
            else:
                _merge_memo_delta(memo_delta)
                fresh[key] = result
                _session.remember(key, result)
                timings[key] = elapsed
    finally:
        _teardown_pool(pool)
    if broken:
        _session.stats["pool_failures"] += 1


def run_sims_parallel(requests, jobs: int | None = None) -> list:
    """Run many independent simulations across worker processes.

    Args:
        requests: iterable of run specs — either
            ``(config, app, policy)`` triples (optionally with a fourth
            element: a dict of ``footprint_mb`` / ``seed`` /
            ``policy_kwargs`` extras) or dicts with those keys.
        jobs: worker processes; defaults to the :func:`configure` value.
            With ``jobs=1`` everything runs serially in-process.

    Returns:
        One entry per request, in request order: a
        :class:`~repro.sim.SimulationResult`, or a :class:`RunFailure`
        for a run that raised.  The sweep itself never raises for a
        failing run.  Each successful result also lands in the
        in-process cache (and, when enabled, the disk cache — workers
        write it, so a crashed sweep keeps its finished runs).
    """
    session = _session
    sweep_started = time.monotonic()
    stats_before = dict(session.stats)
    memo_before = memo_stats()
    specs = [_normalize_request(r) for r in requests]
    keys = [_spec_key(spec) for spec in specs]
    n_jobs = jobs if jobs is not None else session.settings.jobs
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")
    n_jobs = min(n_jobs, max(1, len(specs)))

    # Only ship cache misses to the pool, and each distinct run once.
    pending: dict[tuple, dict] = {}
    for key, spec in zip(keys, specs):
        if key not in session.results:
            pending.setdefault(key, spec)

    fresh: dict[tuple, SimulationResult] = {}
    failures: dict[tuple, RunFailure] = {}
    timings: dict[tuple, float] = {}
    if pending and n_jobs > 1:
        _drain_pool(pending, n_jobs, fresh, failures, timings)

    # Assemble results in request order.  Cache accounting reconciles:
    # every request slot is exactly one hit or one miss (failures are
    # neither — they were never computed).  Work computed in the pool is
    # counted as a miss at its first request slot; everything else goes
    # through _run_spec, which counts its own hit or miss.
    out: list = []
    for key, spec in zip(keys, specs):
        if key in failures:
            out.append(failures[key])
            continue
        if key in fresh:
            session.stats["misses"] += 1
            if key in session.results:
                session.results.move_to_end(key)
            out.append(fresh.pop(key))
            continue
        # Serial path (jobs=1, a duplicate, or a run a broken pool left
        # over): diagnose a failing run instead of aborting the sweep.
        started = time.monotonic()
        try:
            result = _run_spec(spec)
        except Exception as exc:
            result = failures[key] = _failure_from(spec, exc)
        else:
            timings.setdefault(key, time.monotonic() - started)
        out.append(result)

    # Sweep-level observability summary: per-run metric snapshots are
    # merged into one counter view, and cache accounting is the delta
    # over this sweep only (not the session's lifetime).
    merged: set[tuple] = set()
    counters: dict[str, float] = {}
    for key, result in zip(keys, out):
        if isinstance(result, SimulationResult) and key not in merged:
            merged.add(key)
            for name, value in result.metrics_snapshot().counters.items():
                counters[name] = counters.get(name, 0.0) + value
    n_failed = sum(1 for r in out if isinstance(r, RunFailure))
    memo_after = memo_stats()
    session.last_sweep = {
        "runs": len(specs),
        "ok": len(specs) - n_failed,
        "failed": n_failed,
        "cache": {
            name: session.stats[name] - stats_before[name]
            for name in ("hits", "misses", "pool_failures")
        },
        # Sweep fast path accounting, as a delta over this sweep only.
        "memo": {
            "enabled": memo_after["enabled"],
            **{
                name: memo_after[name] - memo_before[name]
                for name in (*_MEMO_DELTA_KEYS, "prefix_forks")
            },
        },
        "wall_clock_s": {
            "total": time.monotonic() - sweep_started,
            "per_run": {
                _spec_label(spec): timings[key]
                for key, spec in zip(keys, specs)
                if key in timings
            },
        },
        "counters": {name: counters[name] for name in sorted(counters)},
    }
    return out


def speedup_table(
    config: SystemConfig,
    apps: list[str],
    policies: list[str],
    baseline: str = "on_touch",
    baseline_config: SystemConfig | None = None,
    footprint_mb: dict[str, float] | None = None,
    jobs: int | None = None,
    seed: int = 0,
) -> tuple[list[list], dict[str, float]]:
    """Speedups of each policy over the baseline, per app plus geomean.

    Args:
        config: configuration for the evaluated policies.
        apps: application names (rows).
        policies: policy names (columns).
        baseline: the normalization policy (on-touch in every figure).
        baseline_config: optional distinct config for the baseline run
            (defaults to ``config``).
        footprint_mb: optional per-app footprint override.
        jobs: pre-warm the caches with this many worker processes
            (defaults to the :func:`configure` value; 1 = serial).
        seed: workload seed applied to every cell (baseline included),
            so multi-seed sweeps measure run-to-run variance on distinct
            but equally shaped traces.

    Returns:
        ``(rows, geomeans)`` where each row is
        ``[app, speedup_policy1, ...]`` and ``geomeans`` maps policy name
        to its geometric-mean speedup.
    """
    base_cfg = baseline_config or config
    n_jobs = jobs if jobs is not None else _session.settings.jobs
    if n_jobs > 1:
        requests = []
        for app in apps:
            mb = footprint_mb.get(app) if footprint_mb else None
            extras = {"footprint_mb": mb, "seed": seed}
            requests.append((base_cfg, app, baseline, extras))
            for policy in policies:
                requests.append((config, app, policy, extras))
        run_sims_parallel(requests, jobs=n_jobs)
    rows = []
    per_policy: dict[str, list[float]] = {p: [] for p in policies}
    for app in apps:
        mb = footprint_mb.get(app) if footprint_mb else None
        base = run_sim(base_cfg, app, baseline, footprint_mb=mb, seed=seed)
        row: list = [app]
        for policy in policies:
            result = run_sim(config, app, policy, footprint_mb=mb, seed=seed)
            speedup = result.speedup_over(base)
            row.append(speedup)
            per_policy[policy].append(speedup)
        rows.append(row)
    geomeans = {p: geomean(v) for p, v in per_policy.items()}
    rows.append(["geomean", *(geomeans[p] for p in policies)])
    return rows, geomeans
