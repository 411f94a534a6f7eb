"""Cached simulation runner.

Several figures share (config, workload, policy) combinations — Fig. 2 is
a subset of Fig. 15, Figs. 22/23/24 reuse the same OASIS/GRIT runs — so
simulation results are memoized at two levels:

* **in process** — a bounded LRU keyed by the full parameter tuple
  (``SystemConfig`` is a frozen dataclass, so the whole configuration is
  hashable).  The bound (default 256 results, override with
  ``REPRO_RUNNER_CACHE_SIZE``) keeps long sweep sessions from holding
  every result ever computed.
* **on disk** — optionally, a persistent content-addressed store (see
  :mod:`repro.harness.diskcache`) shared across processes and sessions.
  Enable with :func:`configure` or ``REPRO_DISK_CACHE=1``.

Independent runs can also be computed in parallel across worker
processes with :func:`run_sims_parallel`; :func:`speedup_table` uses it
to pre-warm the caches when ``jobs > 1``.

The parallel path is crash-tolerant: each run has a bounded number of
attempts with exponential backoff, a per-run wall-clock timeout, and a
dying worker process takes down only its own run — the pool is rebuilt,
innocent in-flight runs are re-dispatched without penalty, and after
repeated pool failures the remaining work degrades to in-process serial
execution.  A run that still cannot complete yields a structured
:class:`RunFailure` in its result slot instead of aborting the sweep.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import POLICY_FACTORIES, make_policy
from repro.config import SystemConfig
from repro.harness.diskcache import DiskCache, cache_key
from repro.harness.report import geomean
from repro.sim import SimulationResult, simulate
from repro.sim.sweep import PhaseMemo
from repro.workloads import get_workload

#: Default cap on in-process memoized results.
DEFAULT_CACHE_SIZE = 256

#: Built traces kept for reuse across a sweep's runs.  Sharing the trace
#: object also shares the per-phase SoA replay arrays and prefix digests
#: cached on it (see :mod:`repro.sim.sweep`), so every policy variant in
#: a cohort skips both trace generation and array derivation.
DEFAULT_TRACE_CACHE_SIZE = 8

#: Default attempts per run in :func:`run_sims_parallel` (1 = no retry).
DEFAULT_MAX_ATTEMPTS = 2

#: Pool rebuilds tolerated before degrading to in-process execution.
DEFAULT_POOL_FAILURE_LIMIT = 2

_CACHE: OrderedDict[tuple, SimulationResult] = OrderedDict()
_STATS = {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "run_retries": 0,
    "pool_failures": 0,
    # Result-store writes that failed with OSError (disk full,
    # read-only store): the result survives in memory and is recomputed
    # by a later process instead of crashing this one.
    "store_errors": 0,
    # Phase-memo counters merged back from worker processes; the serial
    # path's counters live on the in-process PhaseMemo itself, so
    # :func:`memo_stats` sums both (the sources are disjoint).
    "memo_hits": 0,
    "memo_misses": 0,
    "memo_stores": 0,
    "memo_snapshot_bytes": 0,
    "memo_resumed_phases": 0,
    "memo_corrupt": 0,
    "memo_io_errors": 0,
}
#: Scalar memo counters shipped as per-run deltas from pool workers.
_MEMO_DELTA_KEYS = (
    "hits", "misses", "stores", "snapshot_bytes",
    "resumed_phases", "corrupt", "io_errors",
)
_DISK: DiskCache | None = (
    DiskCache() if os.environ.get("REPRO_DISK_CACHE", "").strip() not in ("", "0")
    else None
)
_JOBS = 1
_TRACES: OrderedDict[tuple, object] = OrderedDict()
_MEMO: PhaseMemo | None = None
_MEMO_DIR: str | None = os.environ.get("REPRO_MEMO_DIR", "").strip() or None
_MEMO_ENABLED: bool = _MEMO_DIR is not None or (
    os.environ.get("REPRO_MEMO", "").strip() not in ("", "0")
)
#: Observability summary of the most recent :func:`run_sims_parallel`
#: sweep (see :func:`last_sweep_summary`).
_LAST_SWEEP: dict | None = None


def _cache_capacity() -> int:
    raw = os.environ.get("REPRO_RUNNER_CACHE_SIZE", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_CACHE_SIZE


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
            memoization; see :mod:`repro.sim.sweep`).  Off by default
            (``REPRO_MEMO=1`` enables it process-wide); the sweep CLI
            turns it on for sweeps unless ``--no-memo`` is given.
        memo_dir: directory for a persistent snapshot tier (implies
            enabling the memo).  Without it, snapshots share the result
            store's directory when the disk cache is on, else stay
            purely in-memory.
    """
    global _DISK, _JOBS, _MEMO, _MEMO_DIR, _MEMO_ENABLED
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        _JOBS = jobs
    if cache_dir is not None:
        _DISK = DiskCache(cache_dir)
        _MEMO = None  # a shared-disk memo tier must follow the move
    elif disk_cache is not None:
        _DISK = DiskCache() if disk_cache else None
        _MEMO = None
    if memo_dir is not None:
        _MEMO_DIR = memo_dir or None
        _MEMO = None
        if memo is None:
            memo = True
    if memo is not None:
        _MEMO_ENABLED = bool(memo)
        if not _MEMO_ENABLED:
            _MEMO = None


def disk_cache() -> DiskCache | None:
    """The runner's persistent result store, or None when disabled."""
    return _DISK


def _memo_store() -> PhaseMemo | None:
    """The process-wide snapshot store, built lazily when enabled."""
    global _MEMO
    if not _MEMO_ENABLED:
        return None
    if _MEMO is None:
        disk = DiskCache(_MEMO_DIR) if _MEMO_DIR else _DISK
        _MEMO = PhaseMemo(disk=disk)
    return _MEMO


def _get_trace(config, app, footprint_mb, seed):
    """Build-or-reuse one workload trace (shared across a cohort)."""
    key = (config, app, footprint_mb, seed)
    trace = _TRACES.get(key)
    if trace is not None:
        _TRACES.move_to_end(key)
        return trace
    trace = get_workload(app, config, footprint_mb=footprint_mb, seed=seed)
    _TRACES[key] = trace
    while len(_TRACES) > DEFAULT_TRACE_CACHE_SIZE:
        _TRACES.popitem(last=False)
    return trace


def clear_cache() -> None:
    """Drop all in-process memoized results and reset counters."""
    _CACHE.clear()
    _TRACES.clear()
    _STATS.update({key: 0 for key in _STATS})
    if _DISK is not None:
        _DISK.hits = 0
        _DISK.misses = 0
        _DISK.quarantined = 0
        _DISK.snap_hits = 0
        _DISK.snap_misses = 0
    if _MEMO is not None:
        _MEMO.clear()


def last_sweep_summary() -> dict | None:
    """Observability summary of the most recent parallel sweep.

    ``None`` until :func:`run_sims_parallel` has run.  The summary is a
    plain JSON-serializable dict::

        {
          "runs": 12, "ok": 11, "failed": 1,
          "cache": {"hits": 4, "misses": 8,
                    "run_retries": 1, "pool_failures": 0},
          "memo": {"enabled": True, "hits": 6, "misses": 2,
                   "stores": 14, "snapshot_bytes": 5242880,
                   "resumed_phases": 38, "corrupt": 0,
                   "prefix_forks": 3},
          "wall_clock_s": {"total": 3.2,
                           "per_run": {"st/oasis": 0.41, ...}},
          "counters": {"fault.page": ..., "migration.count": ..., ...},
        }

    ``counters`` is the merge of every successful run's metric snapshot,
    so a sweep report and the individual run traces can never disagree
    on a total.
    """
    return _LAST_SWEEP


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
        "size": len(_CACHE),
        "capacity": _cache_capacity(),
        **_STATS,
        "disk_hits": 0,
        "disk_misses": 0,
        "disk_quarantined": 0,
        "snap_hits": 0,
        "snap_misses": 0,
    }
    if _DISK is not None:
        stats.update(_DISK.stats())
    return stats


def memo_stats() -> dict:
    """Process-lifetime sweep-fast-path counters, all sources combined.

    Serial runs count on the in-process :class:`PhaseMemo`; pool runs
    ship per-run deltas back from their workers into ``_STATS`` — the
    two sources are disjoint, so their sum is the process total.
    """
    totals: dict = {
        key: _STATS["memo_" + key] for key in _MEMO_DELTA_KEYS
    }
    totals.update(
        {"prefix_forks": 0, "mem_entries": 0, "mem_bytes": 0}
    )
    memo = _MEMO
    if memo is not None:
        live = memo.stats()
        for key in _MEMO_DELTA_KEYS:
            totals[key] += live[key]
        totals["prefix_forks"] = live["prefix_forks"]
        totals["mem_entries"] = live["mem_entries"]
        totals["mem_bytes"] = live["mem_bytes"]
    totals["enabled"] = _MEMO_ENABLED
    return totals


def _remember(key: tuple, result: SimulationResult) -> None:
    _CACHE[key] = result
    _CACHE.move_to_end(key)
    capacity = _cache_capacity()
    while len(_CACHE) > capacity:
        _CACHE.popitem(last=False)
        _STATS["evictions"] += 1


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
    if policy not in POLICY_FACTORIES:
        known = ", ".join(sorted(POLICY_FACTORIES))
        raise ValueError(f"unknown policy {policy!r}; known: {known}")
    key = (
        config,
        app,
        policy,
        footprint_mb,
        seed,
        tuple(sorted(policy_kwargs.items())),
    )
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    disk = _DISK
    if disk is not None:
        digest = cache_key(config, app, policy, footprint_mb, seed, policy_kwargs)
        stored = disk.load(digest)
        if stored is not None:
            _remember(key, stored)
            return stored
    trace = _get_trace(config, app, footprint_mb, seed)
    memo = _memo_store()
    session = None
    if memo is not None:
        session = memo.session(
            config, app, policy,
            footprint_mb=footprint_mb, seed=seed,
            policy_kwargs=policy_kwargs,
        )
    result = simulate(
        config, trace, make_policy(policy, **policy_kwargs), memo=session
    )
    if disk is not None:
        try:
            disk.store(digest, result)
        except OSError:
            # A result that cannot be persisted (disk full, read-only
            # store) is still a valid result; a later process simply
            # recomputes it.
            _STATS["store_errors"] += 1
    _remember(key, result)
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
    #: Exception class name (``"TimeoutError"``, ``"WorkerCrash"``, ...).
    error_type: str = ""
    message: str = ""
    #: Attempts consumed before giving up.
    attempts: int = 0
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return False

    def __str__(self) -> str:
        return (
            f"FAILED {self.app}/{self.policy} (seed={self.seed}): "
            f"{self.error_type}: {self.message} "
            f"[{self.attempts} attempt(s)]"
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


def _run_spec(spec: dict) -> SimulationResult:
    return run_sim(
        spec["config"],
        spec["app"],
        spec["policy"],
        footprint_mb=spec["footprint_mb"],
        seed=spec["seed"],
        **spec["policy_kwargs"],
    )


def _runner_config() -> dict:
    """Snapshot of the runner settings a worker process must inherit.

    With the ``fork`` start method workers inherit parent state anyway,
    but ``spawn`` (and a worker forked before a later ``configure()``
    call) starts from module defaults — so the full configuration rides
    in every payload.
    """
    return {
        "jobs": _JOBS,
        "disk_enabled": _DISK is not None,
        "disk_root": str(_DISK.root) if _DISK is not None else None,
        "cache_size": _cache_capacity(),
        "memo_enabled": _MEMO_ENABLED,
        "memo_dir": _MEMO_DIR,
    }


def _apply_runner_config(cfg: dict) -> None:
    os.environ["REPRO_RUNNER_CACHE_SIZE"] = str(cfg["cache_size"])
    configure(
        jobs=cfg["jobs"],
        disk_cache=cfg["disk_enabled"],
        cache_dir=cfg["disk_root"] if cfg["disk_enabled"] else None,
        memo=cfg.get("memo_enabled", False),
        memo_dir=cfg.get("memo_dir"),
    )


def _maybe_fault_hook(spec: dict) -> None:
    """Honor the harness's own fault hooks (for resilience self-tests).

    ``REPRO_HARNESS_CRASH="app:policy@/path/sentinel"`` hard-kills the
    worker (``os._exit``) the first time it runs that spec; the sentinel
    file makes the crash one-shot so the retry can succeed.  Omitting
    ``@sentinel`` crashes every attempt (a deterministically poisoned
    run).  ``REPRO_HARNESS_HANG`` sleeps instead, exercising the per-run
    timeout path, and ``REPRO_HARNESS_RAISE`` raises a retryable
    ``OSError`` in-process, exercising the retry/backoff path without
    killing the worker.
    """
    for env, action in (
        ("REPRO_HARNESS_CRASH", "crash"),
        ("REPRO_HARNESS_HANG", "hang"),
        ("REPRO_HARNESS_RAISE", "raise"),
    ):
        raw = os.environ.get(env, "").strip()
        if not raw:
            continue
        target, _, sentinel = raw.partition("@")
        if target != f"{spec['app']}:{spec['policy']}":
            continue
        if sentinel:
            if os.path.exists(sentinel):
                continue
            with open(sentinel, "w"):
                pass
        if action == "crash":
            os._exit(13)
        if action == "raise":
            raise OSError(f"injected transient failure for {target}")
        time.sleep(3600.0)


def _worker(payload: tuple) -> tuple:
    """Pool entry point: run one spec, ship back (result, memo delta).

    Workers are long-lived, so memo counters accumulate across the runs
    one worker computes; the delta (this run's counter movement plus the
    lane records drained since the last run) is what the parent merges,
    keeping the sweep's global accounting double-count-free.
    """
    spec, runner_cfg = payload
    if runner_cfg is not None:
        _apply_runner_config(runner_cfg)
        _maybe_fault_hook(spec)
    memo = _memo_store()
    before = memo.stats() if memo is not None else None
    result = _run_spec(spec)
    delta = None
    if memo is not None:
        after = memo.stats()
        delta = {
            "counters": {
                key: after[key] - before[key] for key in _MEMO_DELTA_KEYS
            },
            "lanes": memo.lanes.drain(),
        }
    return result, delta


def _merge_memo_delta(delta: dict | None) -> None:
    """Fold one worker run's memo delta into the parent's accounting."""
    if not delta:
        return
    for key, value in delta["counters"].items():
        _STATS["memo_" + key] += value
    memo = _memo_store()
    if memo is not None and delta["lanes"]:
        # Replaying through the parent's lanes recomputes shared-prefix
        # and fork accounting against the sweep-global cohort state.
        memo.lanes.replay(delta["lanes"])


def _failure_from(spec: dict, attempts: int, exc: BaseException | None,
                  error_type: str = "", message: str = "") -> RunFailure:
    if exc is not None:
        error_type = type(exc).__name__
        message = str(exc)
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    else:
        tb = ""
    return RunFailure(
        app=spec["app"],
        policy=spec["policy"],
        footprint_mb=spec["footprint_mb"],
        seed=spec["seed"],
        policy_kwargs=dict(spec["policy_kwargs"]),
        error_type=error_type,
        message=message,
        attempts=attempts,
        traceback=tb,
    )


#: Exception classes worth retrying: environmental, not deterministic.
_RETRYABLE = (OSError, EOFError, MemoryError)

#: Ceiling on one retry-backoff sleep (override with
#: ``REPRO_RETRY_BACKOFF_MAX_S``).  Without it the exponential grows
#: unboundedly — at the default 50 ms base, attempt 12 would already
#: sleep 102 s, stalling a sweep for minutes on a flaky run.
DEFAULT_RETRY_BACKOFF_MAX_S = 5.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    return default


def _backoff_delay(attempt: int) -> float:
    """Exponential backoff for retry ``attempt``, capped at a max delay."""
    base = _env_float("REPRO_RETRY_BACKOFF_S", 0.05)
    cap = _env_float("REPRO_RETRY_BACKOFF_MAX_S", DEFAULT_RETRY_BACKOFF_MAX_S)
    return min(base * (2.0 ** max(0, attempt - 1)), cap)


def _retry_backoff(attempt: int) -> None:
    delay = _backoff_delay(attempt)
    if delay:
        time.sleep(delay)


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
    pending: dict,
    n_jobs: int,
    timeout_s: float | None,
    max_attempts: int,
    pool_failure_limit: int,
    fresh: dict,
    precounted: set,
    failures: dict,
    timings: dict | None = None,
) -> None:
    """Compute every ``pending`` run with crash/timeout isolation.

    Fills ``fresh`` (key → result) and ``failures`` (key → RunFailure).
    Keys computed in-process after a pool degradation land in
    ``precounted`` (their cache miss is already accounted).  When a
    ``timings`` dict is given, each completed run records its wall-clock
    seconds (including queueing on a busy pool) under its key.
    """
    runner_cfg = _runner_config()
    queue: deque = deque(pending.items())
    attempts = {key: 0 for key in pending}
    pool: ProcessPoolExecutor | None = ProcessPoolExecutor(max_workers=n_jobs)
    pool_failures = 0
    inflight: dict = {}
    try:
        while queue or inflight:
            broken = False
            while not broken and queue and len(inflight) < n_jobs:
                key, spec = queue.popleft()
                attempts[key] += 1
                try:
                    future = pool.submit(_worker, (spec, runner_cfg))
                except Exception:
                    attempts[key] -= 1
                    queue.appendleft((key, spec))
                    broken = True
                    break
                deadline = (
                    time.monotonic() + timeout_s if timeout_s else None
                )
                inflight[future] = (key, spec, deadline, time.monotonic())
            if not broken and inflight:
                wait_timeout = None
                deadlines = [
                    d for (_, _, d, _) in inflight.values() if d is not None
                ]
                if deadlines:
                    wait_timeout = max(
                        0.01, min(deadlines) - time.monotonic()
                    )
                done, _ = wait(
                    set(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    key, spec, _deadline, started = inflight.pop(future)
                    try:
                        result, memo_delta = future.result()
                    except BrokenProcessPool:
                        # The dead worker poisoned every in-flight future;
                        # the culprit cannot be attributed, so nobody is
                        # charged an attempt — termination is bounded by
                        # the pool-failure limit instead.
                        broken = True
                        attempts[key] -= 1
                        queue.append((key, spec))
                        continue
                    except Exception as exc:
                        if (
                            isinstance(exc, _RETRYABLE)
                            and attempts[key] < max_attempts
                        ):
                            _STATS["run_retries"] += 1
                            _retry_backoff(attempts[key])
                            queue.append((key, spec))
                        else:
                            failures[key] = _failure_from(
                                spec, attempts[key], exc
                            )
                        continue
                    _merge_memo_delta(memo_delta)
                    fresh[key] = result
                    _remember(key, result)
                    if timings is not None:
                        timings[key] = time.monotonic() - started
                now = time.monotonic()
                expired = [
                    f
                    for f, (_, _, d, _) in inflight.items()
                    if d is not None and d <= now
                ]
                for future in expired:
                    # A hung run: the only way to reclaim its worker is
                    # to tear the whole pool down.
                    broken = True
                    key, spec, _deadline, _started = inflight.pop(future)
                    if attempts[key] < max_attempts:
                        _STATS["run_retries"] += 1
                        queue.append((key, spec))
                    else:
                        failures[key] = _failure_from(
                            spec,
                            attempts[key],
                            None,
                            error_type="TimeoutError",
                            message=f"run exceeded {timeout_s}s wall clock",
                        )
            if broken:
                for future, (key, spec, _deadline, _started) in inflight.items():
                    # Innocent victims of the rebuild: no attempt charged.
                    attempts[key] -= 1
                    queue.append((key, spec))
                inflight.clear()
                _teardown_pool(pool)
                _STATS["pool_failures"] += 1
                pool_failures += 1
                if pool_failures > pool_failure_limit:
                    pool = None
                    break
                pool = ProcessPoolExecutor(max_workers=n_jobs)
    finally:
        if pool is not None:
            _teardown_pool(pool)
    if pool is None and (queue or inflight):
        # The pool keeps dying: finish the remaining work in-process.
        # (Timeouts cannot be enforced without process isolation.)
        for key, spec, *_rest in list(inflight.values()):
            queue.append((key, spec))
        while queue:
            key, spec = queue.popleft()
            attempts[key] += 1
            started = time.monotonic()
            try:
                result = _run_spec(spec)
            except Exception as exc:
                if isinstance(exc, _RETRYABLE) and attempts[key] < max_attempts:
                    _STATS["run_retries"] += 1
                    _retry_backoff(attempts[key])
                    queue.append((key, spec))
                else:
                    failures[key] = _failure_from(spec, attempts[key], exc)
                continue
            fresh[key] = result
            precounted.add(key)
            if timings is not None:
                timings[key] = time.monotonic() - started


def run_sims_parallel(
    requests,
    jobs: int | None = None,
    *,
    timeout_s: float | None = None,
    max_attempts: int | None = None,
    pool_failure_limit: int = DEFAULT_POOL_FAILURE_LIMIT,
) -> list:
    """Run many independent simulations across worker processes.

    Args:
        requests: iterable of run specs — either
            ``(config, app, policy)`` triples (optionally with a fourth
            element: a dict of ``footprint_mb`` / ``seed`` /
            ``policy_kwargs`` extras) or dicts with those keys.
        jobs: worker processes; defaults to the :func:`configure` value.
            With ``jobs=1`` everything runs serially in-process.
        timeout_s: per-run wall-clock limit (pool mode only); defaults
            to ``REPRO_RUN_TIMEOUT_S`` (unset = no limit).  A run that
            exceeds it is killed with its pool and retried.
        max_attempts: attempts per run before recording a failure;
            defaults to ``REPRO_RUN_MAX_ATTEMPTS`` (fallback 2).
        pool_failure_limit: pool rebuilds tolerated before the remaining
            work degrades to in-process serial execution.

    Returns:
        One entry per request, in request order: a
        :class:`~repro.sim.SimulationResult`, or a :class:`RunFailure`
        for a run that exhausted its attempts.  The sweep itself never
        raises for a failing run.  Each successful result also lands in
        the in-process cache (and, when enabled, the disk cache —
        workers write it, so a crashed sweep keeps its finished runs).
    """
    global _LAST_SWEEP
    sweep_started = time.monotonic()
    stats_before = dict(_STATS)
    memo_before = memo_stats()
    timings: dict[tuple, float] = {}
    specs = [_normalize_request(r) for r in requests]
    n_jobs = jobs if jobs is not None else _JOBS
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")
    n_jobs = min(n_jobs, max(1, len(specs)))
    if timeout_s is None:
        raw = os.environ.get("REPRO_RUN_TIMEOUT_S", "").strip()
        if raw:
            try:
                timeout_s = float(raw)
            except ValueError:
                timeout_s = None
    if max_attempts is None:
        raw = os.environ.get("REPRO_RUN_MAX_ATTEMPTS", "").strip()
        max_attempts = DEFAULT_MAX_ATTEMPTS
        if raw:
            try:
                max_attempts = max(1, int(raw))
            except ValueError:
                pass
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")

    # Only ship cache misses to the pool, and each distinct run once.
    pending: dict[tuple, dict] = {}
    for spec in specs:
        key = _spec_key(spec)
        if key not in _CACHE and key not in pending:
            pending[key] = spec

    fresh: dict[tuple, SimulationResult] = {}
    precounted: set[tuple] = set()
    failures: dict[tuple, RunFailure] = {}
    if pending and n_jobs > 1:
        _drain_pool(
            pending,
            n_jobs,
            timeout_s,
            max_attempts,
            pool_failure_limit,
            fresh,
            precounted,
            failures,
            timings,
        )

    # Assemble results in request order.  Cache accounting reconciles:
    # every request slot is exactly one hit or one miss (failures are
    # neither — they were never computed).  Work computed in the pool is
    # counted as a miss at its first request slot; duplicates and
    # already-cached specs go through run_sim (a hit).
    out: list = []
    counted: set[tuple] = set()
    for spec in specs:
        key = _spec_key(spec)
        if key in failures:
            out.append(failures[key])
            continue
        if key in fresh and key not in counted:
            counted.add(key)
            if key not in precounted:
                _STATS["misses"] += 1
            if key in _CACHE:
                _CACHE.move_to_end(key)
            out.append(fresh[key])
            continue
        started = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                result = _run_spec(spec)
                break
            except Exception as exc:
                # Serial path (jobs=1, or a spec that failed only here):
                # retry the environmental failures the pool path would
                # retry, then diagnose instead of aborting.
                if isinstance(exc, _RETRYABLE) and attempt < max_attempts:
                    _STATS["run_retries"] += 1
                    _retry_backoff(attempt)
                    continue
                result = _failure_from(spec, attempt, exc)
                break
        if isinstance(result, RunFailure):
            out.append(result)
            continue
        timings.setdefault(key, time.monotonic() - started)
        out.append(result)

    # Sweep-level observability summary: per-run metric snapshots are
    # merged into one counter view, and cache/retry accounting is the
    # delta over this sweep only (not process lifetime).
    merged: dict[tuple, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for spec, result in zip(specs, out):
        key = _spec_key(spec)
        if isinstance(result, SimulationResult) and key not in merged:
            snap_counters = result.metrics_snapshot().counters
            merged[key] = snap_counters
            for name, value in snap_counters.items():
                counters[name] = counters.get(name, 0.0) + value
    n_failed = sum(1 for r in out if isinstance(r, RunFailure))
    memo_after = memo_stats()
    _LAST_SWEEP = {
        "runs": len(specs),
        "ok": len(specs) - n_failed,
        "failed": n_failed,
        "cache": {
            name: _STATS[name] - stats_before[name]
            for name in ("hits", "misses", "run_retries", "pool_failures")
        },
        # Sweep fast path accounting, as a delta over this sweep only.
        "memo": {
            "enabled": memo_after["enabled"],
            **{
                name: memo_after[name] - memo_before[name]
                for name in (
                    "hits", "misses", "stores", "snapshot_bytes",
                    "resumed_phases", "corrupt", "io_errors",
                    "prefix_forks",
                )
            },
        },
        "wall_clock_s": {
            "total": time.monotonic() - sweep_started,
            "per_run": {
                _spec_label(spec): timings[key]
                for spec in specs
                if (key := _spec_key(spec)) in timings
            },
        },
        "counters": {name: counters[name] for name in sorted(counters)},
    }
    if any(name.startswith("tenant.") for name in counters):
        # Multi-tenant runs in the sweep: per-tenant rollup (faults, TLB
        # pressure, migration bandwidth, busiest-GPU time) aggregated
        # over every run that carried tenant counters.
        from repro.tenancy.fairness import tenant_rollup

        _LAST_SWEEP["tenancy"] = tenant_rollup(counters)
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
    n_jobs = jobs if jobs is not None else _JOBS
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
