"""Differential oracles: every execution mode must agree bit-for-bit.

The simulator computes the same run through several redundant machines —
the vectorized fast path vs the per-record slow path, the parallel
harness pool vs in-process serial execution, the two-level result cache
vs a fresh computation, a traced run vs an
unobserved one, and a snapshot-resumed run vs a cold replay (the
phase-snapshot tier of :mod:`repro.sim.snapshot`).  Each redundancy is
documented as *bit-identical*, so each one is a free oracle: run both
sides and compare canonical digests.
A mismatch means one of the paths silently diverged — the exact class of
bug a single-path test suite can never see.

Digests come in two granularities:

* :func:`core_digest` — sha256 over the canonical JSON of
  :meth:`~repro.sim.results.SimulationResult.to_dict`, the cross-lane
  comparable identity of a run;
* :func:`counters_digest` — sha256 over the run's
  :attr:`~repro.sim.results.SimulationResult.stats` counters alone,
  the map every report reads.

When digests disagree, :func:`diff_payloads` names exactly which fields
and counters moved.  Run everything with :func:`run_differential`
(``repro-oasis verify --differential``).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

#: Per-(app, policy) lanes plus the batch-level harness lanes.
LANES = ("fast_slow", "cache", "traced", "parallel", "memo")

#: Default app subset: the two cheapest registry workloads.  The full
#: 11-app matrix is the golden lane's job; the differential lanes re-run
#: every pair 2-3 times each, so they stay on sub-second traces.
DEFAULT_APPS = ("i2c", "mm")

#: Extra apps the memo lane always covers.  The default apps are
#: single-phase, which a phase-boundary snapshot can never shortcut
#: (no interior boundary exists) — a multi-phase app makes the lane
#: exercise a genuine snapshot resume, not just the no-op path.
MEMO_APPS = ("c2d",)


# -- digests ---------------------------------------------------------------


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def core_digest(result) -> str:
    """Content digest of everything a run produced."""
    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()
    ).hexdigest()


def counters_digest(result) -> str:
    """Content digest of the run's counters alone."""
    return hashlib.sha256(
        canonical_json(result.stats).encode()
    ).hexdigest()


def diff_payloads(a, b, prefix: str = "") -> list[str]:
    """Dotted paths at which two JSON payloads differ, with both values."""
    diffs: list[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                diffs.append(f"{path}: only on right (={b[key]!r})")
            elif key not in b:
                diffs.append(f"{path}: only on left (={a[key]!r})")
            else:
                diffs.extend(diff_payloads(a[key], b[key], path))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{prefix}: length {len(a)} != {len(b)}")
        else:
            for i, (left, right) in enumerate(zip(a, b)):
                diffs.extend(diff_payloads(left, right, f"{prefix}[{i}]"))
    elif a != b:
        diffs.append(f"{prefix}: {a!r} != {b!r}")
    return diffs


@contextmanager
def forced_slow_path():
    """Force the exact per-record replay path for the duration."""
    prior = os.environ.get("REPRO_FORCE_SLOW_PATH")
    os.environ["REPRO_FORCE_SLOW_PATH"] = "1"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_FORCE_SLOW_PATH", None)
        else:
            os.environ["REPRO_FORCE_SLOW_PATH"] = prior


# -- lanes -----------------------------------------------------------------


def _simulate(config, app: str, policy: str, seed: int = 0, **kwargs):
    from repro import get_workload, make_policy, simulate

    trace = get_workload(app, config, seed=seed)
    return simulate(config, trace, make_policy(policy), **kwargs)


def _compare(lane: str, label: str, a, b, limit: int = 6) -> list[str]:
    """Mismatch lines for one comparison (empty when digests agree)."""
    if core_digest(a) == core_digest(b) and (
        counters_digest(a) == counters_digest(b)
    ):
        return []
    diffs = diff_payloads(a.to_dict(), b.to_dict())
    if not diffs:
        diffs = ["digests differ but payload diff is empty (?)"]
    shown = diffs[:limit]
    if len(diffs) > limit:
        shown.append(f"... and {len(diffs) - limit} more")
    return [f"{lane} {label}: {d}" for d in shown]


def check_fast_vs_slow(config, app: str, policy: str,
                       seed: int = 0) -> list[str]:
    """The vectorized replayer vs the exact per-record path."""
    fast = _simulate(config, app, policy, seed)
    with forced_slow_path():
        slow = _simulate(config, app, policy, seed)
    label = f"{app}/{policy}"
    if config.oversubscription is not None:
        label += f"@x{config.oversubscription:g}"
    return _compare("fast_slow", label, fast, slow)


def check_cached_vs_recomputed(config, app: str, policy: str,
                               seed: int = 0) -> list[str]:
    """A memoized result vs a hit vs a from-scratch recomputation."""
    from repro.harness import runner

    runner.clear_cache()
    first = runner.run_sim(config, app, policy, seed=seed)
    hit = runner.run_sim(config, app, policy, seed=seed)
    runner.clear_cache()
    fresh = runner.run_sim(config, app, policy, seed=seed)
    label = f"{app}/{policy}"
    return (
        _compare("cache(hit)", label, first, hit)
        + _compare("cache(recompute)", label, first, fresh)
    )


def check_traced_vs_untraced(config, app: str, policy: str,
                             seed: int = 0) -> list[str]:
    """A traced run vs an unobserved one.

    Tracing forces the slow path, so this lane doubles as a second
    fast-vs-slow witness — but its real job is asserting the hooks are
    pure reads.
    """
    from repro.obs import RecordingTracer

    plain = _simulate(config, app, policy, seed)
    traced = _simulate(config, app, policy, seed, tracer=RecordingTracer())
    return _compare("traced", f"{app}/{policy}", plain, traced)


def check_serial_vs_parallel(config, pairs, seed: int = 0,
                             jobs: int = 2) -> list[str]:
    """One batch through the worker pool vs the same batch in-process.

    Exercises result pickling, worker-side cache writes and request-order
    reassembly; both sweeps start from a cold in-process cache so the
    pool genuinely computes.
    """
    from repro.harness import runner
    from repro.sim import SimulationResult

    requests = [
        (config, app, policy, {"seed": seed}) for app, policy in pairs
    ]
    runner.clear_cache()
    parallel = runner.run_sims_parallel(requests, jobs=jobs)
    runner.clear_cache()
    serial = runner.run_sims_parallel(requests, jobs=1)
    mismatches: list[str] = []
    for (app, policy), left, right in zip(pairs, parallel, serial):
        label = f"{app}/{policy}"
        bad = [
            r for r in (left, right) if not isinstance(r, SimulationResult)
        ]
        if bad:
            mismatches.append(f"parallel {label}: run failed: {bad[0]}")
            continue
        mismatches.extend(_compare("parallel", label, left, right))
    return mismatches


def check_memoized_vs_cold(config, app: str, policy: str,
                           seed: int = 0) -> list[str]:
    """A snapshot-resumed run vs the same run replayed cold.

    Three runs against one in-memory :class:`~repro.sim.snapshot.PhaseMemo`:
    a cold reference (no memo), a populate run that captures the
    phase-boundary snapshots, and a warm run that must resume from them.
    All three must agree bit-for-bit; on a multi-phase app the warm run
    must additionally have *hit* — a memo that silently stopped resuming
    would otherwise pass on the strength of the cold path alone.
    """
    from repro.sim.snapshot import PhaseMemo

    cold = _simulate(config, app, policy, seed)
    memo = PhaseMemo()
    populate = _simulate(
        config, app, policy, seed,
        memo=memo.session(config, app, policy, seed=seed),
    )
    warm = _simulate(
        config, app, policy, seed,
        memo=memo.session(config, app, policy, seed=seed),
    )
    label = f"{app}/{policy}"
    mismatches = (
        _compare("memo(populate)", label, cold, populate)
        + _compare("memo(warm)", label, cold, warm)
    )
    stats = memo.stats()
    if stats["stores"] > 0 and stats["hits"] == 0:
        mismatches.append(
            f"memo {label}: snapshots were stored but the warm run "
            f"never resumed from one"
        )
    return mismatches


# -- the oracle runner -----------------------------------------------------

_PAIR_LANES = {
    "fast_slow": check_fast_vs_slow,
    "cache": check_cached_vs_recomputed,
    "traced": check_traced_vs_untraced,
    "memo": check_memoized_vs_cold,
}


def run_differential(
    apps=DEFAULT_APPS,
    policies=None,
    *,
    seed: int = 0,
    jobs: int = 2,
    lanes=None,
) -> dict:
    """Run every requested oracle lane over the (app, policy) matrix.

    The ``fast_slow`` lane also replays each app's Fig. 25 cells (the
    requested :data:`~repro.verify.golden.OVERSUB_POLICIES` at
    :data:`~repro.verify.golden.OVERSUB_FACTOR`), the runs that evict.

    Returns ``{"pairs": int, "comparisons": int, "lanes": [...],
    "mismatches": [str, ...]}`` — empty ``mismatches`` means every
    execution mode agreed bit-for-bit on every pair.
    """
    from repro import POLICY_FACTORIES, baseline_config

    if policies is None:
        policies = sorted(POLICY_FACTORIES)
    if lanes is None:
        lanes = LANES
    unknown = [lane for lane in lanes if lane not in LANES]
    if unknown:
        raise ValueError(f"unknown lanes {unknown}; known: {list(LANES)}")
    config = baseline_config()
    pairs = [(app, policy) for app in apps for policy in policies]
    # The memo lane insists on at least one multi-phase app (see
    # MEMO_APPS): single-phase traces have no interior boundary, so on
    # them memoized-vs-cold only proves the no-op path.
    memo_extra = (
        [
            (app, policy)
            for app in MEMO_APPS
            if app not in apps
            for policy in policies
        ]
        if "memo" in lanes
        else []
    )
    comparisons = 0
    mismatches: list[str] = []
    for app, policy in pairs:
        for lane in lanes:
            check = _PAIR_LANES.get(lane)
            if check is None:
                continue
            mismatches.extend(check(config, app, policy, seed))
            comparisons += 1
    if "fast_slow" in lanes:
        from repro.verify.golden import OVERSUB_FACTOR, OVERSUB_POLICIES

        oversub = baseline_config(oversubscription=OVERSUB_FACTOR)
        for app in apps:
            for policy in OVERSUB_POLICIES:
                if policy in policies:
                    mismatches.extend(
                        check_fast_vs_slow(oversub, app, policy, seed)
                    )
                    comparisons += 1
    for app, policy in memo_extra:
        mismatches.extend(check_memoized_vs_cold(config, app, policy, seed))
        comparisons += 1
    if "parallel" in lanes and len(pairs) > 1:
        mismatches.extend(
            check_serial_vs_parallel(config, pairs, seed=seed, jobs=jobs)
        )
        comparisons += len(pairs)
    return {
        "pairs": len(pairs),
        "comparisons": comparisons,
        "lanes": list(lanes),
        "mismatches": mismatches,
    }
