"""Runner-level phase-snapshot wiring: configure, counters, results.

Covers the harness glue around :mod:`repro.sim.snapshot`: the
``configure(memo=...)`` knob, the session's :class:`PhaseMemo` counters
on the serial path, and the default-off posture.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    cache_stats,
    clear_cache,
    configure,
    last_sweep_summary,
    run_sim,
    run_sims_parallel,
)
from repro.harness import runner
from repro.sim import SimulationResult

MEMO_APP = "c2d"  # smallest multi-phase workload
POLICIES = ("oasis", "on_touch", "grit")


@pytest.fixture(autouse=True)
def memo_off_after():
    """Restore the default memo-off posture whatever a test configures."""
    clear_cache()
    yield
    configure(memo=False)
    clear_cache()


def _requests(config, policies=POLICIES):
    return [(config, MEMO_APP, policy) for policy in policies]


def test_memo_default_off(config):
    run_sims_parallel(_requests(config, ("on_touch",)), jobs=1)
    assert "memo" not in last_sweep_summary()
    assert runner._session.settings.memo is False
    assert runner._session.memo is None


def test_serial_sweep_memo_summary(config):
    configure(memo=True)
    memo = runner._session.memo
    run_sims_parallel(_requests(config), jobs=1)
    populate = memo.stats()
    assert populate["stores"] > 0
    assert populate["snapshot_bytes"] > 0
    assert populate["hits"] == 0

    # A second identical sweep replays from the result cache (no new
    # simulation), so the memo's counters do not move.
    run_sims_parallel(_requests(config), jobs=1)
    assert memo.stats() == populate

    # Dropping only the result tier forces re-simulation that resumes
    # from the snapshots populated by the first sweep.
    runner._session.results.clear()
    run_sims_parallel(_requests(config), jobs=1)
    warm = memo.stats()
    assert warm["hits"] == len(POLICIES)
    assert warm["resumed_phases"] > 0
    assert warm["stores"] == populate["stores"]

    results = [run_sim(config, MEMO_APP, policy) for policy in POLICIES]
    assert all(isinstance(r, SimulationResult) for r in results)


def test_cache_stats_has_snap_counters():
    stats = cache_stats()
    assert "snap_hits" in stats and "snap_misses" in stats


def test_memoized_results_identical_to_cold(config):
    """End-to-end through the runner: memo on/off results are identical."""
    from repro.verify.differential import core_digest

    cold = run_sim(config, MEMO_APP, "oasis")
    cold_digest = core_digest(cold)

    configure(memo=True)
    clear_cache()
    run_sims_parallel(_requests(config, ("oasis",)), jobs=1)  # populate
    runner._session.results.clear()
    warm = run_sim(config, MEMO_APP, "oasis")
    assert runner._session.memo.hits >= 1
    assert core_digest(warm) == cold_digest
