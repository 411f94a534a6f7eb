"""Runner-level sweep-fast-path wiring: configure, counters, summary.

Covers the harness glue around :mod:`repro.sim.sweep`: the
``configure(memo=..., memo_dir=...)`` knobs, the ``memo`` section of
``last_sweep_summary`` on the serial and pool paths, worker-delta
merging, and the default-off posture.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    cache_stats,
    clear_cache,
    configure,
    last_sweep_summary,
    memo_stats,
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
    configure(memo=False, memo_dir="")
    clear_cache()


def _requests(config, policies=POLICIES):
    return [(config, MEMO_APP, policy) for policy in policies]


def test_memo_default_off(config):
    run_sims_parallel(_requests(config, ("on_touch",)), jobs=1)
    summary = last_sweep_summary()
    assert summary["memo"]["enabled"] is False
    assert memo_stats()["enabled"] is False
    assert memo_stats()["hits"] == 0


def test_serial_sweep_memo_summary(config):
    configure(memo=True)
    run_sims_parallel(_requests(config), jobs=1)
    summary = last_sweep_summary()
    memo = summary["memo"]
    assert memo["enabled"] is True
    assert memo["stores"] > 0
    assert memo["snapshot_bytes"] > 0
    # Three policies over one cohort: the two non-reference policies
    # fork off the shared lane at their first divergent decision.
    assert memo["prefix_forks"] == 2

    # A second identical sweep replays from the result cache (no new
    # simulation), so its memo delta is all zeros.
    run_sims_parallel(_requests(config), jobs=1)
    repeat = last_sweep_summary()["memo"]
    assert repeat["hits"] == 0 and repeat["stores"] == 0

    # Dropping only the result tier forces re-simulation that resumes
    # from the snapshots populated by the first sweep.
    runner._session.results.clear()
    run_sims_parallel(_requests(config), jobs=1)
    warm = last_sweep_summary()["memo"]
    assert warm["hits"] == len(POLICIES)
    assert warm["resumed_phases"] > 0
    assert warm["stores"] == 0

    results = [run_sim(config, MEMO_APP, policy) for policy in POLICIES]
    assert all(isinstance(r, SimulationResult) for r in results)


def test_serial_sweeps_keep_no_lane_records(config):
    """Only a pool worker keeps lane records, to ship them; the parent
    folds its own runs into the lanes and keeps nothing more."""
    configure(memo=True)
    lanes = runner._session.memo.lanes
    requests = [
        (config, MEMO_APP, policy, {"footprint_mb": 4.0})
        for policy in POLICIES
    ]
    for sweep in range(1, 4):
        runner._session.results.clear()
        run_sims_parallel(requests, jobs=1)
        assert lanes.runs == sweep * len(POLICIES)
        assert lanes.drain() == []
    assert last_sweep_summary()["memo"]["prefix_forks"] == 0
    assert lanes.forks == 2


def test_pool_sweep_ships_memo_deltas(config, tmp_path):
    """Workers return per-run deltas; the parent folds them into stats."""
    configure(memo=True, memo_dir=str(tmp_path / "memo"))
    before = memo_stats()
    run_sims_parallel(_requests(config), jobs=2)
    summary = last_sweep_summary()
    assert summary["ok"] == len(POLICIES)
    memo = summary["memo"]
    assert memo["enabled"] is True
    assert memo["stores"] > 0
    assert memo["prefix_forks"] == 2
    after = memo_stats()
    assert after["stores"] - before["stores"] == memo["stores"]
    # The shared disk tier holds the snapshots the workers stored.
    assert list((tmp_path / "memo" / "snap").rglob("*.json"))

    # A warm pool sweep resumes from the shared disk tier.
    clear_cache()
    run_sims_parallel(_requests(config), jobs=2)
    warm = last_sweep_summary()["memo"]
    assert warm["hits"] == len(POLICIES)
    assert warm["resumed_phases"] > 0


def test_memo_dir_implies_enabled(config, tmp_path):
    configure(memo_dir=str(tmp_path / "memo"))
    assert memo_stats()["enabled"] is True
    run_sims_parallel(_requests(config, ("on_touch",)), jobs=1)
    assert last_sweep_summary()["memo"]["stores"] > 0
    assert list((tmp_path / "memo" / "snap").rglob("*.json"))


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
    assert memo_stats()["hits"] >= 1
    assert core_digest(warm) == cold_digest
