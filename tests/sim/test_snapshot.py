"""Snapshot round-trip determinism and corruption handling.

The phase-snapshot tier (``repro.sim.snapshot``) promises that a run
resumed from a phase-boundary snapshot is byte-identical to a cold
replay.  These tests hold it to that across
the full workload registry against the pinned golden digests, and prove
that a corrupted snapshot is quarantined and silently degrades to cold
replay instead of crashing or corrupting the result.
"""

from __future__ import annotations

import json

import pytest

from repro import make_policy
from repro.config import baseline_config
from repro.harness.diskcache import DiskCache
from repro.sim import snapshot
from repro.sim.machine import Machine, simulate
from repro.sim.snapshot import (
    MAX_SNAPSHOTS,
    PhaseMemo,
    phase_digest,
    snapshot_boundaries,
    trace_prefix_chain,
)
from repro.verify.golden import GOLDEN_PATH, entry_for, golden_key
from repro.workloads import APPLICATION_ORDER, get_workload

POLICIES = ("oasis", "on_touch")


@pytest.fixture(scope="module")
def golden_entries():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["entries"]


@pytest.fixture(scope="module")
def config():
    return baseline_config()


def _run(config, trace, app, policy, memo):
    session = memo.session(config, app, policy, seed=0)
    return simulate(config, trace, make_policy(policy), memo=session)


@pytest.mark.parametrize("app", APPLICATION_ORDER)
@pytest.mark.parametrize("policy", POLICIES)
def test_snapshot_round_trip_matches_golden(
    app, policy, config, golden_entries
):
    """Populate-then-warm must reproduce the pinned digests exactly.

    The warm run resumes from a restored snapshot (on multi-phase
    apps), so agreement with the golden entry proves the full
    serialize → restore → resume loop is byte-identical: same core
    digest, same per-phase digests, same counters.
    """
    pinned = golden_entries[golden_key(app, policy)]
    trace = get_workload(app, config, seed=0)
    memo = PhaseMemo()
    populate = _run(config, trace, app, policy, memo)
    warm = _run(config, trace, app, policy, memo)
    multi_phase = len(trace.phases) >= 2
    if multi_phase:
        assert memo.hits == 1, "warm run never resumed from a snapshot"
        assert memo.stores > 0
    for label, result in (("populate", populate), ("warm", warm)):
        entry = entry_for(result)
        assert entry["core"] == pinned["core"], f"{label} core drifted"
        assert entry["phases"] == pinned["phases"], (
            f"{label} per-phase digests drifted"
        )


def test_corrupt_snapshot_quarantined_and_cold_fallback(config, tmp_path):
    """Damaged snapshots degrade to re-simulation, never to bad data."""
    app, policy = "c2d", "oasis"
    trace = get_workload(app, config, seed=0)
    cold = entry_for(
        simulate(config, trace, make_policy(policy))
    )

    disk = DiskCache(tmp_path / "memo")
    memo = PhaseMemo(disk=disk)
    _run(config, trace, app, policy, memo)
    assert memo.stores > 0
    blobs = sorted((tmp_path / "memo" / "snap").rglob("*.json"))
    assert len(blobs) == memo.stores

    # Corrupt every stored snapshot two ways: garbage bytes (fails the
    # disk layer's checksum) and a checksum-valid record whose blob is
    # not a valid snapshot (fails the snapshot layer's validation).
    import base64
    import hashlib

    for i, path in enumerate(blobs):
        if i % 2 == 0:
            path.write_text("{ not json")
        else:
            bogus = b"\x80\x05not-a-snapshot"
            path.write_text(json.dumps({
                "key": path.stem,
                "simulator_version": 1,
                "checksum": hashlib.sha256(bogus).hexdigest(),
                "blob": base64.b64encode(bogus).decode("ascii"),
            }))
    memo.clear()  # drop the in-memory tier so the disk copies are probed

    warm = _run(config, trace, app, policy, memo)
    assert entry_for(warm) == cold, "fallback replay diverged from cold"
    assert memo.hits == 0 and memo.corrupt > 0
    quarantined = list((tmp_path / "memo" / "quarantine").glob("*.json"))
    assert quarantined, "corrupt snapshots were not quarantined"
    # The fallback run re-stored good snapshots under the same keys, so
    # a third run resumes again and still agrees.
    third = _run(config, trace, app, policy, memo)
    assert memo.hits == 1
    assert entry_for(third) == cold


def test_blob_write_errors_degrade_to_memory_tier(config, tmp_path):
    """OSError mid-write in the blob tier never kills a simulation.

    The snapshot stays in the memory tier (counted in ``io_errors``),
    the run completes bit-identically, and a warm run still resumes.
    """
    app, policy = "c2d", "oasis"
    trace = get_workload(app, config, seed=0)
    cold = entry_for(simulate(config, trace, make_policy(policy)))

    class FullDisk(DiskCache):
        def store_blob(self, key, blob):
            raise OSError("no space left on device")

    memo = PhaseMemo(disk=FullDisk(tmp_path / "memo"))
    first = _run(config, trace, app, policy, memo)
    assert entry_for(first) == cold
    assert memo.stores > 0
    assert memo.io_errors == memo.stores  # every disk write failed
    assert memo.stats()["io_errors"] == memo.io_errors
    assert not list((tmp_path / "memo").rglob("*.json"))
    # The snapshots survived in the memory tier: still a warm resume.
    warm = _run(config, trace, app, policy, memo)
    assert memo.hits == 1
    assert entry_for(warm) == cold
    memo.clear()
    assert memo.io_errors == 0


def test_snapshot_boundaries_striding():
    assert snapshot_boundaries(0) == ()
    assert snapshot_boundaries(1) == ()
    assert snapshot_boundaries(2) == (0,)
    # All interior boundaries when they fit the cap.
    assert snapshot_boundaries(9) == tuple(range(8))
    # Long traces stride, keep the deepest, and respect the cap.
    for n in (129, 128, 158, 500):
        bounds = snapshot_boundaries(n)
        assert len(bounds) <= MAX_SNAPSHOTS
        assert bounds[-1] == n - 2, "deepest interior boundary not kept"
        assert all(0 <= b < n - 1 for b in bounds)


def test_trace_prefix_chain_is_cached_and_positional(config):
    trace = get_workload("c2d", config, seed=0)
    chain = trace_prefix_chain(trace)
    assert len(chain) == len(trace.phases) + 1
    assert chain is trace_prefix_chain(trace)  # cached on the trace
    # Same phase content at a different position yields a different
    # prefix digest (the chain is rolling, not positional-blind).
    assert len(set(chain)) == len(chain)
    # Per-phase digests are cached too.
    assert phase_digest(trace.phases[0]) == trace.phases[0]._memo_digest


def test_previous_snapshot_version_is_unreachable(config, monkeypatch):
    """A snapshot written under the previous ``SNAPSHOT_VERSION`` is
    neither found (its key differs) nor restored (its payload is
    rejected), so no component resumes without the state it now has."""
    trace = get_workload("c2d", config, seed=0)
    machine = Machine(config, trace, make_policy("oasis"))
    prefix = trace_prefix_chain(trace)[1]
    current_key = snapshot.phase_key("base", 1, prefix)
    current = snapshot.capture(machine, 0, 0.0, [])
    monkeypatch.setattr(
        snapshot, "SNAPSHOT_VERSION", snapshot.SNAPSHOT_VERSION - 1
    )
    previous_key = snapshot.phase_key("base", 1, prefix)
    previous = snapshot.capture(machine, 0, 0.0, [])
    monkeypatch.undo()

    assert previous_key != current_key
    fresh = Machine(config, trace, make_policy("oasis"))
    with pytest.raises(snapshot.SnapshotError, match="version"):
        snapshot.restore(fresh, previous, expect_index=0)
    assert snapshot.restore(fresh, current, expect_index=0)["index"] == 0


def test_decision_digest_mismatch_is_refused(config, monkeypatch):
    """A snapshot whose page tables do not hash to its stored decision
    digest is refused before the restoring machine is touched."""
    trace = get_workload("c2d", config, seed=0)
    source = Machine(config, trace, make_policy("oasis"))
    source.run()
    monkeypatch.setattr(snapshot, "decision_digest", lambda tables: "0" * 64)
    planted = snapshot.capture(source, 0, 0.0, [])
    monkeypatch.undo()

    fresh = Machine(config, trace, make_policy("oasis"))
    before = {name: getattr(fresh, name) for name in snapshot._COMPONENTS}
    clocks = list(fresh.clocks)
    with pytest.raises(snapshot.SnapshotError, match="decision digest"):
        snapshot.restore(fresh, planted, expect_index=0)
    for name, component in before.items():
        assert getattr(fresh, name) is component, name
    assert fresh.clocks == clocks

    # The same state under its true digest restores.
    genuine = snapshot.capture(source, 0, 0.0, [])
    assert snapshot.restore(fresh, genuine, expect_index=0)["index"] == 0
    assert fresh.page_tables is not before["page_tables"]
