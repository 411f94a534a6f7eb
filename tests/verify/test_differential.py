"""Differential oracle lanes: agreement on healthy code, divergence caught."""

from __future__ import annotations

import pytest

from repro import baseline_config, get_workload, make_policy, simulate
from repro.engine import StatCounters
from repro.verify.differential import (
    canonical_json,
    check_cached_vs_recomputed,
    check_fast_vs_slow,
    check_serial_vs_parallel,
    check_traced_vs_untraced,
    core_digest,
    counters_digest,
    diff_payloads,
    forced_slow_path,
    run_differential,
)


@pytest.fixture
def config():
    return baseline_config()


def test_core_digest_is_stable_and_content_addressed(config):
    trace = get_workload("i2c", config)
    a = simulate(config, trace, make_policy("on_touch"))
    b = simulate(config, trace, make_policy("on_touch"))
    c = simulate(config, trace, make_policy("oasis"))
    assert core_digest(a) == core_digest(b)
    assert core_digest(a) != core_digest(c)
    assert counters_digest(a) == counters_digest(b)


def test_diff_payloads_names_the_moved_counter():
    left = {"stats": {"fault.page": 10.0, "migration.count": 10.0}}
    right = {"stats": {"fault.page": 10.0, "migration.count": 9.0}}
    diffs = diff_payloads(left, right)
    assert diffs == ["stats.migration.count: 10.0 != 9.0"]


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json(
        {"a": 2, "b": 1}
    )


def test_forced_slow_path_restores_environment(monkeypatch):
    import os

    monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
    with forced_slow_path():
        assert os.environ["REPRO_FORCE_SLOW_PATH"] == "1"
    assert "REPRO_FORCE_SLOW_PATH" not in os.environ


@pytest.mark.parametrize("policy", ["on_touch", "oasis"])
def test_fast_vs_slow_lane_agrees(config, policy):
    assert check_fast_vs_slow(config, "i2c", policy) == []


def test_cache_lane_agrees(config):
    assert check_cached_vs_recomputed(config, "i2c", "oasis") == []


def test_traced_lane_agrees(config):
    assert check_traced_vs_untraced(config, "i2c", "oasis") == []


def test_parallel_lane_agrees(config):
    pairs = [("i2c", "on_touch"), ("i2c", "oasis")]
    assert check_serial_vs_parallel(config, pairs, jobs=2) == []


def test_runner_covers_requested_lanes():
    report = run_differential(
        apps=("i2c",),
        policies=("on_touch",),
        lanes=("fast_slow", "cache"),
    )
    assert report["pairs"] == 1
    # Both lanes on the pair, and fast_slow on its Fig. 25 cell.
    assert report["comparisons"] == 3
    assert report["mismatches"] == []


def test_runner_rejects_unknown_lane():
    with pytest.raises(ValueError, match="unknown lanes"):
        run_differential(apps=("i2c",), lanes=("warp_drive",))


def test_mutation_smoke_fast_slow_divergence_caught(config, monkeypatch):
    # Mutation smoke: make the slow path drop remote-access counting so
    # the two paths genuinely diverge — the oracle must name the moved
    # counter, not just fail.
    from repro.sim.machine import Machine

    orig_access = Machine.access

    def skewed(self, gpu, page, is_write, weight):
        self.stats.add("access.skew_probe", weight)
        orig_access(self, gpu, page, is_write, weight)

    monkeypatch.setattr(Machine, "access", skewed)
    mismatches = check_fast_vs_slow(config, "i2c", "on_touch")
    assert mismatches
    assert any("access.skew_probe" in m for m in mismatches)


def test_mutation_smoke_counter_drop_breaks_digest(config, monkeypatch):
    trace = get_workload("i2c", config)
    healthy = simulate(config, trace, make_policy("on_touch"))

    orig = StatCounters.add

    def dropping(self, name, amount=1.0):
        if name == "migration.bytes":
            return
        orig(self, name, amount)

    monkeypatch.setattr(StatCounters, "add", dropping)
    broken = simulate(config, trace, make_policy("on_touch"))
    assert core_digest(healthy) != core_digest(broken)
    diffs = diff_payloads(healthy.to_dict(), broken.to_dict())
    assert any("migration.bytes" in d for d in diffs)


def test_fast_slow_lane_covers_the_oversubscribed_cells(monkeypatch):
    # Mutation smoke: the per-record path skips the LRU refresh, which
    # only a capacity run reads.  The baseline pair still agrees; the
    # lane must name the Fig. 25 cell that diverged.
    from repro.memory import CapacityManager

    monkeypatch.setattr(
        CapacityManager, "note_access", lambda self, gpu, page: None
    )
    report = run_differential(
        apps=("i2c",), policies=("oasis",), lanes=("fast_slow",)
    )
    assert report["comparisons"] == 2
    assert report["mismatches"]
    assert all(
        m.startswith("fast_slow i2c/oasis@x1.5: ")
        for m in report["mismatches"]
    )
