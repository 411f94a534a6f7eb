"""Golden-digest regression: pinning, drift detection, named diffs."""

from __future__ import annotations

import json

import pytest

from repro import baseline_config, get_workload, make_policy, simulate
from repro.verify.golden import (
    GOLDEN_PATH,
    OVERSUB_POLICIES,
    SCHEMA,
    check_golden,
    entry_diff,
    entry_for,
    golden_key,
    golden_matrix,
    load_golden,
    oversub_cell,
    split_cell,
    update_golden,
)


@pytest.fixture
def config():
    return baseline_config()


@pytest.fixture
def result(config):
    trace = get_workload("i2c", config)
    return simulate(config, trace, make_policy("on_touch"))


def test_golden_key_includes_seed_only_when_nonzero():
    assert golden_key("i2c", "oasis") == "i2c/oasis"
    assert golden_key("i2c", "oasis", seed=3) == "i2c/oasis#3"


def test_entry_for_shape(result):
    entry = entry_for(result)
    assert set(entry) == {"core", "total_time_ns", "phases", "counters"}
    assert len(entry["core"]) == 64
    assert entry["phases"]
    assert all(set(p) == {"name", "digest"} for p in entry["phases"])
    assert entry["counters"]["fault.page"] > 0


def test_entry_diff_names_the_moved_counter(result):
    pinned = entry_for(result)
    fresh = json.loads(json.dumps(pinned))
    fresh["counters"]["migration.count"] += 5.0
    diffs = entry_diff(pinned, fresh)
    assert any("counter migration.count" in d for d in diffs)


def test_entry_diff_names_the_moved_phase(result):
    pinned = entry_for(result)
    fresh = json.loads(json.dumps(pinned))
    fresh["phases"][0]["digest"] = "0" * 64
    name = fresh["phases"][0]["name"]
    diffs = entry_diff(pinned, fresh)
    assert any(name in d and "digest moved" in d for d in diffs)


def test_entry_diff_falls_back_to_core(result):
    entry = entry_for(result)
    assert entry_diff(entry, entry) == ["core digest moved (non-counter field)"]


def test_full_matrix_covers_registry():
    from repro import POLICY_FACTORIES
    from repro.workloads.registry import APPLICATION_ORDER

    pairs = golden_matrix()
    assert len(pairs) == len(APPLICATION_ORDER) * (
        len(POLICY_FACTORIES) + len(OVERSUB_POLICIES)
    )
    assert ("i2c", "oasis@x1.5") in pairs
    assert ("i2c", "on_touch@x1.5") in pairs


def test_oversub_cells_name_their_factor():
    assert oversub_cell("oasis") == "oasis@x1.5"
    assert golden_key("i2c", oversub_cell("oasis")) == "i2c/oasis@x1.5"
    assert split_cell("oasis@x1.5") == ("oasis", True)
    assert split_cell("oasis") == ("oasis", False)


@pytest.mark.parametrize("cell", ["oasis@x1.25", "oasis@x2", "oasis@x"])
def test_other_oversub_factors_rejected(cell):
    with pytest.raises(ValueError):
        split_cell(cell)
    with pytest.raises(ValueError):
        check_golden(apps=("i2c",), policies=(cell,))


def test_oversub_cell_runs_capacity_managed(tmp_path):
    path = tmp_path / "golden.json"
    update_golden(path, apps=("i2c",), policies=("on_touch", "on_touch@x1.5"))
    entries = load_golden(path)["entries"]
    assert set(entries) == {"i2c/on_touch", "i2c/on_touch@x1.5"}
    assert entries["i2c/on_touch@x1.5"]["counters"]["eviction.count"] > 0
    assert "eviction.count" not in entries["i2c/on_touch"]["counters"]


def test_update_then_check_round_trips(tmp_path):
    path = tmp_path / "golden.json"
    summary = update_golden(
        path, apps=("i2c",), policies=("on_touch", "oasis")
    )
    assert summary["pinned"] == 2
    assert sorted(summary["added"]) == ["i2c/oasis", "i2c/on_touch"]
    assert summary["changed"] == []
    report = check_golden(path, apps=("i2c",), policies=("on_touch", "oasis"))
    assert report["checked"] == 2
    assert report["missing"] == []
    assert report["mismatches"] == []


def test_partial_update_preserves_other_entries(tmp_path):
    path = tmp_path / "golden.json"
    update_golden(path, apps=("i2c",), policies=("on_touch", "oasis"))
    summary = update_golden(path, apps=("i2c",), policies=("ideal",))
    assert summary["pinned"] == 3
    assert summary["added"] == ["i2c/ideal"]
    entries = load_golden(path)["entries"]
    assert set(entries) == {"i2c/on_touch", "i2c/oasis", "i2c/ideal"}


def test_tampered_counter_is_reported_as_drift(tmp_path):
    path = tmp_path / "golden.json"
    update_golden(path, apps=("i2c",), policies=("on_touch",))
    pinned = load_golden(path)
    entry = pinned["entries"]["i2c/on_touch"]
    entry["counters"]["fault.page"] += 1.0
    entry["core"] = "0" * 64
    path.write_text(json.dumps(pinned))
    report = check_golden(path, apps=("i2c",), policies=("on_touch",))
    assert any(
        m.startswith("i2c/on_touch: counter fault.page")
        for m in report["mismatches"]
    )


def test_missing_entry_is_reported(tmp_path):
    path = tmp_path / "golden.json"
    update_golden(path, apps=("i2c",), policies=("on_touch",))
    report = check_golden(path, apps=("i2c",), policies=("on_touch", "oasis"))
    assert report["missing"] == ["i2c/oasis"]


def test_absent_file_raises_with_guidance(tmp_path):
    with pytest.raises(FileNotFoundError):
        check_golden(tmp_path / "nope.json", apps=("i2c",),
                     policies=("on_touch",))


def test_schema_mismatch_is_rejected(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"schema": SCHEMA + 1, "entries": {}}))
    with pytest.raises(ValueError, match="schema"):
        check_golden(path, apps=("i2c",), policies=("on_touch",))


def test_committed_golden_file_matches_live_model():
    # Spot-check one cheap pair against the repo's pinned file so tier-1
    # notices model drift without recomputing the whole matrix.
    if not GOLDEN_PATH.exists():
        pytest.skip("golden file not pinned yet (run make golden-update)")
    report = check_golden(
        apps=("i2c",), policies=("on_touch", "oasis", "oasis@x1.5")
    )
    assert report["checked"] == 3
    assert report["missing"] == []
    assert report["mismatches"] == []
