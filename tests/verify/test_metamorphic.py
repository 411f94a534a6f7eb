"""Metamorphic oracles: relations that must hold whatever the numbers are."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import baseline_config, get_workload, make_policy, simulate
from repro.verify.differential import diff_payloads
from repro.workloads.base import TraceBuilder

REAL_POLICIES = (
    "on_touch",
    "access_counter",
    "duplication",
    "grit",
    "static_advise",
    "oasis",
    "oasis_inmem",
)


@pytest.fixture
def config():
    return baseline_config()


@pytest.mark.parametrize("app", ["i2c", "mm"])
def test_ideal_is_never_slower_than_real_policies(config, app):
    # "ideal" resolves every access locally with zero page-management
    # cost; any real policy paying faults and migrations must be >= it.
    trace = get_workload(app, config)
    floor = simulate(config, trace, make_policy("ideal")).total_time_ns
    for policy in REAL_POLICIES:
        total = simulate(config, trace, make_policy(policy)).total_time_ns
        assert total >= floor, f"{policy} beat ideal on {app}"


@pytest.mark.parametrize("policy", ["on_touch", "oasis", "access_counter"])
def test_doubling_link_bandwidth_never_hurts(config, policy):
    trace = get_workload("i2c", config)
    base = simulate(config, trace, make_policy(policy)).total_time_ns
    fat_links = baseline_config(
        latency=replace(
            config.latency,
            nvlink_bw_bytes_per_ns=config.latency.nvlink_bw_bytes_per_ns * 2,
            pcie_bw_bytes_per_ns=config.latency.pcie_bw_bytes_per_ns * 2,
        )
    )
    fast = simulate(fat_links, trace, make_policy(policy)).total_time_ns
    assert fast <= base


def _private_objects_trace(config, pages_per_gpu: int = 64):
    """Each GPU touches only its own object — nothing is ever shared."""
    builder = TraceBuilder(
        "private", config.n_gpus, config.page_size, seed=0, burst=4
    )
    objs = [
        builder.alloc(f"private{gpu}", pages_per_gpu * config.page_size)
        for gpu in range(config.n_gpus)
    ]
    builder.begin_phase("sweep", explicit=True)
    for gpu, obj in enumerate(objs):
        for page in range(pages_per_gpu):
            builder.emit(gpu, obj, page, page % 3 == 0, 1)
    builder.end_phase()
    return builder.build()


def test_oasis_degenerates_to_on_touch_without_sharing(config):
    # With zero inter-GPU sharing there are no remote accesses for the
    # object-aware machinery to act on: OASIS must reduce to first-touch
    # migration.  Everything observable may differ only in the policy
    # label and OASIS's own bookkeeping counters (stats.oasis.*).
    trace = _private_objects_trace(config)
    on_touch = simulate(config, trace, make_policy("on_touch"))
    oasis = simulate(config, trace, make_policy("oasis"))
    assert oasis.total_time_ns == on_touch.total_time_ns
    diffs = diff_payloads(on_touch.to_dict(), oasis.to_dict())
    assert diffs, "policy label alone should differ"
    for line in diffs:
        assert line.startswith(("policy:", "stats.oasis.")), line
    assert oasis.stats.get("access.remote", 0) == 0
    assert oasis.stats.get("duplication.count", 0) == 0
