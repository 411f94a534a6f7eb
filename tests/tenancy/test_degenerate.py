"""Degenerate mix: a one-tenant mix IS the solo run."""

from __future__ import annotations

import pytest

from repro import get_workload, make_policy, simulate
from repro.tenancy.mix import single_tenant_trace, trace_digest


@pytest.mark.parametrize("app", ["mm", "bfs"])
def test_single_tenant_trace_digest_matches_solo(config, app):
    solo = get_workload(app, config, seed=0)
    mix = single_tenant_trace(app, config, seed=0)
    assert trace_digest(solo) == trace_digest(mix)
    assert mix.tenants is None


def test_single_tenant_counters_bit_identical(config):
    solo_trace = get_workload("bfs", config, seed=0)
    mix_trace = single_tenant_trace("bfs", config, seed=0)
    solo = simulate(config, solo_trace, make_policy("grit"))
    mixed = simulate(config, mix_trace, make_policy("grit"))
    assert solo.total_time_ns == mixed.total_time_ns
    assert solo.stats == mixed.stats
