"""Tenant mixes: several registry workloads merged into one trace.

:mod:`repro.tenancy.mix` gives each of 1--4 workloads a disjoint
address window and burst-interleaves their records phase by phase.  The
registry routes mix names to it (``get_workload("mm+bfs", config)``).
The simulator has no notion of tenants: a mix replays as one
application, with no per-tenant accounting.
"""

from repro.tenancy.mix import (
    MAX_TENANTS,
    TenantInfo,
    TenantMix,
    TenantSpec,
    build_mix_trace,
    get_mix_workload,
    merge_traces,
    parse_mix,
    single_tenant_trace,
    trace_digest,
)

__all__ = [
    "MAX_TENANTS",
    "TenantInfo",
    "TenantMix",
    "TenantSpec",
    "build_mix_trace",
    "get_mix_workload",
    "merge_traces",
    "parse_mix",
    "single_tenant_trace",
    "trace_digest",
]
