"""Multi-tenant co-scheduling: mixes, attribution, fairness.

``repro.tenancy`` lets 2--4 of the registry workloads share one
simulated machine: :mod:`repro.tenancy.mix` merges their traces into a
single multi-tenant :class:`~repro.workloads.base.Trace` with disjoint
address windows and burst-interleaved records; the machine attributes
TLB/fault/driver/migration work per tenant (``tenant.<name>.*``
counters, :mod:`repro.tenancy.accounting`); and
:mod:`repro.tenancy.fairness` turns shared-vs-solo timings into
slowdown / weighted-speedup / unfairness reports.

Mixes are addressed by name — ``get_workload("mm+bfs", config)`` — so
the whole harness (memoized sweeps, experiments, reproduce) runs them
without modification: ``repro-oasis sweep --tenants mm+bfs,mm+i2c``.
"""

from repro.tenancy.accounting import TenancyAccounting
from repro.tenancy.fairness import (
    fairness_report,
    mix_fairness,
    publish_fairness_metrics,
    quartiles,
    shared_time_ns,
    solo_time_ns,
    tenant_counters,
    tenant_names,
    tenant_rollup,
)
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
    "TenancyAccounting",
    "TenantInfo",
    "TenantMix",
    "TenantSpec",
    "build_mix_trace",
    "fairness_report",
    "get_mix_workload",
    "merge_traces",
    "mix_fairness",
    "parse_mix",
    "publish_fairness_metrics",
    "quartiles",
    "shared_time_ns",
    "single_tenant_trace",
    "solo_time_ns",
    "tenant_counters",
    "tenant_names",
    "tenant_rollup",
    "trace_digest",
]
