"""Application workload models (Table II) and the trace framework."""

from repro.workloads.base import (
    ObjectDef,
    PhaseTrace,
    Trace,
    TraceBuilder,
)
from repro.workloads.registry import (
    APPLICATION_ORDER,
    APPLICATIONS,
    ApplicationInfo,
    get_workload,
)

__all__ = [
    "APPLICATION_ORDER",
    "APPLICATIONS",
    "ApplicationInfo",
    "ObjectDef",
    "PhaseTrace",
    "Trace",
    "TraceBuilder",
    "get_workload",
]
