"""repro.obs — observability: structured tracing, metrics, exporters.

The always-available observability layer for simulated runs:

* :mod:`repro.obs.tracer` — hierarchical spans and typed instant events
  with a zero-overhead null tracer as the default.
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry that
  wraps the run's :class:`~repro.engine.StatCounters`.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, JSONL event
  log and Prometheus text dumps.

Quickstart::

    from repro import baseline_config, get_workload, make_policy, simulate
    from repro.obs import MetricsRegistry, RecordingTracer, write_chrome_trace

    config = baseline_config()
    trace = get_workload("st", config)
    tracer, metrics = RecordingTracer(), MetricsRegistry()
    result = simulate(config, trace, make_policy("oasis"),
                      tracer=tracer, metrics=metrics)
    write_chrome_trace("st.trace.json", tracer)   # open in Perfetto
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_events,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    FAULT_LATENCY_BUCKETS_NS,
    LINK_UTILIZATION_BUCKETS,
    TRANSFER_BYTES_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    CounterSample,
    InstantEvent,
    RecordingTracer,
    SpanEvent,
    Tracer,
)

__all__ = [
    "CounterSample",
    "EVENT_KINDS",
    "FAULT_LATENCY_BUCKETS_NS",
    "Histogram",
    "InstantEvent",
    "LINK_UTILIZATION_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "RecordingTracer",
    "SpanEvent",
    "TRANSFER_BYTES_BUCKETS",
    "Tracer",
    "chrome_trace",
    "jsonl_events",
    "prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
