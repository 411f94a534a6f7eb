"""repro.obs — observability: structured tracing and its Chrome export.

The always-available observability layer for simulated runs:

* :mod:`repro.obs.tracer` — hierarchical spans, typed instant events and
  sampled series, with a zero-overhead null tracer as the default.
* :mod:`repro.obs.export` — the Chrome ``trace_event`` JSON export and
  its schema check.

A run's counts live in its :attr:`~repro.sim.SimulationResult.stats`;
a trace adds when each event happened.

Quickstart::

    from repro import baseline_config, get_workload, make_policy, simulate
    from repro.obs import RecordingTracer, write_chrome_trace

    config = baseline_config()
    trace = get_workload("st", config)
    tracer = RecordingTracer()
    result = simulate(config, trace, make_policy("oasis"), tracer=tracer)
    write_chrome_trace("st.trace.json", tracer)   # open in Perfetto
"""

from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
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
    "InstantEvent",
    "NULL_TRACER",
    "RecordingTracer",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
