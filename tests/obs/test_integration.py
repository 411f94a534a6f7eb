"""End-to-end observability tests on real simulated runs.

The acceptance bar for the subsystem: tracing off is bit-identical to a
pre-observability run, tracing on changes no result, instant-event
totals exactly match the run's StatCounters, traces are deterministic
run to run, and the Chrome export passes the schema check.
"""

import json

import pytest

from repro import make_policy, simulate
from repro.obs import (
    MetricsRegistry,
    RecordingTracer,
    chrome_trace,
    jsonl_events,
    validate_chrome_trace,
)
from tests.conftest import make_trace, sweep_records


def two_phase_trace():
    return make_trace(
        {"data": 24, "weights": 8},
        [
            sweep_records(range(4), "data", 24, write=True),
            sweep_records(range(4), "data", 24, write=False)
            + sweep_records(range(4), "weights", 8, write=False),
        ],
    )


def observed_run(config, policy="oasis", trace=None):
    trace = trace or two_phase_trace()
    tracer, metrics = RecordingTracer(), MetricsRegistry()
    result = simulate(
        config, trace, make_policy(policy), tracer=tracer, metrics=metrics
    )
    return result, tracer, metrics


class TestBitIdentity:
    @pytest.mark.parametrize("policy", ["on_touch", "oasis", "grit"])
    def test_observed_run_changes_nothing(self, config, policy):
        trace = two_phase_trace()
        plain = simulate(config, trace, make_policy(policy))
        observed, tracer, _metrics = observed_run(
            config, policy, two_phase_trace()
        )
        assert observed.total_time_ns == plain.total_time_ns
        assert observed.stats == plain.stats
        assert observed.traffic == plain.traffic
        assert [p.duration_ns for p in observed.phases] == [
            p.duration_ns for p in plain.phases
        ]
        assert len(tracer) > 0

    def test_unobserved_result_has_no_metrics_payload(self, config):
        plain = simulate(config, two_phase_trace(), make_policy("oasis"))
        assert plain.metrics is None
        assert "metrics" not in plain.to_dict()

    def test_observed_result_round_trips(self, config):
        observed, _t, _m = observed_run(config)
        assert observed.metrics is not None
        restored = type(observed).from_dict(observed.to_dict())
        assert restored.metrics == observed.metrics


class TestStatAgreement:
    """Instant-event totals must exactly match StatCounters."""

    EVENT_TO_STAT = {
        "fault": ("fault.page", "fault.protection"),
        "migrate": ("migration.count",),
        "duplicate": ("duplication.count",),
        "collapse": ("collapse.count",),
        "remote_map": ("remote_map.count",),
        "local_map": ("local_map.count",),
        "evict": ("eviction.count", "eviction.copy_dropped"),
    }

    @pytest.mark.parametrize("policy", ["on_touch", "access_counter",
                                        "duplication", "grit", "oasis"])
    def test_totals_match(self, config, policy):
        result, tracer, _m = observed_run(config, policy)
        totals = tracer.event_totals()
        for kind, stat_keys in self.EVENT_TO_STAT.items():
            expected = sum(result.stats.get(k, 0.0) for k in stat_keys)
            assert totals.get(kind, 0) == expected, kind

    def test_totals_match_under_capacity_pressure(self, config):
        config = config.replace(oversubscription=1.5)
        result, tracer, _m = observed_run(config)
        totals = tracer.event_totals()
        evictions = result.stats.get("eviction.count", 0.0) + result.stats.get(
            "eviction.copy_dropped", 0.0
        )
        assert evictions > 0
        assert totals.get("evict", 0) == evictions

    def test_fault_latency_histogram_counts_every_fault(self, config):
        result, _t, metrics = observed_run(config)
        hist = metrics.snapshot().histograms["fault.latency_ns"]
        assert hist["count"] == result.total_faults


class TestSpans:
    def test_one_phase_span_per_phase_per_gpu(self, config):
        trace = two_phase_trace()
        _result, tracer, _m = observed_run(config, trace=trace)
        n_phases = len(trace.phases)
        for gpu in range(config.n_gpus):
            spans = tracer.spans_on(f"gpu{gpu}")
            phase_spans = [s for s in spans if s.depth == 1]
            root_spans = [s for s in spans if s.depth == 0]
            assert len(phase_spans) == n_phases
            assert len(root_spans) == 1
            assert root_spans[0].name == "run"

    def test_driver_track_has_phase_spans(self, config):
        _result, tracer, _m = observed_run(config)
        assert len([s for s in tracer.spans_on("driver") if s.depth == 1]) == 2

    def test_phase_spans_tile_the_run(self, config):
        result, tracer, _m = observed_run(config)
        spans = sorted(
            (s for s in tracer.spans_on("gpu0") if s.depth == 1),
            key=lambda s: s.start_ns,
        )
        assert spans[0].start_ns == 0.0
        assert spans[-1].end_ns == result.total_time_ns
        for left, right in zip(spans, spans[1:]):
            assert right.start_ns == left.end_ns

    def test_no_spans_left_open(self, config):
        _result, tracer, _m = observed_run(config)
        assert tracer.open_span_count() == 0


class TestDeterminism:
    def test_trace_exports_are_identical_run_to_run(self, config):
        exports = []
        for _ in range(2):
            _r, tracer, _m = observed_run(config)
            payload = chrome_trace(tracer, {"workload": "t"})
            exports.append(json.dumps(payload, sort_keys=True))
        assert exports[0] == exports[1]

    def test_jsonl_identical_run_to_run(self, config):
        logs = []
        for _ in range(2):
            _r, tracer, _m = observed_run(config)
            logs.append("\n".join(jsonl_events(tracer)))
        assert logs[0] == logs[1]


class TestChromeExportOfRealRun:
    def test_schema_and_contents(self, config):
        result, tracer, _m = observed_run(config)
        payload = chrome_trace(tracer, {"workload": "test", "policy": "oasis"})
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        faults = [e for e in instants if e["name"] == "fault"]
        migrates = [e for e in instants if e["name"] == "migrate"]
        assert len(faults) == result.total_faults
        assert len(migrates) == result.migrations
        # One utilization counter sample per link per non-empty phase.
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected per-link utilization samples"

    def test_link_tracks_present(self, config):
        _result, tracer, _m = observed_run(config)
        link_tracks = [t for t in tracer.tracks() if t.startswith("link:")]
        # 4 GPUs: 6 NVLink pairs + 4 PCIe host links.
        assert len(link_tracks) == 10

