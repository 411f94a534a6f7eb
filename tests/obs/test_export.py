"""Exporter unit tests: the Chrome trace schema and its writer."""

import json

import pytest

from repro.obs import (
    InstantEvent,
    RecordingTracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def small_tracer() -> RecordingTracer:
    t = RecordingTracer()
    t.begin_span("gpu0", "run", 0.0, {"workload": "w"})
    t.begin_span("gpu0", "phase0", 0.0)
    t.instant("gpu0", "fault", 5.0, {"page": 7})
    t.instant("driver", "migrate", 6.0, {"page": 7, "gpu": 0})
    t.sample("link:nvlink:gpu0-gpu1", "utilization", 10.0, 0.5)
    t.finish(10.0)
    return t


class TestChromeTrace:
    def test_schema_valid(self):
        payload = chrome_trace(small_tracer(), {"policy": "oasis"})
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"] == {"policy": "oasis"}

    def test_track_rows_and_metadata(self):
        payload = chrome_trace(small_tracer())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        # GPU rows first, then driver, then links.
        assert names[1] == "gpu0"
        assert names[2] == "driver"
        assert names[3] == "link:nvlink:gpu0-gpu1"

    def test_ns_to_us_conversion(self):
        payload = chrome_trace(small_tracer())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        run = next(s for s in spans if s["name"] == "run")
        assert run["ts"] == 0.0 and run["dur"] == pytest.approx(0.01)

    def test_parent_precedes_child(self):
        payload = chrome_trace(small_tracer())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [s["name"] for s in spans] == ["run", "phase0"]
        assert spans[0]["args"]["depth"] == 0
        assert spans[1]["args"]["depth"] == 1

    def test_instants_carry_kind_and_args(self):
        payload = chrome_trace(small_tracer())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"fault", "migrate"}
        fault = next(e for e in instants if e["name"] == "fault")
        assert fault["args"] == {"page": 7}
        assert fault["s"] == "t"

    def test_counter_samples(self):
        payload = chrome_trace(small_tracer())
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["args"] == {"utilization": 0.5}

    def test_validator_flags_violations(self):
        assert validate_chrome_trace([]) == ["top level must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
                {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1, "dur": 1},
                {"ph": "i", "name": "nonsense", "pid": 1, "tid": 1, "ts": 0},
                {"ph": "i", "name": "fault", "ts": 0},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 5

    def test_write_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "out.json", small_tracer())
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []

    def test_write_refuses_invalid(self, tmp_path):
        t = RecordingTracer()
        # Bypass instant()'s checks to hand-build a broken event.
        t.instants.append(InstantEvent(track="gpu0", kind="fault", ts_ns=-5.0))
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            write_chrome_trace(tmp_path / "bad.json", t)
