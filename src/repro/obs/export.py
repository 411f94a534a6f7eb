"""Exporters: Chrome ``trace_event`` JSON, JSONL event log, Prometheus text.

Three interchange formats for one recorded run:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON-object format (loadable in Perfetto or
  ``chrome://tracing``).  Each simulator track becomes one timeline row
  (thread): GPUs first, then the driver, the fault-injection row, and
  one row per interconnect link carrying its utilization counter.
  Simulated nanoseconds map to trace microseconds (the format's native
  unit), so a 1 ms phase renders as 1 ms.
* :func:`jsonl_events` / :func:`write_jsonl` — one JSON object per line
  per event, in deterministic (track, time) order, for ad-hoc ``jq``
  style analysis.
* :func:`prometheus_text` — a Prometheus text-format dump of a
  :class:`~repro.obs.metrics.MetricsSnapshot` (counters as ``_total``,
  gauges bare, histograms with cumulative ``_bucket{le=...}`` series).

:func:`validate_chrome_trace` is the minimal schema check the test
suite and the ``repro-oasis trace`` subcommand run on every export.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator

from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracer import EVENT_KINDS, RecordingTracer

#: Single simulated process in the exported trace.
TRACE_PID = 1

_NS_PER_US = 1000.0

_GPU_TRACK = re.compile(r"^gpu(\d+)$")


def _track_sort_key(track: str) -> tuple:
    """GPU rows first (numeric order), then driver, then links."""
    match = _GPU_TRACK.match(track)
    if match:
        return (0, int(match.group(1)), track)
    if track == "driver":
        return (1, 0, track)
    return (2, 0, track)


def _tid_map(tracer: RecordingTracer) -> dict[str, int]:
    tracks = sorted(tracer.tracks(), key=_track_sort_key)
    return {track: tid for tid, track in enumerate(tracks, start=1)}


def chrome_trace(tracer: RecordingTracer,
                 run_meta: dict | None = None) -> dict:
    """Build the Chrome ``trace_event`` JSON-object payload.

    Args:
        tracer: a finished :class:`RecordingTracer` (open spans should
            have been closed with :meth:`~RecordingTracer.finish`).
        run_meta: optional run description (workload, policy, ...)
            stored under ``otherData``.
    """
    tids = _tid_map(tracer)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "repro-oasis simulation"},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    # Spans close innermost-first; re-sort by (track, start, -duration)
    # so parents precede children deterministically.
    for span in sorted(
        tracer.spans,
        key=lambda s: (tids[s.track], s.start_ns, -s.duration_ns, s.depth),
    ):
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": span.start_ns / _NS_PER_US,
                "dur": span.duration_ns / _NS_PER_US,
                "pid": TRACE_PID,
                "tid": tids[span.track],
                "args": {"depth": span.depth, **dict(span.args)},
            }
        )
    for event in sorted(
        tracer.instants, key=lambda e: (tids[e.track], e.ts_ns, e.kind)
    ):
        events.append(
            {
                "name": event.kind,
                "cat": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.ts_ns / _NS_PER_US,
                "pid": TRACE_PID,
                "tid": tids[event.track],
                "args": dict(event.args),
            }
        )
    for sample in sorted(
        tracer.samples, key=lambda c: (tids[c.track], c.ts_ns, c.name)
    ):
        events.append(
            {
                "name": f"{sample.track}:{sample.name}",
                "ph": "C",
                "ts": sample.ts_ns / _NS_PER_US,
                "pid": TRACE_PID,
                "tid": tids[sample.track],
                "args": {sample.name: sample.value},
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if run_meta:
        payload["otherData"] = dict(sorted(run_meta.items()))
    return payload


def write_chrome_trace(path: str | Path, tracer: RecordingTracer,
                       run_meta: dict | None = None) -> Path:
    """Export and write the Chrome trace JSON; returns the path."""
    path = Path(path)
    payload = chrome_trace(tracer, run_meta=run_meta)
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid Chrome trace: "
            + "; ".join(problems[:5])
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


_VALID_PHASES = {"M", "X", "i", "C"}


def validate_chrome_trace(payload) -> list[str]:
    """Minimal ``trace_event`` schema check; returns the violations.

    Checks the JSON-object container shape plus, per event: a known
    phase, a name, numeric non-negative ``ts`` (and ``dur`` for spans),
    ``pid``/``tid`` present, and instant events restricted to the typed
    :data:`~repro.obs.tracer.EVENT_KINDS` vocabulary.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        if "pid" not in event or "tid" not in event:
            problems.append(f"{where}: missing pid/tid")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "i" and event.get("name") not in EVENT_KINDS:
            problems.append(
                f"{where}: instant kind {event.get('name')!r} not in "
                "the typed vocabulary"
            )
    return problems


def jsonl_events(tracer: RecordingTracer) -> Iterator[str]:
    """One JSON line per recorded event, deterministically ordered."""
    records: list[tuple] = []
    for span in tracer.spans:
        records.append(
            (
                span.track,
                span.start_ns,
                0,
                {
                    "type": "span",
                    "track": span.track,
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "duration_ns": span.duration_ns,
                    "depth": span.depth,
                    "args": dict(span.args),
                },
            )
        )
    for event in tracer.instants:
        records.append(
            (
                event.track,
                event.ts_ns,
                1,
                {
                    "type": "instant",
                    "track": event.track,
                    "kind": event.kind,
                    "ts_ns": event.ts_ns,
                    "args": dict(event.args),
                },
            )
        )
    for sample in tracer.samples:
        records.append(
            (
                sample.track,
                sample.ts_ns,
                2,
                {
                    "type": "sample",
                    "track": sample.track,
                    "name": sample.name,
                    "ts_ns": sample.ts_ns,
                    "value": sample.value,
                },
            )
        )
    records.sort(key=lambda r: (_track_sort_key(r[0]), r[1], r[2]))
    for _track, _ts, _rank, body in records:
        yield json.dumps(body, sort_keys=True)


def write_jsonl(path: str | Path, tracer: RecordingTracer) -> Path:
    """Write the JSONL event log; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for line in jsonl_events(tracer):
            handle.write(line + "\n")
    return path


def _metric_name(name: str, prefix: str) -> str:
    """Sanitize a dotted counter name into a Prometheus metric name."""
    clean = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    return f"{prefix}_{clean}"


def prometheus_text(snapshot: MetricsSnapshot,
                    prefix: str = "repro") -> str:
    """Prometheus text-format dump of a metrics snapshot.

    Counters are exported as ``<prefix>_<name>_total``, gauges bare, and
    histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum``
    and ``_count`` — all in sorted order so the dump is byte-stable.
    """
    lines: list[str] = []
    for name, value in snapshot.counters.items():
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, value in snapshot.gauges.items():
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    for name, payload in snapshot.histograms.items():
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        running = 0
        bounds = payload["bounds"]
        counts = payload["counts"]
        for bound, count in zip(bounds, counts):
            running += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {running}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {payload["count"]}')
        lines.append(f"{metric}_sum {payload['sum']:g}")
        lines.append(f"{metric}_count {payload['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str | Path, snapshot: MetricsSnapshot,
                     prefix: str = "repro") -> Path:
    """Write the Prometheus text dump; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(snapshot, prefix=prefix))
    return path
