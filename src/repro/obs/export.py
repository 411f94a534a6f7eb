"""Exporter: Chrome ``trace_event`` JSON.

:func:`chrome_trace` / :func:`write_chrome_trace` build the Chrome
``trace_event`` JSON-object format (loadable in Perfetto or
``chrome://tracing``) from one recorded run.  Each simulator track
becomes one timeline row (thread): GPUs first, then the driver, then
one row per interconnect link; each sampled series renders as a
counter on its track's row.  Simulated nanoseconds map to trace
microseconds (the format's native unit), so a 1 ms phase renders as
1 ms.

:func:`validate_chrome_trace` is the minimal schema check the test
suite and the ``repro-oasis trace`` subcommand run on every export.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

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
