"""Structured tracing: hierarchical spans and typed instant events.

Every simulator component reports what happened *when* through one hook
point: a :class:`Tracer` attached to the machine.  Three implementations
exist:

* :data:`NULL_TRACER` — the default.  Every method is a no-op and
  ``enabled`` is ``False``, so instrumented code guards its event
  construction behind a single attribute test and the healthy fast path
  stays bit-identical and branch-predictable when tracing is off.
* :class:`RecordingTracer` — accumulates spans, instant events and
  counter samples in memory for export (see :mod:`repro.obs.export`).
* Anything else implementing the same duck-typed surface (tests use
  small custom recorders).

Tracks
------

Events live on named *tracks* — one per timeline row in the exported
Chrome trace: ``"gpu0" .. "gpuN-1"`` for the GPUs, ``"driver"`` for the
UVM driver, and ``"link:<name>"`` for per-link utilization samples.
At each phase end the machine also samples the driver's utilization
on ``"driver"`` and, on capacity runs, each GPU's resident pages on
its ``"gpuN"`` track.

Span hierarchy
--------------

Spans nest per track: :meth:`Tracer.begin_span` pushes onto the track's
open-span stack and :meth:`Tracer.end_span` pops it, stamping the
recorded :class:`SpanEvent` with its nesting ``depth``.  The machine
emits a root ``run`` span per track with one ``phase`` span per
simulated phase nested under it.

Timestamps are simulated nanoseconds (the machine's per-GPU clocks and
the driver FIFO clock), never wall-clock time, so a trace is exactly
reproducible run to run.

Columnar sinks
--------------

:meth:`Tracer.instant` builds one :class:`InstantEvent` per call, which
is fine for cold events (allocation, eviction) but too slow for
the per-fault hot loop, where a traced run emits two instants per
simulated fault.  Hot call sites instead register a *sink* up front —
:meth:`Tracer.sink` fixes the track, kind and field names once and
returns a plain list — then append bare ``(ts_ns, *values)`` tuples to
it during the run.  Materialization into :class:`InstantEvent` records
happens lazily the first time the trace is read (export or
introspection), the same deferred-encoding trick real tracers use with
ring buffers, so recording costs one tuple append per event.
"""

from __future__ import annotations

from typing import NamedTuple

#: The typed instant-event vocabulary.  Exporters and tests treat any
#: other kind as a schema violation.
EVENT_KINDS = frozenset(
    {
        "fault",  # GPU page/protection fault (gpu track)
        "migrate",  # driver moved a page's authoritative copy
        "duplicate",  # driver installed a read-only copy
        "collapse",  # driver write-collapsed duplicates
        "evict",  # driver pushed a page to host / dropped a copy
        "remote_map",  # driver installed a zero-copy remote PTE
        "local_map",  # driver re-mapped a GPU's resident copy
        "alloc",  # object allocated (driver track)
        "free",  # object freed (driver track)
        # Artifact-pipeline lifecycle (pipeline track; wall-clock ns
        # relative to pipeline start — see :mod:`repro.artifacts`).
        "pipeline_experiment",  # one experiment finished (ok or failed)
        "pipeline_skip",  # experiment already recorded by a prior run
        "pipeline_error",  # experiment raised; pipeline continued
    }
)


# Event records are NamedTuples, not dataclasses: a recording run
# creates one object per fault/migration, so construction cost is the
# tracing overhead.  Tuple construction is ~2x cheaper than a frozen
# dataclass and the records stay immutable.
class SpanEvent(NamedTuple):
    """One completed span on a track."""

    track: str
    name: str
    start_ns: float
    duration_ns: float
    #: Nesting depth at emission (0 = root span of the track).
    depth: int = 0
    args: tuple = ()

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


class InstantEvent(NamedTuple):
    """One typed point event on a track.

    ``args`` is stored exactly as handed to :meth:`Tracer.instant` — a
    mapping on the hot path (treat it as read-only) or a key/value
    tuple.  Exporters normalise either form with ``dict(event.args)``.
    """

    track: str
    kind: str
    ts_ns: float
    args: tuple | dict = ()


class CounterSample(NamedTuple):
    """One sampled value of a named series on a track."""

    track: str
    name: str
    ts_ns: float
    value: float


def _freeze_args(args: dict | None) -> tuple:
    """Deterministic, hashable form of an event's key/value payload."""
    if not args:
        return ()
    return tuple(sorted(args.items()))


class Tracer:
    """No-op base tracer; also the null-object implementation.

    Subclasses override the emission methods; instrumented code checks
    :attr:`enabled` before building event payloads so the disabled path
    costs one attribute read.
    """

    #: False on the null tracer: components skip event construction.
    enabled: bool = False

    def begin_span(self, track: str, name: str, ts_ns: float,
                   args: dict | None = None) -> None:
        """Open a nested span on ``track`` at ``ts_ns``."""

    def end_span(self, track: str, ts_ns: float) -> None:
        """Close the innermost open span on ``track`` at ``ts_ns``."""

    def instant(self, track: str, kind: str, ts_ns: float,
                args: dict | None = None) -> None:
        """Record a typed point event."""

    def sample(self, track: str, name: str, ts_ns: float,
               value: float) -> None:
        """Record one value of a sampled series (e.g. link utilization)."""

    def sink(self, track: str, kind: str,
             fields: tuple[str, ...]) -> list:
        """Register a columnar fast-emit list for a hot call site.

        Callers append ``(ts_ns, *values)`` tuples matching ``fields``.
        On the null tracer the returned list is never read, so hot sites
        still guard registration behind :attr:`enabled`.
        """
        return []

    def finish(self, ts_ns: float) -> None:
        """Close every still-open span (end of run)."""


#: Module-wide null tracer: the default for every component.
NULL_TRACER = Tracer()


class _Sink:
    """One registered columnar fast-emit stream (see :meth:`Tracer.sink`)."""

    __slots__ = ("track", "kind", "fields", "rows")

    def __init__(self, track: str, kind: str,
                 fields: tuple[str, ...]) -> None:
        self.track = track
        self.kind = kind
        self.fields = fields
        self.rows: list[tuple] = []


class RecordingTracer(Tracer):
    """In-memory tracer: records everything for later export."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanEvent] = []
        self.samples: list[CounterSample] = []
        self._instants: list[InstantEvent] = []
        self._sinks: list[_Sink] = []
        #: Per-track stack of open ``(name, start_ns, args)`` frames.
        self._open: dict[str, list[tuple[str, float, tuple]]] = {}

    @property
    def instants(self) -> list[InstantEvent]:
        """All instant events, materializing any pending sink rows."""
        self._drain_sinks()
        return self._instants

    def _drain_sinks(self) -> None:
        for sink in self._sinks:
            rows = sink.rows
            if rows:
                track, kind, fields = sink.track, sink.kind, sink.fields
                self._instants.extend(
                    InstantEvent(track, kind, row[0],
                                 dict(zip(fields, row[1:])))
                    for row in rows
                )
                # clear() (not reassignment) keeps the caller's cached
                # list reference live for further appends.
                rows.clear()

    # -- emission ----------------------------------------------------------

    def begin_span(self, track: str, name: str, ts_ns: float,
                   args: dict | None = None) -> None:
        self._open.setdefault(track, []).append(
            (name, ts_ns, _freeze_args(args))
        )

    def end_span(self, track: str, ts_ns: float) -> None:
        stack = self._open.get(track)
        if not stack:
            raise ValueError(f"no open span on track {track!r}")
        name, start_ns, args = stack.pop()
        self.spans.append(
            SpanEvent(
                track=track,
                name=name,
                start_ns=start_ns,
                duration_ns=max(0.0, ts_ns - start_ns),
                depth=len(stack),
                args=args,
            )
        )

    def instant(self, track: str, kind: str, ts_ns: float,
                args: dict | None = None) -> None:
        # Hot path: one call per fault/migration.  The args mapping is
        # stored as-is (callers hand over fresh dicts); exporters sort
        # keys at dump time, so determinism is preserved without paying
        # for a sort per event here.
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}"
            )
        self._instants.append(InstantEvent(track, kind, ts_ns, args or ()))

    def sink(self, track: str, kind: str,
             fields: tuple[str, ...]) -> list:
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}"
            )
        sink = _Sink(track, kind, tuple(fields))
        self._sinks.append(sink)
        return sink.rows

    def sample(self, track: str, name: str, ts_ns: float,
               value: float) -> None:
        self.samples.append(CounterSample(track, name, ts_ns, float(value)))

    def finish(self, ts_ns: float) -> None:
        for track in sorted(self._open):
            while self._open[track]:
                self.end_span(track, ts_ns)

    # -- introspection -----------------------------------------------------

    def tracks(self) -> list[str]:
        """Every track that carries at least one event, sorted."""
        names = {s.track for s in self.spans}
        names.update(i.track for i in self.instants)
        names.update(c.track for c in self.samples)
        return sorted(names)

    def open_span_count(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    def event_totals(self) -> dict[str, int]:
        """Count of instant events per kind (for stats cross-checks)."""
        totals: dict[str, int] = {}
        for event in self.instants:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return dict(sorted(totals.items()))

    def spans_on(self, track: str) -> list[SpanEvent]:
        return [s for s in self.spans if s.track == track]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.samples)
