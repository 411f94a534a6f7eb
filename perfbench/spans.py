"""Layer spans recorded around calls into the simulator (``--trace 1``).

The benchmark wraps the entry point of each simulator layer from its own
code, so the program under test is unchanged.  Every wrapped call
records one span in memory: layer, start, end, the span that caused it
and the id of the simulation it belongs to.  A layer's *self time* is
its spans' durations minus the part covered by child spans, so the
self times of all layers never overlap and their sum is at most the
wall time of the pass that produced them.

Two layers have no entry point of their own and are read as self
times: the SoA replay-array build is the self time of
``FastReplay.run_phase`` (whose only other work is the chunk loop), and
the per-record fallback is the self time of ``Machine._run_phase`` plus
``FastReplay._run_chunk`` (the loops that call ``Machine.access``).

A target the program no longer has is skipped, and its layer reads 0.
Trace generation runs before its simulation's machine is built, so its
spans carry the id of the simulation before.
"""

from __future__ import annotations

import time

# Span fields: [layer, start_ns, end_ns, parent index, sim id, child ns].
_LAYER, _START, _END, _PARENT, _SIM, _CHILD = range(6)

#: Track the spans are exported on.
TRACK = "perfbench"


class SpanRecorder:
    """In-memory span store fed by method wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.records: dict[str, int] = {}
        self.sim_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, *, records=None,
             new_sim: bool = False) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``.

        ``records(args)`` returns the amount of work the call handles
        (trace records, or 1 per call), summed per layer in
        :attr:`records`; ``new_sim`` starts a new simulation id before
        the span opens.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return
        spans = self.spans
        stack = self._stack
        counts = self.records
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if new_sim:
                self.sim_id += 1
            if records is not None:
                counts[layer] = counts.get(layer, 0) + records(args)
            parent = stack[-1] if stack else -1
            span = [layer, clock(), 0, parent, self.sim_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = end = clock()
                if parent >= 0:
                    spans[parent][_CHILD] += end - span[_START]

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """Position to pass to :meth:`self_ms` for spans recorded later."""
        self.records.clear()
        return len(self.spans)

    def self_ms(self, since: int = 0) -> dict[str, float]:
        """Self time per layer (ms) over spans recorded after ``since``."""
        totals: dict[str, float] = {}
        for span in self.spans[since:]:
            own = span[_END] - span[_START] - span[_CHILD]
            totals[span[_LAYER]] = totals.get(span[_LAYER], 0.0) + own
        return {layer: ns / 1e6 for layer, ns in totals.items()}

    def to_tracer(self, since: int = 0):
        """Spans recorded after ``since`` replayed into a
        :class:`repro.obs.RecordingTracer`, timed from the first one, so
        the simulator's own exporter can write them."""
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        origin = self.spans[since][_START] if since < len(self.spans) else 0
        open_spans: list[int] = []

        def close_down_to(parent: int) -> None:
            while open_spans and open_spans[-1] != parent:
                end = self.spans[open_spans.pop()][_END]
                tracer.end_span(TRACK, end - origin)

        # Spans are stored in the order they opened, so closing every
        # open span that is not the next one's parent restores nesting.
        for index in range(since, len(self.spans)):
            layer, start, _end, parent, sim, _child = self.spans[index]
            close_down_to(parent)
            tracer.begin_span(TRACK, layer, start - origin, {"sim": sim})
            open_spans.append(index)
        close_down_to(-1)
        return tracer


def _phase_records(args) -> int:
    return len(args[1])


def _run_records(args) -> int:
    return args[2] - args[1]


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every simulator layer the benchmark reports on."""
    from repro.harness.diskcache import DiskCache
    from repro.sim import fastpath, machine, snapshot
    from repro.workloads import registry

    wrap = recorder.wrap
    wrap(registry, "_cached_build", "trace.generate")
    wrap(machine.Machine, "__init__", "machine.build", new_sim=True,
         records=lambda args: 1)
    wrap(machine.Machine, "run", "sim.run")
    wrap(machine.Machine, "_run_phase", "replay.phase",
         records=_phase_records)
    wrap(fastpath.FastReplay, "run_phase", "replay.soa_build")
    wrap(fastpath.FastReplay, "_run_chunk", "fastpath.chunk")
    wrap(fastpath.FastReplay, "_rebuild", "fastpath.mask_build",
         records=lambda args: 1)
    wrap(fastpath.FastReplay, "_run_bulk", "fastpath.steady",
         records=_run_records)
    wrap(fastpath.FastReplay, "_run_bulk_fault", "fastpath.fault_lane",
         records=_run_records)
    # Snapshot digests, pickling and blob IO: one layer, because runs of
    # single-phase traces take no snapshots and would read IO as 0.
    for name in ("resume", "after_phase", "finish"):
        wrap(snapshot.MemoSession, name, "memo")
    wrap(DiskCache, "load", "cache.read")
    wrap(DiskCache, "store", "cache.write")
