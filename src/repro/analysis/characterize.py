"""Figure-specific characterizations (Figs. 3, 4, 5, 7).

These helpers turn a trace into exactly the data series the paper's
characterization figures plot.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.classify import RW_CODE_OF_BITS, RW_LABELS, concat_field
from repro.workloads.base import ObjectDef, PhaseTrace, Trace


def object_size_distribution(trace: Trace) -> dict[str, int]:
    """Object sizes in pages, keyed by object name (Fig. 3 input)."""
    return {obj.name: obj.n_pages for obj in trace.objects}


def size_histogram(
    traces: list[Trace], buckets: tuple[int, ...] = (1, 4, 16, 64, 256, 1024)
) -> dict[str, int]:
    """Object-size counts (pages) across many traces (Fig. 3).

    Bucket labels are ``<=N`` for each bound plus a final ``>last``.
    """
    counts = {f"<={b}": 0 for b in buckets}
    counts[f">{buckets[-1]}"] = 0
    for trace in traces:
        for obj in trace.objects:
            for bound in buckets:
                if obj.n_pages <= bound:
                    counts[f"<={bound}"] += 1
                    break
            else:
                counts[f">{buckets[-1]}"] += 1
    return counts


def access_share_by_object(trace: Trace) -> dict[str, float]:
    """Fraction of dynamic accesses going to each object (Fig. 5(b))."""
    bounds = np.array(
        [obj.first_page for obj in trace.objects] + [trace.first_page + trace.n_pages]
    )
    idx = np.searchsorted(bounds, concat_field(trace.phases, "page"),
                          side="right") - 1
    totals = np.bincount(idx, weights=concat_field(trace.phases, "weight"),
                         minlength=len(trace.objects))
    total = totals.sum()
    if total == 0:
        return {obj.name: 0.0 for obj in trace.objects}
    return {
        obj.name: float(totals[i] / total) for i, obj in enumerate(trace.objects)
    }


def pages_by_object(trace: Trace) -> dict[str, float]:
    """Fraction of the footprint's pages belonging to each object."""
    total = sum(obj.n_pages for obj in trace.objects)
    return {obj.name: obj.n_pages / total for obj in trace.objects}


def page_pattern_timeline(
    trace: Trace,
    n_intervals: int = 8,
    obj: ObjectDef | None = None,
    page_step: int = 1,
) -> np.ndarray:
    """Read/write pattern of each page over execution time (Figs. 4 and 7).

    The trace's records are split into ``n_intervals`` equal spans of the
    merged record stream; each cell classifies one page in one interval as
    read-only / write-only / rw-mix / untouched.

    Args:
        trace: trace to characterize.
        n_intervals: number of time slices (the paper uses 8 for Fig. 4;
            per-iteration views pass one interval per phase).
        obj: restrict to one object's pages (None = whole trace).
        page_step: sample every Nth page to keep the grid small.

    Returns:
        Array of shape ``(n_pages_sampled, n_intervals)`` of labels.
    """
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    first = obj.first_page if obj else trace.first_page
    count = obj.n_pages if obj else trace.n_pages
    pages = range(first, first + count, page_step)
    total_records = trace.total_records
    interval = (np.arange(total_records) * n_intervals) // max(total_records, 1)
    return _rw_grid(trace.phases, pages, interval, n_intervals)


def phase_page_patterns(
    trace: Trace, obj: ObjectDef, page_step: int = 1
) -> np.ndarray:
    """Per-phase page patterns for one object (the Fig. 7 iteration grid).

    Returns an array of shape ``(n_pages_sampled, n_phases)``.
    """
    pages = range(obj.first_page, obj.first_page + obj.n_pages, page_step)
    n_phases = len(trace.phases)
    phase_no = np.repeat(np.arange(n_phases),
                         [len(phase) for phase in trace.phases])
    return _rw_grid(trace.phases, pages, phase_no, n_phases)


def _rw_grid(
    phases: list[PhaseTrace], pages: range, column: np.ndarray,
    n_columns: int,
) -> np.ndarray:
    """Read/write label of each sampled page in each column.

    ``column`` gives every record of ``phases`` (concatenated in order)
    its grid column; records on pages outside ``pages`` are ignored.
    """
    offset = concat_field(phases, "page") - pages.start
    row = offset // pages.step
    sampled = (offset % pages.step == 0) & (row >= 0) & (row < len(pages))
    is_write = concat_field(phases, "write")[sampled] != 0
    seen = np.zeros((2, len(pages), n_columns), dtype=bool)
    seen[is_write.view(np.uint8), row[sampled], column[sampled]] = True
    bits = seen[0] + 2 * seen[1]
    return np.array(RW_LABELS, dtype=object)[RW_CODE_OF_BITS[bits]]
