"""Figure-specific characterizations (Figs. 3, 4, 5, 7).

These helpers turn a trace into exactly the data series the paper's
characterization figures plot.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.classify import (
    READ_ONLY,
    RW_MIX,
    UNTOUCHED,
    WRITE_ONLY,
)
from repro.workloads.base import ObjectDef, Trace


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
    totals = np.zeros(len(trace.objects), dtype=np.float64)
    bounds = np.array(
        [obj.first_page for obj in trace.objects] + [trace.first_page + trace.n_pages]
    )
    for phase in trace.phases:
        idx = np.searchsorted(bounds, phase.page, side="right") - 1
        np.add.at(totals, idx, phase.weight)
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
    page_index = {p: i for i, p in enumerate(pages)}
    grid_reads = np.zeros((len(page_index), n_intervals), dtype=bool)
    grid_writes = np.zeros((len(page_index), n_intervals), dtype=bool)

    total_records = trace.total_records
    if total_records == 0:
        return np.full((len(page_index), n_intervals), UNTOUCHED, dtype=object)
    seen = 0
    for phase in trace.phases:
        n = len(phase)
        if n == 0:
            continue
        positions = seen + np.arange(n)
        intervals = np.minimum(
            (positions * n_intervals) // total_records, n_intervals - 1
        )
        seen += n
        for page_arr, write_arr, interval_arr in (
            (phase.page, phase.write, intervals),
        ):
            for page, is_write, interval in zip(
                page_arr.tolist(), write_arr.tolist(), interval_arr.tolist()
            ):
                idx = page_index.get(page)
                if idx is None:
                    continue
                if is_write:
                    grid_writes[idx, interval] = True
                else:
                    grid_reads[idx, interval] = True

    labels = np.full((len(page_index), n_intervals), UNTOUCHED, dtype=object)
    labels[grid_reads & ~grid_writes] = READ_ONLY
    labels[~grid_reads & grid_writes] = WRITE_ONLY
    labels[grid_reads & grid_writes] = RW_MIX
    return labels


def phase_page_patterns(
    trace: Trace, obj: ObjectDef, page_step: int = 1
) -> np.ndarray:
    """Per-phase page patterns for one object (the Fig. 7 iteration grid).

    Returns an array of shape ``(n_pages_sampled, n_phases)``.
    """
    pages = range(obj.first_page, obj.first_page + obj.n_pages, page_step)
    page_index = {p: i for i, p in enumerate(pages)}
    n_phases = len(trace.phases)
    reads = np.zeros((len(page_index), n_phases), dtype=bool)
    writes = np.zeros((len(page_index), n_phases), dtype=bool)
    for phase_no, phase in enumerate(trace.phases):
        for page, is_write in zip(phase.page.tolist(), phase.write.tolist()):
            idx = page_index.get(page)
            if idx is None:
                continue
            if is_write:
                writes[idx, phase_no] = True
            else:
                reads[idx, phase_no] = True
    labels = np.full((len(page_index), n_phases), UNTOUCHED, dtype=object)
    labels[reads & ~writes] = READ_ONLY
    labels[~reads & writes] = WRITE_ONLY
    labels[reads & writes] = RW_MIX
    return labels
