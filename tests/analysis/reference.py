"""Per-record reference implementations of the analysis helpers.

These are the straightforward loop-and-scatter versions of
``repro.analysis``: ``ufunc.at`` scatters, string label arrays sorted
with ``np.unique``, and Python loops over every record.  They are slow
but obviously right, and ``test_reference.py`` checks that the
whole-array implementations agree with them on random traces.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.classify import (
    MIX,
    PREDOMINANCE,
    PRIVATE,
    READ_ONLY,
    RW_MIX,
    SHARED,
    UNTOUCHED,
    WRITE_ONLY,
)


def selected_phases(trace, phases):
    if phases is None:
        return trace.phases
    if isinstance(phases, slice):
        return trace.phases[phases]
    return [trace.phases[i] for i in phases]


def classify_pages(trace, phases=None):
    """``(reader_mask, writer_mask)`` per page, one ``bitwise_or.at``
    scatter per phase."""
    reader = np.zeros(trace.n_pages, dtype=np.int64)
    writer = np.zeros(trace.n_pages, dtype=np.int64)
    for phase in selected_phases(trace, phases):
        offsets = phase.page - trace.first_page
        bits = np.left_shift(np.int64(1), phase.gpu.astype(np.int64))
        is_write = phase.write.astype(bool)
        np.bitwise_or.at(writer, offsets[is_write], bits[is_write])
        np.bitwise_or.at(reader, offsets[~is_write], bits[~is_write])
    return reader, writer


def sharing_labels(reader, writer):
    union = reader | writer
    out = np.full(len(reader), UNTOUCHED, dtype=object)
    touched = union != 0
    multi = (union & (union - 1)) != 0
    out[touched & ~multi] = PRIVATE
    out[multi] = SHARED
    return out


def rw_labels(reader, writer):
    reads = reader != 0
    writes = writer != 0
    out = np.full(len(reader), UNTOUCHED, dtype=object)
    out[reads & ~writes] = READ_ONLY
    out[~reads & writes] = WRITE_ONLY
    out[reads & writes] = RW_MIX
    return out


def _dominant(labels):
    values, counts = np.unique(labels, return_counts=True)
    best = int(counts.argmax())
    return str(values[best]), float(counts[best] / counts.sum())


def classify_object(trace, obj, phases=None):
    """``(sharing, rw, touched_pages, sharing_agreement, rw_agreement)``."""
    reader, writer = classify_pages(trace, phases)
    start = obj.first_page - trace.first_page
    stop = start + obj.n_pages
    sharing = sharing_labels(reader, writer)[start:stop]
    rw = rw_labels(reader, writer)[start:stop]
    touched = sharing != UNTOUCHED
    n_touched = int(touched.sum())
    if n_touched == 0:
        return UNTOUCHED, UNTOUCHED, 0, 1.0, 1.0
    share_label, share_frac = _dominant(sharing[touched])
    rw_label, rw_frac = _dominant(rw[touched])
    if share_frac < PREDOMINANCE:
        share_label = MIX
    if rw_frac < PREDOMINANCE:
        rw_label = RW_MIX if RW_MIX in rw[touched] else MIX
    return share_label, rw_label, n_touched, share_frac, rw_frac


def page_type_percentages(trace, phases=None):
    reader, writer = classify_pages(trace, phases)
    sharing = sharing_labels(reader, writer)
    rw = rw_labels(reader, writer)
    touched = sharing != UNTOUCHED
    total = int(touched.sum())
    if total == 0:
        return {}
    out = {}
    for label in (READ_ONLY, WRITE_ONLY, RW_MIX):
        out[label] = float((rw[touched] == label).sum() / total)
    for label in (PRIVATE, SHARED):
        out[label] = float((sharing[touched] == label).sum() / total)
    return out


def access_share_by_object(trace):
    totals = np.zeros(len(trace.objects), dtype=np.float64)
    bounds = np.array(
        [obj.first_page for obj in trace.objects]
        + [trace.first_page + trace.n_pages]
    )
    for phase in trace.phases:
        idx = np.searchsorted(bounds, phase.page, side="right") - 1
        np.add.at(totals, idx, phase.weight)
    total = totals.sum()
    if total == 0:
        return {obj.name: 0.0 for obj in trace.objects}
    return {
        obj.name: float(totals[i] / total)
        for i, obj in enumerate(trace.objects)
    }


def _labels(reads, writes):
    labels = np.full(reads.shape, UNTOUCHED, dtype=object)
    labels[reads & ~writes] = READ_ONLY
    labels[~reads & writes] = WRITE_ONLY
    labels[reads & writes] = RW_MIX
    return labels


def page_pattern_timeline(trace, n_intervals=8, obj=None, page_step=1):
    first = obj.first_page if obj else trace.first_page
    count = obj.n_pages if obj else trace.n_pages
    pages = range(first, first + count, page_step)
    page_index = {p: i for i, p in enumerate(pages)}
    reads = np.zeros((len(page_index), n_intervals), dtype=bool)
    writes = np.zeros((len(page_index), n_intervals), dtype=bool)
    total_records = trace.total_records
    seen = 0
    for phase in trace.phases:
        for page, is_write in zip(phase.page.tolist(), phase.write.tolist()):
            interval = min(seen * n_intervals // total_records,
                           n_intervals - 1)
            seen += 1
            idx = page_index.get(page)
            if idx is None:
                continue
            if is_write:
                writes[idx, interval] = True
            else:
                reads[idx, interval] = True
    return _labels(reads, writes)


def phase_page_patterns(trace, obj, page_step=1):
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
    return _labels(reads, writes)
