"""The whole-array analysis helpers agree with their per-record references.

Random multi-phase traces (up to four GPUs, several objects, empty
phases) are analysed over random windows — the whole run, a list of
phase indices, a slice, or an empty window — by both ``repro.analysis``
and the loop implementations in ``tests/analysis/reference.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    access_share_by_object,
    classify_object,
    classify_pages,
    page_pattern_timeline,
    page_type_percentages,
    phase_page_patterns,
)
from tests.analysis import reference
from tests.conftest import make_trace


@st.composite
def traces(draw):
    """A random trace and a random phase window over it."""
    n_gpus = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    names = [f"o{i}" for i in range(len(sizes))]
    record = st.integers(0, len(sizes) - 1).flatmap(
        lambda i: st.tuples(
            st.integers(0, n_gpus - 1), st.just(names[i]),
            st.integers(0, sizes[i] - 1), st.booleans(), st.integers(1, 50),
        )
    )
    phases = draw(st.lists(st.lists(record, max_size=30),
                           min_size=1, max_size=4))
    trace = make_trace(dict(zip(names, sizes)), phases, n_gpus=n_gpus,
                       burst=draw(st.integers(1, 4)))
    n_phases = len(phases)
    window = draw(st.one_of(
        st.none(),
        st.just([]),
        st.just(slice(0, 0)),
        st.lists(st.integers(0, n_phases - 1), max_size=4),
        st.slices(n_phases),
    ))
    return trace, window


@settings(max_examples=150, deadline=None)
@given(case=traces())
def test_classify_pages_matches_reference(case):
    trace, window = case
    cls = classify_pages(trace, window)
    reader, writer = reference.classify_pages(trace, window)
    assert cls.reader_mask.dtype == reader.dtype
    assert np.array_equal(cls.reader_mask, reader)
    assert np.array_equal(cls.writer_mask, writer)
    sharing = reference.sharing_labels(reader, writer)
    rw = reference.rw_labels(reader, writer)
    assert cls.sharing_labels().tolist() == sharing.tolist()
    assert cls.rw_labels().tolist() == rw.tolist()
    for offset in range(trace.n_pages):
        page = trace.first_page + offset
        assert cls.pattern_of(page) == (sharing[offset], rw[offset])
        assert cls.touched(page) == (sharing[offset] != "untouched")


@settings(max_examples=150, deadline=None)
@given(case=traces())
def test_classify_object_matches_reference(case):
    trace, window = case
    cls = classify_pages(trace, window)
    for obj in trace.objects:
        expected = reference.classify_object(trace, obj, window)
        for pattern in (classify_object(trace, obj, cls),
                        classify_object(trace, obj, phases=window)):
            got = (pattern.sharing, pattern.rw, pattern.touched_pages,
                   pattern.sharing_agreement, pattern.rw_agreement)
            assert got == expected
            assert pattern.n_pages == obj.n_pages
            assert pattern.is_non_uniform == (
                expected[3] < 1.0 and expected[4] < 1.0
            )


@settings(max_examples=150, deadline=None)
@given(case=traces())
def test_page_type_percentages_matches_reference(case):
    trace, window = case
    assert page_type_percentages(trace, window) == (
        reference.page_type_percentages(trace, window)
    )


@settings(max_examples=150, deadline=None)
@given(case=traces())
def test_access_share_matches_reference(case):
    trace, _ = case
    assert access_share_by_object(trace) == (
        reference.access_share_by_object(trace)
    )


@settings(max_examples=150, deadline=None)
@given(case=traces(), n_intervals=st.integers(1, 6),
       page_step=st.integers(1, 3),
       obj_index=st.one_of(st.none(), st.integers(0, 3)))
def test_page_pattern_timeline_matches_reference(
    case, n_intervals, page_step, obj_index
):
    trace, _ = case
    obj = None if obj_index is None else (
        trace.objects[obj_index % len(trace.objects)]
    )
    got = page_pattern_timeline(trace, n_intervals, obj, page_step)
    expected = reference.page_pattern_timeline(trace, n_intervals, obj,
                                               page_step)
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()


@settings(max_examples=150, deadline=None)
@given(case=traces(), page_step=st.integers(1, 3))
def test_phase_page_patterns_matches_reference(case, page_step):
    trace, _ = case
    for obj in trace.objects:
        got = phase_page_patterns(trace, obj, page_step)
        expected = reference.phase_page_patterns(trace, obj, page_step)
        assert got.shape == expected.shape
        assert got.tolist() == expected.tolist()
