"""Page and object pattern classification (Section IV-B terminology).

Definitions implemented verbatim from the paper:

* **private page** — accessed exclusively by one GPU during the window;
* **shared page** — accessed by more than one GPU during the window;
* **read-only / write-only / rw-mix** — only read, only written, or both;
* **object pattern** — if >= 90% of an object's touched pages agree on a
  dimension, the object takes that label; otherwise it is a ``mix`` in
  that dimension;
* **non-uniform object** — has at least one page whose pattern differs
  from the object's dominant pattern in *both* dimensions;
* **non-uniform app** — has at least one non-uniform object.

Everything works on whole arrays: a window's records are concatenated
and scattered in one pass, and each page's two labels are kept as small
integer codes (:data:`SHARING_LABELS`, :data:`RW_LABELS`) that objects
slice and count with ``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.base import ObjectDef, PhaseTrace, Trace

#: Predominance threshold for classifying an object (Section IV-B).
PREDOMINANCE = 0.90

UNTOUCHED = "untouched"
PRIVATE = "private"
SHARED = "shared"
READ_ONLY = "read-only"
WRITE_ONLY = "write-only"
RW_MIX = "rw-mix"
MIX = "mix"

#: Label of each sharing code.  Touched labels are numbered in sorted
#: order, so the lowest of equally common codes is the alphabetically
#: first label.
SHARING_LABELS = (UNTOUCHED, PRIVATE, SHARED)
#: Label of each read/write code, numbered like :data:`SHARING_LABELS`.
RW_LABELS = (UNTOUCHED, READ_ONLY, RW_MIX, WRITE_ONLY)
#: Read/write code of ``read + 2 * write`` (each 0 or 1).
RW_CODE_OF_BITS = np.array(
    [RW_LABELS.index(label)
     for label in (UNTOUCHED, READ_ONLY, WRITE_ONLY, RW_MIX)],
    dtype=np.int8,
)


def select_phases(
    trace: Trace, phases: slice | list[int] | None
) -> list[PhaseTrace]:
    """The phases of a window: a slice, a list of indices, or None (all)."""
    if phases is None:
        return trace.phases
    if isinstance(phases, slice):
        return trace.phases[phases]
    return [trace.phases[i] for i in phases]


def concat_field(selected: list[PhaseTrace], name: str) -> np.ndarray:
    """One record field (``gpu``, ``page``, ...) over phases, in order."""
    if not selected:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([getattr(phase, name) for phase in selected])


@dataclass
class PageClassification:
    """Per-page access summary over a window of phases.

    Arrays are indexed by page offset from ``first_page``.
    """

    first_page: int
    reader_mask: np.ndarray
    writer_mask: np.ndarray
    #: Per-page index into :data:`SHARING_LABELS`.
    sharing_codes: np.ndarray = field(init=False, repr=False)
    #: Per-page index into :data:`RW_LABELS`.
    rw_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        union = self.reader_mask | self.writer_mask
        touched = union != 0
        multi = (union & (union - 1)) != 0
        self.sharing_codes = touched.astype(np.int8) + multi
        self.rw_codes = RW_CODE_OF_BITS[
            (self.reader_mask != 0) + 2 * (self.writer_mask != 0)
        ]

    @property
    def n_pages(self) -> int:
        return len(self.reader_mask)

    def _idx(self, page: int) -> int:
        return page - self.first_page

    def touched(self, page: int) -> bool:
        return bool(self.sharing_codes[self._idx(page)])

    def sharing_of(self, page: int) -> str:
        """``private``, ``shared`` or ``untouched``."""
        return SHARING_LABELS[self.sharing_codes[self._idx(page)]]

    def rw_of(self, page: int) -> str:
        """``read-only``, ``write-only``, ``rw-mix`` or ``untouched``."""
        return RW_LABELS[self.rw_codes[self._idx(page)]]

    def pattern_of(self, page: int) -> tuple[str, str]:
        """``(sharing, rw)`` of one page."""
        return self.sharing_of(page), self.rw_of(page)

    # -- bulk views ---------------------------------------------------------

    def code_counts(
        self, start: int = 0, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pages per sharing code and per rw code in offsets [start, stop)."""
        return (
            np.bincount(self.sharing_codes[start:stop],
                        minlength=len(SHARING_LABELS)),
            np.bincount(self.rw_codes[start:stop], minlength=len(RW_LABELS)),
        )

    def sharing_labels(self) -> np.ndarray:
        """Vector of sharing labels for every page."""
        return np.array(SHARING_LABELS, dtype=object)[self.sharing_codes]

    def rw_labels(self) -> np.ndarray:
        """Vector of read/write labels for every page."""
        return np.array(RW_LABELS, dtype=object)[self.rw_codes]


def classify_pages(
    trace: Trace, phases: slice | list[int] | None = None
) -> PageClassification:
    """Classify every page of a trace over the chosen phase window.

    Marks every (read/write, GPU, page) triple the window's records hit,
    then folds each page's GPU marks into reader and writer bitmasks.

    Args:
        trace: the trace to analyze.
        phases: which phases to include — a slice, a list of indices, or
            None for the whole execution.
    """
    selected = select_phases(trace, phases)
    is_write = concat_field(selected, "write") != 0
    hit = np.zeros((2, trace.n_gpus, trace.n_pages), dtype=bool)
    hit[is_write.view(np.uint8),
        concat_field(selected, "gpu"),
        concat_field(selected, "page") - trace.first_page] = True
    bits = np.left_shift(np.int64(1), np.arange(trace.n_gpus, dtype=np.int64))
    return PageClassification(trace.first_page, bits @ hit[0], bits @ hit[1])


@dataclass(frozen=True)
class ObjectPattern:
    """An object's classification over a window."""

    name: str
    sharing: str
    rw: str
    touched_pages: int
    n_pages: int
    #: Fraction of touched pages agreeing with the dominant sharing label.
    sharing_agreement: float
    #: Fraction of touched pages agreeing with the dominant rw label.
    rw_agreement: float

    @property
    def label(self) -> str:
        """Combined label, e.g. ``shared-read-only`` (Section IV-B)."""
        return f"{self.sharing}-{self.rw}"

    @property
    def is_non_uniform(self) -> bool:
        """True if some page deviates in both dimensions (Section IV-B)."""
        return self.sharing_agreement < 1.0 and self.rw_agreement < 1.0


def classify_object(
    trace: Trace,
    obj: ObjectDef,
    classification: PageClassification | None = None,
    phases: slice | list[int] | None = None,
) -> ObjectPattern:
    """Classify one object with the 90% predominance rule."""
    cls = classification or classify_pages(trace, phases)
    start = obj.first_page - trace.first_page
    sharing, rw = cls.code_counts(start, start + obj.n_pages)
    n_touched = int(sharing[1:].sum())
    if n_touched == 0:
        return ObjectPattern(obj.name, UNTOUCHED, UNTOUCHED, 0, obj.n_pages,
                             1.0, 1.0)
    share_label, share_frac = _dominant(sharing, SHARING_LABELS, n_touched)
    rw_label, rw_frac = _dominant(rw, RW_LABELS, n_touched)
    if share_frac < PREDOMINANCE:
        share_label = MIX
    if rw_frac < PREDOMINANCE:
        rw_label = RW_MIX if rw[RW_LABELS.index(RW_MIX)] else MIX
    return ObjectPattern(
        name=obj.name,
        sharing=share_label,
        rw=rw_label,
        touched_pages=n_touched,
        n_pages=obj.n_pages,
        sharing_agreement=share_frac,
        rw_agreement=rw_frac,
    )


def _dominant(
    counts: np.ndarray, labels: tuple[str, ...], n_touched: int
) -> tuple[str, float]:
    """The most common touched label and its share (ties: lowest code)."""
    best = int(counts[1:].argmax()) + 1
    return labels[best], float(counts[best] / n_touched)


def object_pattern_by_phase(
    trace: Trace, obj: ObjectDef
) -> list[ObjectPattern]:
    """The object's pattern in each phase (the Fig. 6 per-phase view)."""
    return [
        classify_object(trace, obj, phases=[i])
        for i in range(len(trace.phases))
    ]


def non_uniform_objects(
    trace: Trace, phases: slice | list[int] | None = None
) -> list[str]:
    """Names of objects with at least one doubly-deviating page."""
    cls = classify_pages(trace, phases)
    return [
        obj.name
        for obj in trace.objects
        if classify_object(trace, obj, cls).is_non_uniform
    ]


def is_non_uniform_app(trace: Trace) -> bool:
    """True if any object is non-uniform over the whole execution."""
    return bool(non_uniform_objects(trace))


def page_type_percentages(
    trace: Trace, phases: slice | list[int] | None = None
) -> dict[str, float]:
    """Fractions of touched pages per category (the Fig. 20 breakdown).

    Returns a dict with ``read-only`` / ``write-only`` / ``rw-mix`` and
    ``private`` / ``shared`` fractions (each family sums to 1).
    """
    sharing, rw = classify_pages(trace, phases).code_counts()
    total = int(sharing[1:].sum())
    if total == 0:
        return {}
    out = {}
    for label in (READ_ONLY, WRITE_ONLY, RW_MIX):
        out[label] = float(rw[RW_LABELS.index(label)] / total)
    for label in (PRIVATE, SHARED):
        out[label] = float(sharing[SHARING_LABELS.index(label)] / total)
    return out
