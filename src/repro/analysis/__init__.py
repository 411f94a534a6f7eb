"""Access-pattern characterization (Section IV of the paper).

Implements the paper's terminology on top of traces:

* per-page patterns — private/shared x read-only/write-only/rw-mix, over
  any window of phases;
* object patterns — the 90% predominance rule, 'mix' categories, and
  non-uniform object/app detection (Observation 2);
* the figure-specific characterizations: object sizes (Fig. 3), page/time
  pattern grids (Figs. 4 and 7), per-object access shares (Fig. 5),
  per-phase object patterns (Fig. 6), and page-type percentages under
  different page sizes (Fig. 20).
"""

from repro.analysis.classify import (
    PageClassification,
    classify_object,
    classify_pages,
    is_non_uniform_app,
    non_uniform_objects,
    object_pattern_by_phase,
    page_type_percentages,
)
from repro.analysis.characterize import (
    access_share_by_object,
    object_size_distribution,
    page_pattern_timeline,
    pages_by_object,
    phase_page_patterns,
    size_histogram,
)

__all__ = [
    "PageClassification",
    "access_share_by_object",
    "classify_object",
    "classify_pages",
    "is_non_uniform_app",
    "non_uniform_objects",
    "object_pattern_by_phase",
    "object_size_distribution",
    "page_pattern_timeline",
    "page_type_percentages",
    "pages_by_object",
    "phase_page_patterns",
    "size_histogram",
]
