"""Static-hints policy: the ``cudaMemAdvise`` strawman (Related Work).

The paper's Related Work notes that static analysis plus ``cudaMemAdvise``
can tell whether an object is *read or written* — and hint read-mostly
data for duplication — but "neither static analysis nor cudaMemAdvise can
determine whether an object is private or shared at runtime", nor can
they follow phase changes.

This policy emulates that programming model: before execution it derives
one immutable hint per object from its whole-program read/write behaviour
(exactly what a compiler or annotating programmer could know):

* an object that is only ever read → ``cudaMemAdviseSetReadMostly`` →
  duplication;
* everything else → no advice → default on-touch migration.

No runtime adaptation ever happens, so phase-dependent objects (C2D's
intermediates, ST's swap buffers) and write-shared objects are served by
whichever static choice was made — the gap to OASIS quantifies the value
of runtime object tracking.
"""

from __future__ import annotations

from repro.analysis.classify import classify_pages
from repro.memory import POLICY_DUPLICATION, POLICY_ON_TOUCH
from repro.policies.base import PolicyEngine


class StaticAdvisePolicy(PolicyEngine):
    """Per-object static hints, fixed for the whole execution."""

    name = "static_advise"

    def __init__(self, hints: dict[str, str] | None = None) -> None:
        """Create the policy.

        Args:
            hints: optional explicit per-object advice, mapping object
                name to ``"read_mostly"`` or ``"none"``.  Objects not
                listed (or all objects, when None) get their advice
                derived from the trace's read/write behaviour.
        """
        super().__init__()
        self._explicit_hints = dict(hints or {})
        #: Resolved advice by object name (after attach).
        self.hints: dict[str, str] = {}

    def _on_attach(self) -> None:
        trace = self.machine.trace
        cls = classify_pages(trace)
        rw_labels = cls.rw_labels()
        for obj in trace.objects:
            advice = self._explicit_hints.get(obj.name)
            if advice is None:
                start = obj.first_page - trace.first_page
                labels = rw_labels[start:start + obj.n_pages]
                touched = labels[labels != "untouched"]
                read_only = len(touched) > 0 and bool(
                    (touched == "read-only").all()
                )
                advice = "read_mostly" if read_only else "none"
            if advice not in ("read_mostly", "none"):
                raise ValueError(f"unknown advice {advice!r} for {obj.name}")
            self.hints[obj.name] = advice
            bits = (
                POLICY_DUPLICATION if advice == "read_mostly"
                else POLICY_ON_TOUCH
            )
            self.page_tables.set_policy_range(obj.first_page, obj.n_pages,
                                              bits)
            if advice == "read_mostly":
                self.stats.add("advise.read_mostly_objects")

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        pt = self.page_tables
        if pt.has_copy(gpu, page):
            return self.driver.map_local(
                gpu, page, writable=not pt.is_duplicated(page)
            )
        if self.page_tables.policy(page) == POLICY_DUPLICATION:
            if is_write:
                # Writing read-mostly-advised data: collapse, as the real
                # driver does when advice turns out wrong.
                self.stats.add("advise.wrong_hint_writes")
                return self.driver.collapse(gpu, page)
            return self.driver.duplicate(gpu, page)
        return self.driver.migrate(gpu, page)

    def on_protection_fault(self, gpu: int, page: int) -> float:
        self.stats.add("advise.wrong_hint_writes")
        return self.driver.collapse(gpu, page)
