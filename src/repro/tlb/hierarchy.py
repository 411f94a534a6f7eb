"""Two-level TLB hierarchy for one GPU."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import LatencyModel, TLBConfig
from repro.tlb.tlb import SetAssociativeTLB


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of a translation attempt.

    Attributes:
        level: ``"l1"``, ``"l2"`` or ``"walk"`` — where the translation was
            found (``"walk"`` means both TLBs missed and the GMMU walked the
            local page table).
        cost_ns: lookup latency accumulated on the way.
    """

    level: str
    cost_ns: float

    @property
    def l2_miss(self) -> bool:
        """True when the request reached the GMMU page-table walker."""
        return self.level == "walk"


class TLBHierarchy:
    """Per-GPU L1 + L2 TLB with inclusive fills and shootdowns."""

    def __init__(
        self,
        l1_config: TLBConfig,
        l2_config: TLBConfig,
        latency: LatencyModel,
    ) -> None:
        self.l1 = SetAssociativeTLB(l1_config)
        self.l2 = SetAssociativeTLB(l2_config)
        self._latency = latency
        self._l1_cost = latency.l1_tlb_hit_ns
        self._l2_cost = latency.l1_tlb_hit_ns + latency.l2_tlb_ns
        self._walk_cost = self._l2_cost + latency.walk_ns

    def translate(self, page: int) -> TranslationResult:
        """Look up ``page``; on misses, walk and fill both levels.

        The caller is responsible for only translating pages whose PTE is
        valid — a faulting access never installs a TLB entry.
        """
        if self.l1.lookup(page):
            return TranslationResult("l1", self._l1_cost)
        if self.l2.lookup(page):
            self.l1.fill(page)
            return TranslationResult("l2", self._l2_cost)
        self.l2.fill(page)
        self.l1.fill(page)
        return TranslationResult("walk", self._walk_cost)

    def translate_fast(self, page: int) -> tuple[float, bool]:
        """Hot-path translation: ``(cost_ns, l2_missed)``.

        State-identical to :meth:`translate`, which stays the reference
        — same LRU order in both levels, same hit/miss/lookup counts —
        but with the lookups and fills inlined and without the result
        object.  The fast path's fused loops inline the same steps on
        the LRU dicts and add the hit/miss counts after the loop.
        """
        l1 = self.l1
        e1 = l1._sets[page % l1._n_sets]
        l1.lookups += 1
        if page in e1:
            del e1[page]
            e1[page] = None
            l1.hits += 1
            return self._l1_cost, False
        l1.misses += 1
        l2 = self.l2
        e2 = l2._sets[page % l2._n_sets]
        l2.lookups += 1
        if page in e2:
            del e2[page]
            e2[page] = None
            l2.hits += 1
            if len(e1) >= l1._ways:
                del e1[next(iter(e1))]
            e1[page] = None
            return self._l2_cost, False
        l2.misses += 1
        if len(e2) >= l2._ways:
            del e2[next(iter(e2))]
        e2[page] = None
        if len(e1) >= l1._ways:
            del e1[next(iter(e1))]
        e1[page] = None
        return self._walk_cost, True

    def shootdown(self, page: int) -> bool:
        """Invalidate ``page`` in both levels; True if either level held it."""
        in_l1 = self.l1.invalidate(page)
        in_l2 = self.l2.invalidate(page)
        return in_l1 or in_l2

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()

    def cached_pages(self) -> set[int]:
        """Pages with a valid entry in either level (for audits)."""
        return self.l1.cached_pages() | self.l2.cached_pages()

    @property
    def l2_misses(self) -> int:
        """Number of requests that required a page-table walk."""
        return self.l2.misses
