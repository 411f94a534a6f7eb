"""Per-GPU residency tracking and LRU eviction (oversubscription).

When the working set exceeds GPU memory, migrating or duplicating a page
into a full GPU first evicts the least-recently-used resident page back to
host memory (Fig. 25 studies OASIS under 150% oversubscription).

:class:`CapacityManager` tracks which pages are resident on each GPU in
recency order.  Python dicts preserve insertion order, so an LRU list is a
dict whose entries are re-inserted on touch; the LRU victim is the first
key.  The fast path's fused loops (:mod:`repro.sim.fastpath`) advance
these dicts in place, repeating :meth:`~CapacityManager.note_access`,
:meth:`~CapacityManager.note_resident` and the victim choice of
:meth:`~CapacityManager.pick_victim`, so a change here must be mirrored
there.
"""

from __future__ import annotations


class CapacityManager:
    """LRU residency lists with fixed per-GPU page capacity."""

    def __init__(self, n_gpus: int, capacity_pages: int | None) -> None:
        """Create a manager.

        Args:
            n_gpus: number of GPUs.
            capacity_pages: per-GPU capacity in pages, or ``None`` for
                unlimited (capacity modelling disabled).
        """
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if capacity_pages is not None and capacity_pages < 1:
            raise ValueError("capacity must be >= 1 page")
        self._capacity = capacity_pages
        self._lru: list[dict[int, None]] = [dict() for _ in range(n_gpus)]

    @property
    def enabled(self) -> bool:
        """True when a finite capacity is being enforced."""
        return self._capacity is not None

    @property
    def capacity_pages(self) -> int | None:
        return self._capacity

    def resident_count(self, gpu: int) -> int:
        """Number of pages currently resident on ``gpu``."""
        return len(self._lru[gpu])

    def is_resident(self, gpu: int, page: int) -> bool:
        return page in self._lru[gpu]

    def resident_pages(self, gpu: int) -> set[int]:
        """The pages currently resident on ``gpu`` (for audits/reports)."""
        return set(self._lru[gpu])

    def note_resident(self, gpu: int, page: int) -> None:
        """Record that ``page`` now occupies a frame on ``gpu`` (MRU)."""
        lru = self._lru[gpu]
        lru.pop(page, None)
        lru[page] = None

    def note_access(self, gpu: int, page: int) -> None:
        """Refresh recency of a resident page; no-op if absent."""
        lru = self._lru[gpu]
        if page in lru:
            del lru[page]
            lru[page] = None

    def note_released(self, gpu: int, page: int) -> None:
        """Record that ``page`` no longer occupies a frame on ``gpu``."""
        self._lru[gpu].pop(page, None)

    def at_capacity(self, gpu: int) -> bool:
        """True if accepting one more page would force an eviction."""
        if self._capacity is None:
            return False
        return len(self._lru[gpu]) >= self._capacity

    def needs_eviction(self, gpu: int) -> bool:
        """True if ``gpu`` is over capacity."""
        if self._capacity is None:
            return False
        return len(self._lru[gpu]) > self._capacity

    def pick_victim(self, gpu: int, protect: int | None = None) -> int:
        """LRU-resident page on ``gpu``, skipping ``protect``.

        Raises:
            LookupError: if no evictable page exists.
        """
        for page in self._lru[gpu]:
            if page != protect:
                return page
        raise LookupError(f"GPU {gpu} has no evictable page")

    def pressure_snapshot(self) -> list[int]:
        """Per-GPU resident-page counts (for metrics gauges)."""
        return [len(lru) for lru in self._lru]

    def reset(self) -> None:
        """Forget all residency (fresh run)."""
        for lru in self._lru:
            lru.clear()
