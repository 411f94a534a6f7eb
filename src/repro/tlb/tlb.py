"""Set-associative LRU TLB."""

from __future__ import annotations

from repro.config import TLBConfig


class SetAssociativeTLB:
    """One TLB level: set-associative, LRU replacement.

    Entries are keyed by virtual page number.  Each set is an
    insertion-ordered dict; re-inserting on hit keeps the first key the LRU
    victim.
    """

    #: Class-level default so instances restored from pre-``lookups``
    #: snapshots still resolve the attribute (to a zero baseline).
    lookups = 0

    def __init__(self, config: TLBConfig) -> None:
        self._config = config
        # Geometry cached as plain ints: these sit on the simulator's
        # hottest path, and dataclass property access is measurably slow.
        self._n_sets = config.sets
        self._ways = config.ways
        self._sets: list[dict[int, None]] = [dict() for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0
        self.lookups = 0
        self.invalidations = 0

    @property
    def config(self) -> TLBConfig:
        return self._config

    def _set_of(self, page: int) -> dict[int, None]:
        return self._sets[page % self._n_sets]

    def lookup(self, page: int) -> bool:
        """Probe for ``page``; updates LRU order and hit/miss stats."""
        self.lookups += 1
        entries = self._sets[page % self._n_sets]
        if page in entries:
            del entries[page]
            entries[page] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, page: int) -> int | None:
        """Insert a translation; returns the evicted page, if any."""
        entries = self._sets[page % self._n_sets]
        victim = None
        if page in entries:
            del entries[page]
        elif len(entries) >= self._ways:
            victim = next(iter(entries))
            del entries[victim]
        entries[page] = None
        return victim

    def invalidate(self, page: int) -> bool:
        """Shoot down one translation; returns True if it was present."""
        entries = self._sets[page % self._n_sets]
        if page in entries:
            del entries[page]
            self.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Drop every translation (full shootdown)."""
        for entries in self._sets:
            entries.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return sum(len(s) for s in self._sets)

    def contains(self, page: int) -> bool:
        """Non-mutating presence probe (no LRU or stat updates)."""
        return page in self._set_of(page)

    def cached_pages(self) -> set[int]:
        """Every page with a valid entry (for invariant audits)."""
        pages: set[int] = set()
        for entries in self._sets:
            pages.update(entries)
        return pages
