"""GRIT: fine-grained dynamic page placement (HPCA 2024 comparator).

Reconstructed from the OASIS paper's description (Sections I and VI-C).
GRIT learns the management policy **per page** with three components:

* **Fault-Aware Initiator** — a page's policy is reconsidered only after
  it has suffered a number of faults (four, per Section VI-C: "GRIT
  requires four faults to trigger a policy change for a single page");
* **Policy Decision Selection** — the new policy is chosen from the
  page's observed read/write sharing history (write-shared → access
  counter, read-shared → duplication);
* **Neighboring-Aware Prediction** — when a page's policy changes, the
  same policy is proactively applied to a window of neighbouring pages
  (spatial locality), saving their learning faults but risking
  mispredictions across object boundaries.

Costs reproduced from the paper's comparison: 48 bits of per-page
in-memory metadata, cached in a 352-byte on-chip PA-Cache — fault handling
pays a memory access whenever the PA-Cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import HOST
from repro.memory import POLICY_COUNTER, POLICY_DUPLICATION, POLICY_ON_TOUCH
from repro.memory.page_table import duplicated
from repro.policies.base import CounterMigrationMixin, PolicyEngine

#: Faults on one page before its policy is re-decided (Section VI-C).
FAULTS_PER_DECISION = 4

#: Pages ahead of a decided page that inherit its policy prediction.
NEIGHBOR_WINDOW = 8

#: Per-page metadata size GRIT stores in memory (Section VI-C).
METADATA_BITS_PER_PAGE = 48

#: On-chip PA-Cache size (Section VI-C: 352 bytes).
PA_CACHE_BYTES = 352

#: PA-Cache entries: 352 B / 48-bit records, rounded down.
PA_CACHE_ENTRIES = PA_CACHE_BYTES * 8 // METADATA_BITS_PER_PAGE


@dataclass
class PageMeta:
    """GRIT's 48-bit per-page attribute record (unpacked)."""

    fault_count: int = 0
    read_seen: bool = False
    write_seen: bool = False
    sharer_mask: int = 0

    def observe(self, gpu: int, is_write: bool) -> None:
        self.fault_count += 1
        if is_write:
            self.write_seen = True
        else:
            self.read_seen = True
        self.sharer_mask |= 1 << gpu

    def reset_window(self) -> None:
        """Start a fresh observation window after a decision."""
        self.fault_count = 0
        self.read_seen = False
        self.write_seen = False
        self.sharer_mask = 0


class PACache:
    """Fully-associative LRU cache of per-page metadata records."""

    def __init__(self, entries: int = PA_CACHE_ENTRIES) -> None:
        if entries < 1:
            raise ValueError("PA-Cache needs at least one entry")
        self._entries = entries
        self._lines: dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._entries

    def access(self, page: int) -> bool:
        """Touch ``page``'s record; True on hit, False on miss (fill)."""
        lines = self._lines
        if page in lines:
            del lines[page]
            lines[page] = None
            self.hits += 1
            return True
        if len(lines) >= self._entries:
            del lines[next(iter(lines))]
        lines[page] = None
        self.misses += 1
        return False


class GritPolicy(CounterMigrationMixin, PolicyEngine):
    """Per-page learned policy with neighbour prediction.

    The fast path's uniform lane (``FastReplay._run_uniform`` in
    :mod:`repro.sim.fastpath`) replays this policy's fault handling
    (:meth:`on_fault`, :meth:`_maybe_decide` and :meth:`_resolve`)
    inline, so a change here must be mirrored there;
    ``tests/sim/test_fastpath.py`` compares both paths.
    """

    name = "grit"

    def __init__(
        self,
        faults_per_decision: int = FAULTS_PER_DECISION,
        neighbor_window: int = NEIGHBOR_WINDOW,
    ) -> None:
        super().__init__()
        if faults_per_decision < 1:
            raise ValueError("faults_per_decision must be >= 1")
        if neighbor_window < 0:
            raise ValueError("neighbor_window must be >= 0")
        self.faults_per_decision = faults_per_decision
        self.neighbor_window = neighbor_window
        self.pa_cache = PACache()
        self._meta: dict[int, PageMeta] = {}
        self.predictions = 0

    def _on_attach(self) -> None:
        self.machine.set_all_policy_bits(POLICY_ON_TOUCH)

    # -- metadata ------------------------------------------------------------

    def meta_for(self, page: int) -> PageMeta:
        meta = self._meta.get(page)
        if meta is None:
            meta = PageMeta()
            self._meta[page] = meta
        return meta

    @property
    def metadata_bytes(self) -> int:
        """In-memory metadata footprint (48 bits x touched pages)."""
        return len(self._meta) * METADATA_BITS_PER_PAGE // 8

    def _metadata_access_cost(self, page: int) -> float:
        if self.pa_cache.access(page):
            return 0.0
        self.stats.add("grit.pa_cache_miss")
        return self.config.latency.metadata_memory_ns

    # -- fault handling ----------------------------------------------------------

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        pt = self.page_tables
        cost = self._metadata_access_cost(page)
        owner, copies, _mapped, _writable, bits = pt.entry(page)
        if copies >> gpu & 1:
            return cost + self.driver.map_local(
                gpu, page, writable=not duplicated(owner, copies)
            )
        if owner == HOST and bits == POLICY_ON_TOUCH:
            # First touch: default on-touch, no learning needed.
            return cost + self.driver.migrate(gpu, page)
        meta = self.meta_for(page)
        meta.observe(gpu, is_write)
        self._maybe_decide(page, meta)
        # A decision rewrites only policy bits: owner and copies stand.
        return cost + self._resolve(gpu, page, is_write, owner, copies)

    def on_protection_fault(self, gpu: int, page: int) -> float:
        cost = self._metadata_access_cost(page)
        meta = self.meta_for(page)
        meta.observe(gpu, is_write=True)
        self._maybe_decide(page, meta)
        # Regardless of any policy change, the write itself must collapse
        # the duplicated page.
        return cost + self.driver.collapse(gpu, page)

    # -- decision logic --------------------------------------------------------------

    def _maybe_decide(self, page: int, meta: PageMeta) -> None:
        """Fault-Aware Initiator: re-decide after enough faults."""
        if meta.fault_count < self.faults_per_decision:
            return
        new_bits = self._decide(meta)
        meta.reset_window()
        pt = self.page_tables
        if pt.policy(page) != new_bits:
            pt.set_policy(page, new_bits)
            self.stats.add("grit.policy_changes")
            self._predict_neighbors(page, new_bits)

    def _decide(self, meta: PageMeta) -> int:
        """Policy Decision Selection from the observed window."""
        if meta.write_seen:
            return POLICY_COUNTER
        return POLICY_DUPLICATION

    def _predict_neighbors(self, page: int, bits: int) -> None:
        """Neighboring-Aware Prediction: stamp the next pages' PTEs."""
        pt = self.page_tables
        machine = self.machine
        for offset in range(1, self.neighbor_window + 1):
            neighbor = page + offset
            if not machine.tracks_page(neighbor):
                break
            if pt.policy(neighbor) != bits:
                pt.set_policy(neighbor, bits)
                self.predictions += 1
                self.stats.add("grit.neighbor_predictions")

    # -- resolution -------------------------------------------------------------------

    def _resolve(self, gpu: int, page: int, is_write: bool, owner: int,
                 copies: int) -> float:
        bits = self.page_tables.policy(page)
        if bits == POLICY_COUNTER:
            if duplicated(owner, copies):
                return self.driver.collapse(gpu, page)
            return self.driver.map_remote(gpu, page)
        if bits == POLICY_DUPLICATION:
            if is_write:
                return self.driver.collapse(gpu, page)
            return self.driver.duplicate(gpu, page)
        return self.driver.migrate(gpu, page)
