"""UVM driver primitives.

Every page-management policy in this repo resolves faults through the
primitives below.  Each primitive mutates the page tables, shoots down stale
TLB entries, records link traffic, keeps the capacity manager honest, bumps
the shared :class:`~repro.engine.StatCounters`, and returns the latency the
faulting GPU pays (beyond the fixed fault-service cost, which the machine
charges through the driver's serial queue).

Migrate, collapse, duplicate, evict and ``evict_from`` each make one
whole-page page-table transition (:meth:`PageTables.install_exclusive`,
:meth:`~PageTables.install_duplicate`,
:meth:`~PageTables.release_to_host`, :meth:`~PageTables.release_copy`).
The transition returns the page's prior columns, and the copy source,
shootdown victims and released holders are bit operations on those
masks.  The page size and the PTE update and invalidation latencies are
bound once per driver.

The fast path's fused loops (``FastReplay._run_uniform`` and
``FastReplay._run_bulk_fault`` in :mod:`repro.sim.fastpath`) inline
migrate, collapse, duplicate, ``map_local``, ``map_remote``,
``ideal_copy`` and the capacity evictions (``_maybe_evict``,
``evict_from`` and ``evict``), so a change to one of them must be
mirrored there; ``tests/sim/test_fastpath.py`` compares both paths.

Primitives:

* :meth:`UVMDriver.migrate` — move the page's single authoritative copy to
  a GPU (on-touch resolution, counter-threshold resolution).
* :meth:`UVMDriver.duplicate` — add a read-only copy on a GPU, demoting any
  writable mapping elsewhere.
* :meth:`UVMDriver.collapse` — make a GPU the exclusive writable holder,
  invalidating every duplicate (*page write-collapse*).
* :meth:`UVMDriver.map_remote` — install a PTE pointing at the remote copy
  (counter-based policy's zero-copy resolution).
* :meth:`UVMDriver.map_local` — re-map a GPU's still-resident copy after
  its PTE was invalidated (no data moves).
* :meth:`UVMDriver.evict` — push a page back to host memory (capacity).
"""

from __future__ import annotations

from repro.config import HOST, SystemConfig
from repro.engine import SerialServer, StatCounters
from repro.interconnect import Topology
from repro.memory import AccessCounterFile, CapacityManager, PageTables
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tlb import TLBHierarchy


def _source(owner: int, others: int) -> int:
    """Copy source: the lowest GPU in the ``others`` bitmask, else ``owner``."""
    if others:
        return (others & -others).bit_length() - 1
    return owner


class UVMDriver:
    """The host-side UVM driver: page-management primitives + fault queue.

    Observability: every primitive emits one typed instant event on the
    ``"driver"`` trace track, timestamped at the driver FIFO clock
    (:attr:`SerialServer.free_at` — the last completion time, since the
    primitive's own service is submitted by the machine only after its
    resolution cost is known).  With the default null tracer each hook
    is a single attribute test.
    """

    def __init__(
        self,
        config: SystemConfig,
        page_tables: PageTables,
        topology: Topology,
        tlbs: list[TLBHierarchy],
        capacity: CapacityManager,
        counters: AccessCounterFile,
        stats: StatCounters,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.config = config
        self.page_tables = page_tables
        self.topology = topology
        self.tlbs = tlbs
        self.capacity = capacity
        self.counters = counters
        self.stats = stats
        self.tracer = tracer
        self._page_size = config.page_size
        self._pte_update_ns = config.latency.pte_update_ns
        self._pte_invalidate_ns = config.latency.pte_invalidate_ns
        # Hot primitives (one event per serviced fault) emit through
        # columnar sinks, one attribute test each when tracing is off;
        # cold events (evict) build one instant each.
        if tracer.enabled:
            self._migrate_rows = tracer.sink(
                "driver", "migrate", ("gpu", "page", "src", "copied")
            )
            self._duplicate_rows = tracer.sink(
                "driver", "duplicate", ("gpu", "page", "src")
            )
            self._collapse_rows = tracer.sink(
                "driver", "collapse", ("gpu", "page", "invalidated", "copied")
            )
            self._remote_map_rows = tracer.sink(
                "driver", "remote_map", ("gpu", "page")
            )
            self._local_map_rows = tracer.sink(
                "driver", "local_map", ("gpu", "page")
            )
        else:
            self._migrate_rows = None
            self._duplicate_rows = None
            self._collapse_rows = None
            self._remote_map_rows = None
            self._local_map_rows = None
        #: FIFO model of the driver CPU servicing faults one at a time.
        self.queue = SerialServer()

    # -- helpers -----------------------------------------------------------

    def _shootdown(self, page: int, victims: int) -> float:
        """Invalidate TLB entries on the GPUs in the ``victims`` bitmask.

        Returns the latency: one PTE invalidation per victim, summed in
        ascending GPU order.
        """
        cost = 0.0
        if victims:
            tlbs = self.tlbs
            invalidate_ns = self._pte_invalidate_ns
            n_victims = 0
            while victims:
                low = victims & -victims
                tlbs[low.bit_length() - 1].shootdown(page)
                cost += invalidate_ns
                n_victims += 1
                victims ^= low
            self.stats.add("shootdown.count", n_victims)
        return cost

    def _release(self, page: int, holders: int) -> None:
        """Free ``page``'s frame on every GPU in the ``holders`` bitmask."""
        capacity = self.capacity
        while holders:
            low = holders & -holders
            capacity.note_released(low.bit_length() - 1, page)
            holders ^= low

    def _nearest_source(self, page: int, dst: int) -> int:
        """Pick the device to copy ``page``'s data from.

        Prefers a GPU copy (NVLink is far faster than PCIe) and falls back
        to the owner (possibly the host).
        """
        owner, copies, _mapped, _writable, _bits = self.page_tables.entry(page)
        return _source(owner, copies & ~(1 << dst))

    def _transfer(self, src: int, dst: int) -> float:
        """Move one page of data between devices; returns the latency."""
        n_bytes = self._page_size
        time = self.topology.record_transfer(src, dst, n_bytes)
        if src == HOST or dst == HOST:
            self.stats.add("traffic.pcie_bytes", n_bytes)
        else:
            self.stats.add("traffic.nvlink_bytes", n_bytes)
        return time

    def _maybe_evict(self, gpu: int, protect: int) -> float:
        """Evict LRU pages from ``gpu`` until it fits; returns the latency."""
        capacity = self.capacity
        cost = 0.0
        while capacity.needs_eviction(gpu):
            victim = capacity.pick_victim(gpu, protect=protect)
            cost += self.evict_from(gpu, victim)
        return cost

    # -- primitives ----------------------------------------------------------

    def migrate(self, gpu: int, page: int) -> float:
        """Move the page to ``gpu``'s memory as the exclusive writable copy."""
        owner, copies, mapped, _writable = (
            self.page_tables.install_exclusive(page, gpu)
        )
        bit = 1 << gpu
        others = copies & ~bit
        src = _source(owner, others)
        cost = self._shootdown(page, mapped)
        self._release(page, others)
        already_local = bool(copies & bit)
        if not already_local:
            cost += self._transfer(src, gpu)
        self.capacity.note_resident(gpu, page)
        self.counters.reset_group(page)
        self.stats.add("migration.count")
        self.stats.add("migration.bytes", self._page_size)
        if self._migrate_rows is not None:
            self._migrate_rows.append(
                (self.queue.free_at, gpu, page, src, not already_local)
            )
        cost += self._pte_update_ns
        cost += self._maybe_evict(gpu, protect=page)
        return cost

    def duplicate(self, gpu: int, page: int) -> float:
        """Install a read-only copy of the page on ``gpu``."""
        owner, copies, mapped, writable = (
            self.page_tables.install_duplicate(page, gpu)
        )
        bit = 1 << gpu
        if copies & bit:
            # Already a holder (e.g. owner re-mapping after invalidation):
            # just (re)install a read-only PTE.
            self.stats.add("duplication.remap")
            return self._pte_update_ns
        src = _source(owner, copies)
        cost = self._transfer(src, gpu)
        # Any current writer must be demoted to read-only before copies
        # exist; that writer's stale TLB entry is shot down.
        writers = mapped & writable
        if writers:
            # Demote the old writer to read-only.  The PTE downgrade and
            # its shootdown piggyback on this fault's resolution (the
            # driver is already updating translations for the page), so
            # only the cheap overlapped update cost is charged
            # (Section V-E).
            writer = (writers & -writers).bit_length() - 1
            self.tlbs[writer].shootdown(page)
            self.stats.add("shootdown.count")
            cost += self._pte_update_ns
            self.stats.add("duplication.demotions")
        self.capacity.note_resident(gpu, page)
        self.stats.add("duplication.count")
        self.stats.add("duplication.bytes", self._page_size)
        if self._duplicate_rows is not None:
            self._duplicate_rows.append((self.queue.free_at, gpu, page, src))
        cost += self._pte_update_ns
        cost += self._maybe_evict(gpu, protect=page)
        return cost

    def collapse(self, gpu: int, page: int) -> float:
        """Write-collapse: make ``gpu`` the exclusive writable holder."""
        owner, copies, mapped, _writable = (
            self.page_tables.install_exclusive(page, gpu)
        )
        bit = 1 << gpu
        had_copy = bool(copies & bit)
        others = copies & ~bit
        src = _source(owner, others)
        victims = mapped & ~bit
        n_victims = victims.bit_count()
        cost = self._shootdown(page, victims)
        # Revoking live read duplicates takes the heavyweight
        # protection-fault path (Section II-B3's write-collapse cost).
        # Dropping a single handoff copy costs no more than a migration's
        # invalidation (charged via the shootdown above); every
        # *additional* broadcast copy pays the extra revocation work, so
        # widely-read pages collapse far more expensively.
        cost += self.config.latency.collapse_overhead_ns * max(
            0, others.bit_count() - 1
        )
        self._release(page, others)
        if not had_copy:
            cost += self._transfer(src, gpu)
        self.capacity.note_resident(gpu, page)
        self.stats.add("collapse.count")
        self.stats.add("collapse.invalidated_copies", n_victims)
        if self._collapse_rows is not None:
            self._collapse_rows.append(
                (self.queue.free_at, gpu, page, n_victims, not had_copy)
            )
        cost += self._pte_update_ns
        cost += self._maybe_evict(gpu, protect=page)
        return cost

    def map_remote(self, gpu: int, page: int) -> float:
        """Map the page into ``gpu``'s page table pointing at remote memory."""
        self.page_tables.map_remote(gpu, page)
        self.stats.add("remote_map.count")
        if self._remote_map_rows is not None:
            self._remote_map_rows.append((self.queue.free_at, gpu, page))
        return self._pte_update_ns

    def map_local(self, gpu: int, page: int, writable: bool) -> float:
        """Re-map ``gpu``'s resident copy of the page; no data moves.

        The resolution of a fault on a page whose copy survived the loss
        of its PTE (a counter migration elsewhere in the group, or an
        ``evict_from`` that handed ownership to this holder).
        """
        self.page_tables.map_local(gpu, page, writable)
        self.stats.add("local_map.count")
        if self._local_map_rows is not None:
            self._local_map_rows.append((self.queue.free_at, gpu, page))
        return self._pte_update_ns

    def ideal_copy(self, gpu: int, page: int) -> float:
        """Ideal-policy resolution: local copy, writable, no coherence.

        Only valid on machines built with incoherent page tables (the
        hypothetical Ideal configuration of Section IV-A).
        """
        pt = self.page_tables
        cost = 0.0
        if not pt.has_copy(gpu, page):
            src = self._nearest_source(page, gpu)
            cost += self._transfer(src, gpu)
            pt.add_copy(gpu, page)
            self.capacity.note_resident(gpu, page)
            self.stats.add("duplication.count")
            if self._duplicate_rows is not None:
                self._duplicate_rows.append(
                    (self.queue.free_at, gpu, page, src)
                )
        pt.map_local(gpu, page, writable=True)
        cost += self._pte_update_ns
        cost += self._maybe_evict(gpu, protect=page)
        return cost

    def evict_from(self, gpu: int, page: int) -> float:
        """Free ``page``'s frame on ``gpu`` under capacity pressure.

        If the data also lives on another GPU (a read duplicate, or the
        owner role can pass to another copy holder), only this GPU's copy
        is dropped — no data movement
        (:meth:`~PageTables.release_copy`).  Only a sole GPU holder pays
        the full writeback to host memory.
        """
        prior = self.page_tables.release_copy(page, gpu)
        if prior is None:
            return self.evict(page)
        bit = 1 << gpu
        cost = 0.0
        if prior[2] & bit:
            cost += self._shootdown(page, bit)
        self.capacity.note_released(gpu, page)
        self.stats.add("eviction.copy_dropped")
        if self.tracer.enabled:
            self.tracer.instant(
                "driver", "evict", self.queue.free_at,
                {"gpu": gpu, "page": page, "copy_dropped": True},
            )
        return cost + self._pte_update_ns

    def evict(self, page: int) -> float:
        """Evict the page to host memory (oversubscription pressure).

        The PTE policy bits survive eviction — OASIS uses them to keep
        treating a re-referenced evicted page as shared (Section VI-D).
        """
        owner, copies, mapped, _writable = (
            self.page_tables.release_to_host(page)
        )
        cost = self._shootdown(page, mapped)
        self._release(page, copies)
        if owner != HOST:
            cost += self._transfer(owner, HOST)
        self.stats.add("eviction.count")
        if self.tracer.enabled:
            self.tracer.instant(
                "driver", "evict", self.queue.free_at,
                {"page": page, "owner": owner, "copy_dropped": False},
            )
        return cost
