"""Whole-chunk replay — the simulator's fast path.

:class:`FastReplay` replays a phase's record arrays chunk by chunk, and
every observable — clocks, stats, traffic, TLB hit/miss counts, counter
state, the policy's own decision state — stays **bit-identical** to a
pure per-record replay (``REPRO_FORCE_SLOW_PATH=1`` disables the fast
path for A/B checks).  Every chunk is one run of a fused scalar loop
that replays every record and never falls back to the per-record path.
There are two loops.

Under access-counter, duplication, GRIT, OASIS (OASIS-InMem and the
OASIS ablation flags included), Ideal and static-advise the loop is
:meth:`FastReplay._run_uniform`.  It replays local and remote accesses,
page and protection faults, counter trips and the group migrations they
trigger.  It keeps the touched page-table entries (policy bits
included) and counters in local dicts, seeded from the live tables and
written back once at the end.  A fault calls the policy's own decision
state in record order (GRIT's PA-Cache and per-page learning, OASIS'
O-Table controller and metadata lookup) and applies the resolution with
the driver arithmetic inlined.

Plain on-touch keeps a leaner loop of its own
(:meth:`FastReplay._run_bulk_fault`).  With coherent tables migration is
its only resolution, so every page is virgin or held by one GPU, and
each fault resolves with one of four fixed driver service times, plus
the write-backs of the pages an oversubscribed GPU evicts.

In both loops the sequential state — TLB LRU dicts, the driver FIFO,
per-GPU clocks, residency LRU order — advances in place; stats and link
traffic are summed and applied after the loop.  The results are exact,
not merely close: the loops repeat the float operations of
``Machine.access``, ``Machine._fault``, the policy and the driver
primitives in their order, and stat counters and traffic bytes are
integer-valued and far below 2**53, so summing them in bulk is exact
under any grouping.

Oversubscribed runs (the capacity manager on, Fig. 25) replay in the
same loops.  Each record first refreshes its GPU's LRU entry, as
``CapacityManager.note_access`` does, and each install that overfills a
GPU evicts its LRU pages as ``UVMDriver._maybe_evict`` and ``evict_from``
do, adding their cost to the fault's resolution.  A run replays per
record only when ``REPRO_FORCE_SLOW_PATH`` is set or when its policy has
no loop — a subclass that overrides a handler, for example.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.config import HOST
from repro.core.oasis import OasisPolicy
from repro.memory.page import (
    POLICY_COUNTER,
    POLICY_DUPLICATION,
    POLICY_ON_TOUCH,
    policy_name,
)
from repro.memory.page_table import duplicated
from repro.policies.access_counter import AccessCounterPolicy
from repro.policies.duplication import DuplicationPolicy
from repro.policies.grit import GritPolicy
from repro.policies.ideal import IdealPolicy
from repro.policies.on_touch import OnTouchPolicy
from repro.policies.static_advise import StaticAdvisePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.workloads.base import PhaseTrace

#: Records per fused-loop run; its entries and counters are written back
#: per chunk.
CHUNK = 4096

#: The fused loop's mode for each policy class it replays, matched on
#: the exact class: a subclass may override a handler.
_MODES = {
    OnTouchPolicy: "on_touch",
    AccessCounterPolicy: "counter",
    DuplicationPolicy: "dup",
    GritPolicy: "grit",
    IdealPolicy: "ideal",
    StaticAdvisePolicy: "advise",
}

#: The fault handlers the loop replays for an OASIS policy; a subclass
#: that overrides any of them replays per record.
_OASIS_HANDLERS = (
    "on_fault", "on_protection_fault", "_shared_fault", "_resolve_counter",
    "on_remote_access",
)


def force_slow_path() -> bool:
    """True when ``REPRO_FORCE_SLOW_PATH`` requests per-record replay."""
    return os.environ.get("REPRO_FORCE_SLOW_PATH", "").strip() not in ("", "0")


def _mode_of(policy) -> str | None:
    """The fused loop's mode for ``policy``, or None if it has no loop."""
    kind = type(policy)
    mode = _MODES.get(kind)
    if mode is None and isinstance(policy, OasisPolicy) and all(
        getattr(kind, name) is getattr(OasisPolicy, name)
        for name in _OASIS_HANDLERS
    ):
        mode = "oasis"
    return mode


class PhaseArrays:
    """Replay arrays that depend only on one phase's records.

    They are pure functions of the records and the ``(first_page,
    n_gpus, pages_per_group)`` geometry, so a sweep replaying the same
    trace under many policies computes them once and shares them through
    a cache slot on the phase itself; every array is read-only.
    """

    def __init__(
        self, phase: "PhaseTrace", first_page: int, n_gpus: int, ppg: int
    ) -> None:
        self.gpu = phase.gpu.astype(np.int64)
        self.is_w = phase.write != 0
        # Each record's access-counter key; built for every policy, so
        # all of a sweep's runs share one cache entry.
        self.key = (phase.page // ppg) * n_gpus + self.gpu


class FastReplay:
    """Chunked fused-loop replayer bound to one :class:`Machine`."""

    def __init__(self, machine: "Machine", mode: str) -> None:
        self.machine = machine
        self._mode = mode
        config = machine.config
        lat = config.latency
        self._first_page = machine.trace.first_page
        self._n_gpus = config.n_gpus
        self._compute_ns = lat.compute_ns_per_access
        self._local_ns = lat.local_access_ns
        self._remote_ns = lat.remote_access_ns
        self._host_ns = lat.host_access_ns
        self._mem_par = lat.mem_parallelism
        self._remote_par = lat.remote_parallelism
        self._ppg = config.pages_per_counter_group
        self._page_size = config.page_size
        self._obj_arr = np.array(machine._obj_of_page, dtype=np.int64)
        # One page over PCIe (all host links are identical) and over
        # NVLink (all GPU pairs are identical).
        self._pcie_ns = machine.topology.link(HOST, 0).transfer_time_ns(
            config.page_size
        )
        if config.n_gpus >= 2:
            nvlink_ns = machine.topology.link(0, 1).transfer_time_ns(
                config.page_size
            )
        else:
            nvlink_ns = 0.0  # unreachable: no second GPU to copy from
        self._nvlink_ns = nvlink_ns
        self._pte_update_ns = lat.pte_update_ns
        self._pte_invalidate_ns = lat.pte_invalidate_ns
        self._collapse_overhead_ns = lat.collapse_overhead_ns
        self._occ_ns = lat.fault_driver_occupancy_ns
        self._fault_service_ns = lat.fault_service_ns
        self._fault_par = lat.fault_parallelism
        # The resolution of each on-touch migration before any eviction:
        # a virgin first touch pulls the page over PCIe (the empty
        # shootdown adds exactly 0.0), a bounce shoots down the holder's
        # PTE and pulls over NVLink, a pull from an unmapped holder only
        # pulls, and a holder re-mapping its own page only updates the
        # PTE.
        self._resolve_virgin = self._pcie_ns + lat.pte_update_ns
        self._resolve_bounce = (
            (lat.pte_invalidate_ns + nvlink_ns) + lat.pte_update_ns
        )
        self._resolve_pull = nvlink_ns + lat.pte_update_ns
        # Per-phase record arrays (set by run_phase).
        self._gpu: np.ndarray | None = None
        self._page: np.ndarray | None = None
        self._is_w: np.ndarray | None = None
        self._weight: np.ndarray | None = None
        self._key: np.ndarray | None = None

    @classmethod
    def for_machine(cls, machine: "Machine") -> "FastReplay | None":
        """A replayer for ``machine``, or None when it must run slow.

        Every registry policy has a loop, with or without the capacity
        manager; a policy with no fused loop and anything under
        ``REPRO_FORCE_SLOW_PATH=1`` take the per-record path.
        """
        if force_slow_path():
            return None
        mode = _mode_of(machine.policy)
        return None if mode is None else cls(machine, mode)

    # -- phase driver ------------------------------------------------------

    def run_phase(self, phase: "PhaseTrace") -> None:
        """Replay one phase, bit-identical to the per-record loop."""
        n = len(phase.gpu)
        soa_key = (self._first_page, self._n_gpus, self._ppg)
        cached = getattr(phase, "_soa", None)
        if cached is not None and cached[0] == soa_key:
            arrays = cached[1]
        else:
            arrays = PhaseArrays(phase, *soa_key)
            phase._soa = (soa_key, arrays)
        self._gpu = arrays.gpu
        self._is_w = arrays.is_w
        self._key = arrays.key
        self._page = phase.page
        self._weight = phase.weight
        for start in range(0, n, CHUNK):
            self._run_bulk_fault(start, min(start + CHUNK, n))

    # -- fused loops -------------------------------------------------------

    def _run_bulk_fault(self, i: int, j: int) -> None:
        """Replay records ``[i, j)`` in one fused loop.

        Every policy but plain on-touch replays in :meth:`_run_uniform`.
        Plain on-touch, with coherent tables, resolves every fault with a
        migration, so each page is virgin (host owner, no copy) or held
        by one GPU, which maps it writable or leaves it unmapped.  Each
        record is then one of: a local access by the holder, a virgin
        first touch (host->GPU pull over PCIe), a cross-GPU bounce
        (holder PTE shootdown + NVLink pull), an NVLink pull from an
        unmapped holder, or the holder re-mapping its own page — each
        fault with a fixed driver service time.

        Under the capacity manager each record first refreshes its GPU's
        LRU entry, and a migration that overfills the GPU evicts its LRU
        pages.  A victim is always the GPU's only copy and always mapped
        (a page enters the LRU only through an install that maps it and
        leaves on a bounce or an eviction): the loop shoots down its TLB
        entry, writes it back over PCIe and makes the host its holder, so
        a later record on it takes the virgin path.  The write-backs add
        to the fault's resolution before the driver occupancy, as
        ``UVMDriver._maybe_evict`` does.

        On a page's first record the loop reads its owner and mapped
        bits from the live page-table columns, then tracks its holder as
        the run migrates and evicts it.  Nothing is written back until
        the loop ends: the installs and releases go in one batch
        (:meth:`PageTables.store_entries`), and stats, faults and link
        bytes are summed.  On-touch counts no remote access, so the
        counter file stays empty and a migration's group reset has
        nothing to clear.  The arithmetic mirrors ``Machine.access`` +
        ``Machine._fault`` + ``UVMDriver.migrate`` operation for
        operation.
        """
        if self._mode != "on_touch":
            self._run_uniform(i, j)
            return
        machine = self.machine
        pt = machine.page_tables
        owner_col = pt._owner
        mapped_col = pt._mapped_mask
        policy_col = pt._policy
        first_page = self._first_page
        gpu_l = self._gpu[i:j].tolist()
        page_l = self._page[i:j].tolist()
        weight_l = self._weight[i:j].tolist()

        compute_ns = self._compute_ns
        local_ns = self._local_ns
        mem_par = self._mem_par
        occ_ns = self._occ_ns
        fault_service = self._fault_service_ns
        fault_par = self._fault_par
        resolve_virgin = self._resolve_virgin
        resolve_bounce = self._resolve_bounce
        resolve_pull = self._resolve_pull
        resolve_remap = self._pte_update_ns
        # An eviction's cost: the victim's shootdown, then its write-back.
        evict_ns = self._pte_invalidate_ns + self._pcie_ns
        n_gpus = self._n_gpus
        tlb0 = machine.tlbs[0]
        l1_cost = tlb0._l1_cost
        l2_cost = tlb0._l2_cost
        walk_cost = tlb0._walk_cost
        tlb_refs = [
            (t.l1._sets, t.l1._n_sets, t.l1._ways,
             t.l2._sets, t.l2._n_sets, t.l2._ways)
            for t in machine.tlbs
        ]
        l1_hits = [0] * n_gpus
        l1_misses = [0] * n_gpus
        l2_hits = [0] * n_gpus
        l2_misses = [0] * n_gpus
        inval_l1 = [0] * n_gpus
        inval_l2 = [0] * n_gpus
        fault_counts = [0] * n_gpus
        pcie_counts = [0] * n_gpus
        #: Pages each GPU wrote back to the host.
        evict_counts = [0] * n_gpus
        nv_pairs: dict[tuple[int, int], int] = {}
        clocks = machine.clocks
        queue = machine.driver.queue
        free_at = queue.free_at
        busy = queue.busy_time
        # Residency lists are maintained even with capacity modelling
        # disabled (note_resident is unconditional in the driver).
        lrus = machine.capacity._lru
        cap = machine.capacity.capacity_pages
        capped = cap is not None
        walk_hist: dict[int, int] = {}
        local_extra = 0
        shoot_total = 0
        #: page -> current holder, once the run has touched the page.
        holder: dict[int, int] = {}
        #: page -> final holder (HOST once evicted), for pages this run
        #: migrated or evicted.
        install: dict[int, int] = {}
        fault_pages: list[int] = []

        for g, page, w in zip(gpu_l, page_l, weight_l):
            if capped:
                # CapacityManager.note_access: refresh a resident page.
                lru = lrus[g]
                if page in lru:
                    del lru[page]
                    lru[page] = None
            o = holder.get(page, -2)
            if o == -2:
                idx = page - first_page
                o = owner_col[idx]
                m0 = mapped_col[idx] != 0
            else:
                m0 = True
            # Translation attempt: on a fault the walk happens before
            # the fault is detected, so both levels fill either way and
            # the post-fault retry below is a guaranteed L1 hit.
            l1_sets, l1_n, l1_w, l2_sets, l2_n, l2_w = tlb_refs[g]
            e1 = l1_sets[page % l1_n]
            if page in e1:
                del e1[page]
                e1[page] = None
                l1_hits[g] += 1
                cost = l1_cost
            else:
                l1_misses[g] += 1
                e2 = l2_sets[page % l2_n]
                if page in e2:
                    del e2[page]
                    e2[page] = None
                    l2_hits[g] += 1
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = l2_cost
                else:
                    l2_misses[g] += 1
                    if len(e2) >= l2_w:
                        del e2[next(iter(e2))]
                    e2[page] = None
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = walk_cost
                    bits = policy_col[page - first_page]
                    walk_hist[bits] = walk_hist.get(bits, 0) + 1
            if o == g and m0:
                # Local access by the current holder.
                clocks[g] = (
                    clocks[g]
                    + w * compute_ns
                    + (cost + local_ns * w) / mem_par
                )
                local_extra += w
                holder[page] = g
                continue
            # Fault path.
            c = clocks[g] + w * compute_ns + cost / mem_par
            if o == HOST:
                resolution = resolve_virgin
                pcie_counts[g] += 1
            elif o == g:
                # Holder faulting on its own unmapped page: remap only.
                resolution = resolve_remap
            else:
                # Cross-GPU migration of an exclusively-held page.
                lrus[o].pop(page, None)  # note_released(o, page)
                if m0:
                    v1_sets, v1_n, _w1, v2_sets, v2_n, _w2 = tlb_refs[o]
                    ev = v1_sets[page % v1_n]
                    if page in ev:
                        del ev[page]
                        inval_l1[o] += 1
                    ev = v2_sets[page % v2_n]
                    if page in ev:
                        del ev[page]
                        inval_l2[o] += 1
                    shoot_total += 1
                    resolution = resolve_bounce
                else:
                    resolution = resolve_pull
                pair = (o, g) if o < g else (g, o)
                nv_pairs[pair] = nv_pairs.get(pair, 0) + 1
            fault_counts[g] += 1
            fault_pages.append(page)
            holder[page] = g
            install[page] = g
            lru = lrus[g]
            lru.pop(page, None)
            lru[page] = None
            if capped and len(lru) > cap:
                # UVMDriver._maybe_evict: the page is now the MRU entry,
                # so the LRU head is never the protected page.
                evictions = 0.0
                while len(lru) > cap:
                    victim = next(iter(lru))
                    del lru[victim]
                    ev = l1_sets[victim % l1_n]
                    if victim in ev:
                        del ev[victim]
                        inval_l1[g] += 1
                    ev = l2_sets[victim % l2_n]
                    if victim in ev:
                        del ev[victim]
                        inval_l2[g] += 1
                    shoot_total += 1
                    evictions += evict_ns
                    evict_counts[g] += 1
                    holder[victim] = HOST
                    install[victim] = HOST
                resolution += evictions
            service = occ_ns + resolution
            start = free_at if free_at > c else c
            done = start + service
            busy += service
            free_at = done
            c = c + ((done - c) + fault_service) / fault_par
            if w > 1:
                # Remaining accesses retry the translation (L1 hit) and
                # proceed as local accesses with the fresh mapping.
                c = c + (l1_cost + local_ns * (w - 1)) / mem_par
                l1_hits[g] += 1
                local_extra += w - 1
            clocks[g] = c

        n_faults = len(fault_pages)
        queue.advance_to(free_at, busy, n_faults)
        self._apply_tlb_counts(
            l1_hits, l1_misses, l2_hits, l2_misses, inval_l1, inval_l2,
            walk_hist,
        )
        stats = machine.stats
        page_size = self._page_size
        topology = machine.topology
        if n_faults:
            self._count_faults(
                fault_counts,
                np.array(fault_pages, dtype=np.int64) - first_page,
            )
            stats.add("fault.page", n_faults)
            stats.add("migration.count", n_faults)
            stats.add("migration.bytes", n_faults * page_size)
            entries = {}
            for page, h in install.items():
                bit = 0 if h == HOST else 1 << h
                entries[page] = [
                    h, bit, bit, bit, policy_col[page - first_page]
                ]
            pt.store_entries(entries)
            if shoot_total:
                stats.add("shootdown.count", shoot_total)
            n_evict = sum(evict_counts)
            if n_evict:
                stats.add("eviction.count", n_evict)
            n_pcie = sum(pcie_counts) + n_evict
            if n_pcie:
                stats.add("traffic.pcie_bytes", n_pcie * page_size)
                for g in range(n_gpus):
                    count = pcie_counts[g] + evict_counts[g]
                    if count:
                        topology.record_transfer_bulk(
                            HOST, g, count * page_size, count
                        )
            if nv_pairs:
                n_nv = sum(nv_pairs.values())
                stats.add("traffic.nvlink_bytes", n_nv * page_size)
                for (a, b), count in nv_pairs.items():
                    topology.record_transfer_bulk(
                        a, b, count * page_size, count
                    )
        if local_extra:
            stats.add("access.local", local_extra)

    def _run_uniform(self, i: int, j: int) -> None:
        """Replay records ``[i, j)`` of any policy but plain on-touch.

        One fused loop replays every record of access-counter,
        duplication, GRIT, OASIS, Ideal and static-advise: local and
        remote accesses, page and protection faults, counter trips and
        the group migrations they trigger.  Each touched page's
        ``[owner, copies, mapped, writable, policy bits]`` and each
        touched counter live in local dicts, seeded from the tables on
        first touch and written back once at the end
        (:meth:`PageTables.store_entries`,
        :meth:`AccessCounterFile.store_counts`).

        A fault is resolved as the policy's handler does it, in record
        order: the closures below repeat the handler's branches and the
        float operations of the driver primitives it calls, and call the
        policy's own decision state — GRIT's PA-Cache and per-page
        learning, OASIS' O-Table controller and metadata lookup — where
        the handler does.  After a page fault the record's remaining
        accesses re-test the new entry, as ``Machine.access`` does: GRIT,
        OASIS and static-advise re-map a duplicated copy read-only, so a
        write can fault again on protection.  The TLB, residency-LRU and
        FIFO recurrences advance in place; stats and link traffic are
        summed and applied after the loop, creating exactly the keys the
        per-record path would.  A state the policy cannot reach (a
        protection fault under access-counter or Ideal, a remote mapping
        under any policy that counts no remote access) is handed to the
        policy, which raises as it does on the per-record path.

        Under the capacity manager each record first refreshes its GPU's
        LRU entry (``CapacityManager.note_access``).  Migrate, collapse,
        duplicate and the Ideal copy end as the driver's do, evicting
        the GPU's LRU pages while it is over capacity: a page another GPU
        also holds loses only this GPU's copy, and a sole copy is written
        back to the host (``UVMDriver.evict_from``).  OASIS' capacity
        guard maps a read of a shared page remotely when the GPU is full
        and holds no copy.
        """
        from repro.sim.machine import REMOTE_ACCESS_BYTES

        machine = self.machine
        policy = machine.policy
        pt = machine.page_tables
        entry = pt.entry
        mode = self._mode
        counting = mode in ("counter", "grit", "oasis")
        gpu_l = self._gpu[i:j].tolist()
        page_l = self._page[i:j].tolist()
        write_l = self._is_w[i:j].tolist()
        weight_l = self._weight[i:j].tolist()
        key_l = self._key[i:j].tolist()
        counters = machine.access_counters
        count_by_key = counters.count_by_key
        threshold = counters.threshold
        ppg = self._ppg
        obj_of_page = machine._obj_of_page
        first_page = self._first_page
        n_pages = pt.n_pages
        page_size = self._page_size

        compute_ns = self._compute_ns
        local_ns = self._local_ns
        host_ns = self._host_ns
        remote_ns = self._remote_ns
        mem_par = self._mem_par
        remote_par = self._remote_par
        fault_service = self._fault_service_ns
        fault_par = self._fault_par
        occ_ns = self._occ_ns
        pte_ns = self._pte_update_ns
        inval_ns = self._pte_invalidate_ns
        overhead_ns = self._collapse_overhead_ns
        pcie_ns = self._pcie_ns
        nvlink_ns = self._nvlink_ns
        n_gpus = self._n_gpus
        tlbs = machine.tlbs
        tlb0 = tlbs[0]
        l1_cost = tlb0._l1_cost
        l2_cost = tlb0._l2_cost
        walk_cost = tlb0._walk_cost
        l1_n = tlb0.l1._n_sets
        l1_w = tlb0.l1._ways
        l2_n = tlb0.l2._n_sets
        l2_w = tlb0.l2._ways
        l1s = [t.l1._sets for t in tlbs]
        l2s = [t.l2._sets for t in tlbs]
        l1_hits = [0] * n_gpus
        l1_misses = [0] * n_gpus
        l2_hits = [0] * n_gpus
        l2_misses = [0] * n_gpus
        inval_l1 = [0] * n_gpus
        inval_l2 = [0] * n_gpus
        fault_counts = [0] * n_gpus
        fault_pages: list[int] = []
        walk_hist: dict[int, int] = {}
        #: (src, dst) -> pages moved between the two devices.
        moves: dict[tuple[int, int], int] = {}
        #: (gpu, owner) -> remote-access weight and record count.
        flow_w: dict[tuple[int, int], int] = {}
        flow_n: dict[tuple[int, int], int] = {}
        #: Stat name -> the sum of the driver's and policy's adds to it.
        tally: defaultdict[str, int] = defaultdict(int)
        clocks = machine.clocks
        queue = machine.driver.queue
        free_at = queue.free_at
        busy = queue.busy_time
        n_requests = 0
        # Residency lists are maintained even with capacity modelling
        # disabled (note_resident is unconditional in the driver).
        lrus = machine.capacity._lru
        cap = machine.capacity.capacity_pages
        capped = cap is not None
        #: page -> [owner, copies, mapped, writable, policy bits].
        ent: dict[int, list[int]] = {}
        #: The entries of the pages this run changed.
        changed: dict[int, list[int]] = {}
        #: counter key -> count; 0 stands for a popped key.
        counts: dict[int, int] = {}
        local_w = host_w = remote_w = 0
        n_page = n_prot = 0

        def state(page: int) -> list[int]:
            """The page's entry in the loop's dict, seeded on first use."""
            st = ent.get(page)
            if st is None:
                st = ent[page] = list(entry(page))
            return st

        def submit(c: float, service: float) -> float:
            """SerialServer.submit: queue ``service``, return its end."""
            nonlocal free_at, busy, n_requests
            start = free_at if free_at > c else c
            free_at = start + service
            busy += service
            n_requests += 1
            return free_at

        def fault(g: int, page: int, st: list[int], c: float,
                  resolution: float) -> float:
            """Machine._fault once the policy resolved it: attribute the
            fault, queue its service and return the GPU's new clock."""
            fault_counts[g] += 1
            fault_pages.append(page)
            changed[page] = st
            done = submit(c, occ_ns + resolution)
            return c + ((done - c) + fault_service) / fault_par

        # -- UVMDriver primitives on the loop's entries ----------------

        def shootdown(page: int, victims: int) -> float:
            """UVMDriver._shootdown: invalidate, return the PTE cost."""
            cost = 0.0
            if victims:
                tally["shootdown.count"] += victims.bit_count()
            while victims:
                low = victims & -victims
                v = low.bit_length() - 1
                e = l1s[v][page % l1_n]
                if page in e:
                    del e[page]
                    inval_l1[v] += 1
                e = l2s[v][page % l2_n]
                if page in e:
                    del e[page]
                    inval_l2[v] += 1
                cost += inval_ns
                victims ^= low
            return cost

        def release(page: int, holders: int) -> None:
            """UVMDriver._release: free the holders' frames."""
            while holders:
                low = holders & -holders
                lrus[low.bit_length() - 1].pop(page, None)
                holders ^= low

        def transfer(src: int, dst: int) -> float:
            """UVMDriver._transfer of one page."""
            moves[src, dst] = moves.get((src, dst), 0) + 1
            return pcie_ns if src == HOST or dst == HOST else nvlink_ns

        def make_resident(g: int, page: int) -> None:
            """CapacityManager.note_resident."""
            lru = lrus[g]
            lru.pop(page, None)
            lru[page] = None

        def make_room(g: int, page: int) -> float:
            """UVMDriver._maybe_evict: evict LRU pages, sparing ``page``."""
            lru = lrus[g]
            cost = 0.0
            while len(lru) > cap:
                for victim in lru:
                    if victim != page:
                        break
                cost += evict_from(g, victim)
            return cost

        def evict_from(g: int, page: int) -> float:
            """UVMDriver.evict_from, and UVMDriver.evict for a sole copy."""
            st = state(page)
            changed[page] = st
            owner, copies, mapped = st[0], st[1], st[2]
            bit = 1 << g
            others = copies & ~bit
            if not others:
                cost = shootdown(page, mapped)
                release(page, copies)
                if owner != HOST:
                    cost += transfer(owner, HOST)
                tally["eviction.count"] += 1
                st[0] = HOST
                st[1] = st[2] = st[3] = 0
                return cost
            cost = shootdown(page, bit) if mapped & bit else 0.0
            lrus[g].pop(page, None)
            tally["eviction.copy_dropped"] += 1
            if owner == g:
                st[0] = (others & -others).bit_length() - 1
            st[1] = others
            st[2] = mapped & ~bit
            st[3] &= ~bit
            return cost + pte_ns

        def migrate(g: int, page: int, st: list[int]) -> float:
            """UVMDriver.migrate, the counter-group reset included."""
            owner, copies, mapped = st[0], st[1], st[2]
            bit = 1 << g
            others = copies & ~bit
            cost = shootdown(page, mapped)
            release(page, others)
            if not copies & bit:
                src = (
                    (others & -others).bit_length() - 1 if others else owner
                )
                cost += transfer(src, g)
            make_resident(g, page)
            base = page // ppg * n_gpus
            for gkey in range(base, base + n_gpus):
                counts[gkey] = 0
            tally["migration.count"] += 1
            tally["migration.bytes"] += page_size
            st[0] = g
            st[1] = st[2] = st[3] = bit
            cost += pte_ns
            if capped:
                cost += make_room(g, page)
            return cost

        def collapse(g: int, page: int, st: list[int]) -> float:
            """UVMDriver.collapse."""
            owner, copies, mapped = st[0], st[1], st[2]
            bit = 1 << g
            others = copies & ~bit
            victims = mapped & ~bit
            cost = shootdown(page, victims)
            if others:
                extra = others.bit_count() - 1
                if extra:
                    cost += overhead_ns * extra
                release(page, others)
            if not copies & bit:
                src = (
                    (others & -others).bit_length() - 1 if others else owner
                )
                cost += transfer(src, g)
            make_resident(g, page)
            tally["collapse.count"] += 1
            tally["collapse.invalidated_copies"] += victims.bit_count()
            st[0] = g
            st[1] = st[2] = st[3] = bit
            cost += pte_ns
            if capped:
                cost += make_room(g, page)
            return cost

        def duplicate(g: int, page: int, st: list[int]) -> float:
            """UVMDriver.duplicate on coherent tables (no writer survives)."""
            owner, copies, mapped, writable = st[0], st[1], st[2], st[3]
            bit = 1 << g
            st[1] = copies | bit
            st[2] = mapped | bit
            st[3] = 0
            if copies & bit:
                tally["duplication.remap"] += 1
                return pte_ns
            src = (copies & -copies).bit_length() - 1 if copies else owner
            cost = transfer(src, g)
            writers = mapped & writable
            if writers:
                # The demotion's shootdown rides on this fault: no
                # invalidation cost, one PTE update.
                shootdown(page, writers & -writers)
                cost += pte_ns
                tally["duplication.demotions"] += 1
            make_resident(g, page)
            tally["duplication.count"] += 1
            tally["duplication.bytes"] += page_size
            cost += pte_ns
            if capped:
                cost += make_room(g, page)
            return cost

        def map_local(g: int, st: list[int], writable: bool) -> float:
            """UVMDriver.map_local."""
            bit = 1 << g
            st[2] |= bit
            st[3] = st[3] | bit if writable else st[3] & ~bit
            tally["local_map.count"] += 1
            return pte_ns

        def map_remote(g: int, st: list[int]) -> float:
            """UVMDriver.map_remote."""
            bit = 1 << g
            st[2] |= bit
            st[3] &= ~bit
            tally["remote_map.count"] += 1
            return pte_ns

        # -- the policy's handlers: (g, page, is_w, st) / (g, page, st) -

        def on_protection(g, page, st):
            return policy.on_protection_fault(g, page)  # raises

        if mode == "counter":

            def on_fault(g, page, is_w, st):
                """AccessCounterPolicy.on_fault."""
                if st[1] >> g & 1:
                    return map_local(g, st, True)
                return map_remote(g, st)

        elif mode == "dup":

            def on_fault(g, page, is_w, st):
                """DuplicationPolicy.on_fault."""
                if is_w:
                    return collapse(g, page, st)
                return duplicate(g, page, st)

            def on_protection(g, page, st):
                """DuplicationPolicy.on_protection_fault."""
                tally["collapse.protection_triggered"] += 1
                return collapse(g, page, st)

        elif mode == "ideal":

            def on_fault(g, page, is_w, st):
                """UVMDriver.ideal_copy on incoherent tables: the copy
                strips no writer."""
                bit = 1 << g
                copies = st[1]
                cost = 0.0
                if not copies & bit:
                    src = (
                        (copies & -copies).bit_length() - 1
                        if copies else st[0]
                    )
                    cost = transfer(src, g)
                    st[1] = copies | bit
                    make_resident(g, page)
                    tally["duplication.count"] += 1
                st[2] |= bit
                st[3] |= bit
                cost += pte_ns
                if capped:
                    cost += make_room(g, page)
                return cost

        elif mode == "advise":

            def on_fault(g, page, is_w, st):
                """StaticAdvisePolicy.on_fault."""
                owner, copies = st[0], st[1]
                if copies >> g & 1:
                    return map_local(g, st, not duplicated(owner, copies))
                if st[4] == POLICY_DUPLICATION:
                    if is_w:
                        tally["advise.wrong_hint_writes"] += 1
                        return collapse(g, page, st)
                    return duplicate(g, page, st)
                return migrate(g, page, st)

            def on_protection(g, page, st):
                """StaticAdvisePolicy.on_protection_fault."""
                tally["advise.wrong_hint_writes"] += 1
                return collapse(g, page, st)

        elif mode == "grit":
            meta_cost = policy._metadata_access_cost
            meta_for = policy.meta_for
            decide = policy._decide
            per_decision = policy.faults_per_decision
            window = policy.neighbor_window

            def learn(g, page, is_w, st):
                """GritPolicy: observe, then _maybe_decide."""
                meta = meta_for(page)
                meta.observe(g, is_w)
                if meta.fault_count < per_decision:
                    return
                bits = decide(meta)
                meta.reset_window()
                if st[4] == bits:
                    return
                st[4] = bits
                tally["grit.policy_changes"] += 1
                # _predict_neighbors: stamp the next pages' entries.
                for near in range(page + 1, page + window + 1):
                    idx = near - first_page
                    if not (0 <= idx < n_pages and obj_of_page[idx] >= 0):
                        break
                    ns = state(near)
                    if ns[4] != bits:
                        ns[4] = bits
                        changed[near] = ns
                        policy.predictions += 1
                        tally["grit.neighbor_predictions"] += 1

            def on_fault(g, page, is_w, st):
                """GritPolicy.on_fault and _resolve."""
                cost = meta_cost(page)
                owner, copies = st[0], st[1]
                if copies >> g & 1:
                    return cost + map_local(
                        g, st, not duplicated(owner, copies)
                    )
                if owner == HOST and st[4] == POLICY_ON_TOUCH:
                    return cost + migrate(g, page, st)
                learn(g, page, is_w, st)
                bits = st[4]
                if bits == POLICY_COUNTER:
                    if duplicated(owner, copies):
                        return cost + collapse(g, page, st)
                    return cost + map_remote(g, st)
                if bits == POLICY_DUPLICATION:
                    if is_w:
                        return cost + collapse(g, page, st)
                    return cost + duplicate(g, page, st)
                return cost + migrate(g, page, st)

            def on_protection(g, page, st):
                """GritPolicy.on_protection_fault."""
                cost = meta_cost(page)
                learn(g, page, True, st)
                return cost + collapse(g, page, st)

        else:
            lookup_cost = policy._metadata_lookup_cost
            on_shared_fault = policy.controller.on_shared_fault
            private_filter = policy.private_filter
            guarded = capped and policy.capacity_guard

            def shared(g, page, is_w, st):
                """OasisPolicy._shared_fault and _resolve_counter."""
                tally["oasis.shared_fault"] += 1
                owner, copies = st[0], st[1]
                cost = lookup_cost(page)
                bits = st[4] = on_shared_fault(
                    obj_of_page[page - first_page], is_w
                )
                cost += pte_ns
                if bits == POLICY_COUNTER:
                    if duplicated(owner, copies):
                        return cost + collapse(g, page, st)
                    if copies >> g & 1:
                        return cost + map_local(g, st, True)
                    return cost + map_remote(g, st)
                # Duplication, the controller's only other answer.
                if is_w:
                    return cost + collapse(g, page, st)
                if guarded and len(lrus[g]) >= cap and not copies >> g & 1:
                    # The capacity guard: a full GPU reads remotely.
                    tally["oasis.duplication_degraded"] += 1
                    return cost + map_remote(g, st)
                return cost + duplicate(g, page, st)

            def on_fault(g, page, is_w, st):
                """OasisPolicy.on_fault."""
                owner, copies = st[0], st[1]
                if copies >> g & 1:
                    return map_local(g, st, not duplicated(owner, copies))
                if (
                    private_filter
                    and owner == HOST
                    and st[4] == POLICY_ON_TOUCH
                ):
                    tally["oasis.private_fault"] += 1
                    return migrate(g, page, st)
                return shared(g, page, is_w, st)

            def on_protection(g, page, st):
                """OasisPolicy.on_protection_fault."""
                return shared(g, page, True, st)

        for g, page, is_w, w, key in zip(
            gpu_l, page_l, write_l, weight_l, key_l
        ):
            if capped:
                # CapacityManager.note_access: refresh a resident page.
                lru = lrus[g]
                if page in lru:
                    del lru[page]
                    lru[page] = None
            st = ent.get(page)
            if st is None:
                st = ent[page] = list(entry(page))
            bit = 1 << g
            c = clocks[g] + w * compute_ns
            # Translation attempt (TLBHierarchy.translate_fast): a fault
            # walks before it is detected, so both levels fill either way.
            e1 = l1s[g][page % l1_n]
            if page in e1:
                del e1[page]
                e1[page] = None
                l1_hits[g] += 1
                cost = l1_cost
            else:
                l1_misses[g] += 1
                e2 = l2s[g][page % l2_n]
                if page in e2:
                    del e2[page]
                    e2[page] = None
                    l2_hits[g] += 1
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = l2_cost
                else:
                    l2_misses[g] += 1
                    if len(e2) >= l2_w:
                        del e2[next(iter(e2))]
                    e2[page] = None
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = walk_cost
                    bits = st[4]
                    walk_hist[bits] = walk_hist.get(bits, 0) + 1
            owner, copies, mapped, writable, _bits = st
            if not mapped & bit:
                c += cost / mem_par
                n_page += 1
                c = fault(g, page, st, c, on_fault(g, page, is_w, st))
                w -= 1
                if w <= 0:
                    clocks[g] = c
                    continue
                # The remaining accesses retry the translation — an L1
                # hit, as no page-fault resolution shoots down the
                # requester — and proceed under the new entry.
                l1_hits[g] += 1
                cost = l1_cost
                owner, copies, mapped, writable, _bits = st
            if copies & bit:
                if is_w and not writable & bit:
                    # A write to a read-only copy: a protection fault,
                    # then every access of the record writes locally.
                    c += cost / mem_par
                    n_prot += 1
                    c = fault(g, page, st, c, on_protection(g, page, st))
                    cost = 0.0
                c += (cost + local_ns * w) / mem_par
                local_w += w
                clocks[g] = c
                continue
            # Remote access: counted, and a threshold trip migrates the
            # group (CounterMigrationMixin._migrate_group).
            if not counting:
                policy.on_remote_access(g, page, is_w, w)  # raises
            c += cost / mem_par
            if owner == HOST:
                host_w += w
                c += host_ns * w / remote_par
            else:
                remote_w += w
                c += remote_ns * w / remote_par
            pair = (g, owner)
            flow_w[pair] = flow_w.get(pair, 0) + w
            flow_n[pair] = flow_n.get(pair, 0) + 1
            value = counts.get(key)
            if value is None:
                value = count_by_key(key)
            value += w
            if value < threshold:
                counts[key] = value
                clocks[g] = c
                continue
            cost = 0.0
            migrated = 0
            group_first = page - page % ppg
            for cand in range(group_first, group_first + ppg):
                idx = cand - first_page
                if not (0 <= idx < n_pages and obj_of_page[idx] >= 0):
                    continue
                cs = state(cand)
                if cs[1] & bit or (cand != page and cs[0] != owner):
                    continue
                cost += migrate(g, cand, cs)
                migrated += 1
                changed[cand] = cs
            # The trip resets the group's counters, migration or not.
            base = key - g
            for gkey in range(base, base + n_gpus):
                counts[gkey] = 0
            if migrated:
                tally["migration.counter_triggered"] += migrated
                # Machine.charge_driver_op: no fault_service_ns.
                c = c + (submit(c, occ_ns + cost) - c) / fault_par
            clocks[g] = c

        # Write back the local state and apply the summed effects.
        pt.store_entries(changed)
        counters.store_counts(counts)
        queue.advance_to(free_at, busy, n_requests)
        self._apply_tlb_counts(
            l1_hits, l1_misses, l2_hits, l2_misses, inval_l1, inval_l2,
            walk_hist,
        )
        if fault_pages:
            self._count_faults(
                fault_counts,
                np.array(fault_pages, dtype=np.int64) - self._first_page,
            )
        add = machine.stats.add
        for name, count in (
            ("access.local", local_w),
            ("access.host", host_w),
            ("access.remote", remote_w),
            ("fault.page", n_page),
            ("fault.protection", n_prot),
        ):
            if count:
                add(name, count)
        for name, count in tally.items():
            add(name, count)
        topology = machine.topology
        n_pcie = n_nvlink = 0
        for (src, dst), count in moves.items():
            topology.record_transfer_bulk(
                src, dst, count * page_size, count
            )
            if src == HOST or dst == HOST:
                n_pcie += count
            else:
                n_nvlink += count
        if n_pcie:
            add("traffic.pcie_bytes", n_pcie * page_size)
        if n_nvlink:
            add("traffic.nvlink_bytes", n_nvlink * page_size)
        for (src, dst), weight_total in flow_w.items():
            topology.record_transfer_bulk(
                src, dst, REMOTE_ACCESS_BYTES * weight_total,
                flow_n[src, dst],
            )

    # -- fused-loop epilogue -----------------------------------------------

    def _apply_tlb_counts(
        self, l1_hits: list[int], l1_misses: list[int], l2_hits: list[int],
        l2_misses: list[int], inval_l1: list[int], inval_l2: list[int],
        walk_hist: dict[int, int],
    ) -> None:
        """Add a fused loop's per-GPU TLB counts and its page walks.

        The lists are indexed by GPU; ``walk_hist`` counts the walks
        (L2 misses) per PTE policy-bit value.
        """
        for g, tlb in enumerate(self.machine.tlbs):
            if l1_hits[g] or l1_misses[g] or inval_l1[g] or inval_l2[g]:
                tlb.l1.hits += l1_hits[g]
                tlb.l1.misses += l1_misses[g]
                tlb.l1.lookups += l1_hits[g] + l1_misses[g]
                tlb.l2.hits += l2_hits[g]
                tlb.l2.misses += l2_misses[g]
                tlb.l2.lookups += l2_hits[g] + l2_misses[g]
                tlb.l1.invalidations += inval_l1[g]
                tlb.l2.invalidations += inval_l2[g]
        miss_counts = self.machine.l2_miss_policy_counts
        for bits, count in walk_hist.items():
            name = policy_name(bits)
            miss_counts[name] = miss_counts.get(name, 0) + count

    def _count_faults(
        self, fault_counts: list[int], fault_idx: np.ndarray
    ) -> None:
        """Attribute a fused loop's faults to GPUs and to objects.

        ``fault_counts`` holds the faults per GPU and ``fault_idx`` the
        page index of every faulting record.
        """
        machine = self.machine
        stats = machine.stats
        for g, count in enumerate(fault_counts):
            if count:
                stats.add(machine._fault_keys[g], count)
        unique_objs, obj_counts = np.unique(
            self._obj_arr[fault_idx], return_counts=True
        )
        object_keys = machine._object_fault_keys
        for oid, count in zip(unique_objs.tolist(), obj_counts.tolist()):
            if oid >= 0:
                stats.add(object_keys[oid], count)
