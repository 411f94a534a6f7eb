"""Vectorized steady-state replay — the simulator's fast path.

:class:`FastReplay` replays a phase's record arrays by scanning for
maximal runs of records that provably cannot fault or change page-table
state, and charging their compute/access latency, TLB traffic, stats and
link bytes in bulk instead of one :meth:`Machine.access` call per record.
The moment state *can* change, it falls back to the exact per-record
path (or, for the uniform policies below, replays the change in a fused
loop), so every observable — clocks, stats, TLB hit/miss counts, traffic,
counter state — stays **bit-identical** to a pure per-record replay
(``REPRO_FORCE_SLOW_PATH=1`` disables the fast path for A/B checks).

A record ``(gpu, page, is_write, weight)`` is *eligible* for bulk replay
when, under the page-table state current at mask-build time:

* ``gpu`` has a valid PTE for ``page`` (no page fault possible), and
* if the PTE points at a local copy: the record is a read, or the PTE is
  writable (no protection fault possible) — replay then only adds local
  access latency and ``access.local`` counts; or
* if the PTE points at remote/host memory: the attached policy's remote
  handling is pure counter accounting
  (``type(policy).on_remote_access is
  CounterMigrationMixin.on_remote_access``), and the GPU's access counter
  for the page's 64 KB group provably cannot reach the migration
  threshold within the current chunk — proven conservatively by summing
  *every* record weight the chunk still holds for that (gpu, group) key.

Eligibility masks are derived from the page tables' numpy mirrors
(:meth:`PageTables.bulk_views`, which flushes the pages mutated since
its last call) and are invalidated by the page-table ``version``
counter: any fault resolution mutates the page tables, which bumps the
version, which forces per-record replay until the mask is rebuilt
(rebuilds are throttled so a fault storm degrades gracefully to the
slow path instead of thrashing on mask recomputation).  What a mask
needs from the trace alone — each chunk's counter-key factorization and
per-page occurrence facts — is computed once per chunk and cached with
the phase's SoA arrays (:class:`PhaseArrays`); a rebuild only combines
it with the current page-table state.

Why the bulk math is exact and not merely close:

* per-GPU clocks are folded with ``np.cumsum`` over the interleaved
  per-record latency terms, seeded with the GPU's current clock —
  numpy's cumsum is a strict sequential left fold, so the result is the
  same IEEE-754 value the per-record ``+=`` chain produces (the local
  records' zero remote term adds ``+0.0``, an identity on the
  non-negative clocks);
* stat counters and traffic bytes are integer-valued and far below
  2**53, so bulk integer sums are exact under any grouping;
* the LRU TLBs are inherently sequential, so bulk runs use
  :meth:`TLBHierarchy.translate_run` — the same lookup/fill/evict logic
  in one tight loop — rather than a numpy approximation.

Besides the steady-state lane, a *fault lane* bulk-replays runs of
records that provably WILL fault but whose resolution is fully
predictable: under plain on-touch, any page in a simple exclusive state;
under OASIS' private filter and GRIT's on-touch default, a virgin page
(host owner, no copies, no mappings anywhere, touched by one GPU in the
window).  The FIFO queue, per-GPU clock and TLB recurrences are
inherently sequential, so the lane runs them in one fused scalar loop
(no per-record method dispatch, stat updates or page-table probes) and
then applies the page-table installs, stats, counters and link traffic
in bulk.  Fault-dominated phases (first kernels touching every page) are
where replay time actually goes.

The two *uniform* policies, access-counter and duplication (matched by
exact type), need no eligibility mask at all: every record they replay
— local or remote access, page fault, protection fault, counter trip
and the group migration it triggers — resolves as a fixed function of
the page's entry, the requester's counter and the TLBs.  So each of
their chunks is one fault-lane run: a fused loop that keeps the touched
entries and counters in local dicts, seeded from the live tables and
written back once at the end, and never falls back to the per-record
path.

The fast path is disabled outright when the capacity manager is active
(oversubscription runs touch eviction state on every access) or when
``REPRO_FORCE_SLOW_PATH`` is set.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.config import HOST
from repro.core.oasis import OasisPolicy
from repro.memory.page import POLICY_ON_TOUCH, policy_name
from repro.policies.access_counter import AccessCounterPolicy
from repro.policies.base import CounterMigrationMixin
from repro.policies.duplication import DuplicationPolicy
from repro.policies.grit import GritPolicy
from repro.policies.on_touch import OnTouchPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.workloads.base import PhaseTrace

#: Records per eligibility window; bounds the conservative counter-safety
#: sum (a whole-phase window would mark every hot group unsafe).
CHUNK = 4096

#: Minimum eligible-run length worth the bulk-call overhead; shorter runs
#: replay per-record (which is always exact).
MIN_RUN = 16

#: Minimum per-record steps between mask rebuilds after a version bump;
#: amortizes the O(window) rebuild cost during fault storms.
REBUILD_MIN_STEPS = 64

#: Dtype of the chunk-relative positions and ids in :class:`PhaseArrays`
#: (every chunk-relative value lies in ``[-1, CHUNK)``).
_POS = np.int16
assert CHUNK <= np.iinfo(_POS).max


def force_slow_path() -> bool:
    """True when ``REPRO_FORCE_SLOW_PATH`` requests per-record replay."""
    return os.environ.get("REPRO_FORCE_SLOW_PATH", "").strip() not in ("", "0")


class PhaseArrays:
    """Replay arrays that depend only on one phase's records.

    They are pure functions of the records and the ``(first_page,
    n_gpus, pages_per_group)`` geometry, so a sweep replaying the same
    trace under many policies computes them once and shares them through
    a cache slot on the phase itself; every array is read-only.  The
    per-chunk facts the eligibility masks need are built on first use by
    a policy that needs them, then shared like the rest.
    """

    def __init__(
        self, phase: "PhaseTrace", first_page: int, n_gpus: int, ppg: int
    ) -> None:
        self.gpu = phase.gpu.astype(np.int64)
        self.idx = phase.page - first_page
        self.is_w = phase.write != 0
        self.bit = np.left_shift(np.int64(1), self.gpu)
        # Built for counting and non-counting policies alike, so both
        # share one cache entry.
        self.key = (phase.page // ppg) * n_gpus + self.gpu
        self._key_facts: tuple | None = None
        self._page_facts: np.ndarray | None = None

    def key_facts(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each chunk's counter keys, factorized.

        Returns ``(key_id, chunk_keys)``: per record, the chunk-relative
        id of its ``(gpu, group)`` counter key, and per chunk, the sorted
        distinct keys those ids index.
        """
        if self._key_facts is None:
            key_id = np.empty(len(self.key), dtype=_POS)
            chunk_keys = []
            for c0 in range(0, len(self.key), CHUNK):
                keys, inverse = np.unique(
                    self.key[c0:c0 + CHUNK], return_inverse=True
                )
                key_id[c0:c0 + CHUNK] = inverse
                chunk_keys.append(keys)
            self._key_facts = (key_id, chunk_keys)
        return self._key_facts

    def page_facts(self) -> np.ndarray:
        """Per record, the chunk-relative ``mixed_until`` of its page.

        That is the last position in the chunk of the record's page
        whose GPU differs from the page's last occurrence (-1 if none).
        A window that is a suffix ``[s, chunk end)`` holds a page's
        occurrences from ``s`` on, so "one GPU only" is
        ``mixed_until < s`` — the repeat test of the OASIS and GRIT
        virgin lanes.
        """
        if self._page_facts is None:
            n = len(self.idx)
            mixed_until = np.empty(n, dtype=_POS)
            for c0 in range(0, n, CHUNK):
                chunk = slice(c0, c0 + CHUNK)
                mixed_until[chunk] = _chunk_mixed_until(
                    self.idx[chunk], self.gpu[chunk]
                )
            self._page_facts = mixed_until
        return self._page_facts


def _chunk_mixed_until(page: np.ndarray, gpu: np.ndarray) -> np.ndarray:
    """:meth:`PhaseArrays.page_facts` of one chunk."""
    n = len(page)
    pos = np.argsort(page, kind="stable")  # positions, grouped by page
    head = np.ones(n, dtype=bool)  # first occurrence of its page
    head[1:] = page[pos[1:]] != page[pos[:-1]]
    starts = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    last = pos[np.append(starts[1:], n) - 1]
    differs = gpu[pos] != gpu[last][group]
    mixed_until = np.maximum.reduceat(np.where(differs, pos, -1), starts)
    out = np.empty(n, dtype=np.int64)
    out[pos] = mixed_until[group]
    return out


class FastReplay:
    """Chunked, mask-driven bulk replayer bound to one :class:`Machine`."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
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
        self._counting = (
            type(machine.policy).on_remote_access
            is CounterMigrationMixin.on_remote_access
        )
        # The uniform policies resolve every record from page-table,
        # counter and TLB state alone, so whole chunks take the uniform
        # lane; the others get a first-touch fault lane mode (if any).
        policy = machine.policy
        self._uniform: str | None = None
        self._ft_mode: str | None = None
        if type(policy) is AccessCounterPolicy:
            self._uniform = "counter"
        elif type(policy) is DuplicationPolicy:
            self._uniform = "dup"
        elif type(policy) is OnTouchPolicy:
            self._ft_mode = "plain"
        elif (
            isinstance(policy, OasisPolicy)
            and type(policy).on_fault is OasisPolicy.on_fault
            and policy.private_filter
        ):
            self._ft_mode = "oasis"
        elif type(policy) is GritPolicy:
            self._ft_mode = "grit"
        self._page_size = config.page_size
        self._obj_arr = np.array(machine._obj_of_page, dtype=np.int64)
        # A virgin first touch always moves one page host->GPU over PCIe
        # (all host links are identical) and updates one PTE; the empty
        # shootdown and disabled capacity manager contribute exactly 0.0,
        # so this single float is the resolution every lane record pays.
        transfer_ns = machine.topology.link(HOST, 0).transfer_time_ns(
            config.page_size
        )
        self._pcie_ns = transfer_ns
        self._pte_update_ns = lat.pte_update_ns
        self._pte_invalidate_ns = lat.pte_invalidate_ns
        self._collapse_overhead_ns = lat.collapse_overhead_ns
        self._virgin_resolution = transfer_ns + lat.pte_update_ns
        self._occ_ns = lat.fault_driver_occupancy_ns
        self._fault_service_ns = lat.fault_service_ns
        self._fault_par = lat.fault_parallelism
        self._virgin_service = self._occ_ns + self._virgin_resolution
        # GRIT charges a metadata memory access on PA-Cache misses before
        # resolving; parenthesized as the slow path accumulates it.
        self._virgin_service_meta = self._occ_ns + (
            lat.metadata_memory_ns + self._virgin_resolution
        )
        # Plain on-touch migrates on *every* fault, so cross-GPU bounces
        # of exclusively-held pages are predictable too: shoot down the
        # holder's PTE (if mapped), pull the page over NVLink, update the
        # PTE.  All GPU pairs share identical link parameters.
        if config.n_gpus >= 2:
            nvlink_ns = machine.topology.link(0, 1).transfer_time_ns(
                config.page_size
            )
        else:
            nvlink_ns = 0.0  # unreachable: no second GPU to bounce from
        self._nvlink_ns = nvlink_ns
        self._service_bounce = self._occ_ns + (
            (lat.pte_invalidate_ns + nvlink_ns) + lat.pte_update_ns
        )
        self._service_pull = self._occ_ns + (
            nvlink_ns + lat.pte_update_ns
        )
        self._service_remap = self._occ_ns + lat.pte_update_ns
        # Per-phase record arrays (set by run_phase).
        self._gpu: np.ndarray | None = None
        self._page: np.ndarray | None = None
        self._idx: np.ndarray | None = None
        self._is_w: np.ndarray | None = None
        self._weight: np.ndarray | None = None
        self._bit: np.ndarray | None = None
        self._key: np.ndarray | None = None
        self._key_id: np.ndarray | None = None
        self._chunk_keys: list[np.ndarray] | None = None
        self._mixed_until: np.ndarray | None = None
        # Current eligibility window (set by _rebuild).
        self._mask_base = 0
        self._mask_version = -1
        self._mask: np.ndarray | None = None
        self._false_pos: np.ndarray | None = None
        self._loc: np.ndarray | None = None
        self._owner_sel: np.ndarray | None = None
        self._fmask: np.ndarray | None = None
        self._f_false_pos: np.ndarray | None = None
        self._f_owner: np.ndarray | None = None
        self._f_map0: np.ndarray | None = None

    @classmethod
    def for_machine(cls, machine: "Machine") -> "FastReplay | None":
        """A replayer for ``machine``, or None when it must run slow.

        Capacity-managed (oversubscribed) runs touch eviction state on
        every access, so they always take the per-record path, as does
        anything under ``REPRO_FORCE_SLOW_PATH=1``.  A fault plan active
        from phase 0 disables the fast path outright; plans whose first
        event fires later keep the fast path for the healthy prefix (the
        machine gates per phase via ``injector.fast_path_allowed``).
        """
        if machine.capacity.enabled or force_slow_path():
            return None
        injector = getattr(machine, "injector", None)
        if injector is not None and not injector.fast_path_allowed(0):
            return None
        return cls(machine)

    # -- phase driver ------------------------------------------------------

    def run_phase(self, phase: "PhaseTrace") -> None:
        """Replay one phase, bit-identical to the per-record loop."""
        n = len(phase.gpu)
        if n == 0:
            return
        soa_key = (self._first_page, self._n_gpus, self._ppg)
        cached = getattr(phase, "_soa", None)
        if cached is not None and cached[0] == soa_key:
            arrays = cached[1]
        else:
            arrays = PhaseArrays(phase, *soa_key)
            phase._soa = (soa_key, arrays)
        self._gpu = arrays.gpu
        self._idx = arrays.idx
        self._is_w = arrays.is_w
        self._bit = arrays.bit
        self._key = arrays.key
        if self._counting and self._uniform is None:
            self._key_id, self._chunk_keys = arrays.key_facts()
        if self._ft_mode in ("oasis", "grit"):
            self._mixed_until = arrays.page_facts()
        self._page = phase.page
        self._weight = phase.weight
        start = 0
        while start < n:
            stop = min(start + CHUNK, n)
            self._run_chunk(start, stop)
            start = stop

    def _run_chunk(self, c0: int, c1: int) -> None:
        if self._uniform is not None:
            self._run_bulk_fault(c0, c1, 0)
            return
        machine = self.machine
        pt = machine.page_tables
        access = machine.access
        gpu_l = self._gpu[c0:c1].tolist()
        page_l = self._page[c0:c1].tolist()
        write_l = self._is_w[c0:c1].tolist()
        weight_l = self._weight[c0:c1].tolist()
        self._mask_version = -1  # chunk always starts with a fresh mask
        steps = REBUILD_MIN_STEPS
        i = c0
        while i < c1:
            if pt.version != self._mask_version:
                if steps >= REBUILD_MIN_STEPS:
                    self._rebuild(i, c1)
                    steps = 0
                else:
                    k = i - c0
                    access(gpu_l[k], page_l[k], write_l[k], weight_l[k])
                    steps += 1
                    i += 1
                    continue
            rel = i - self._mask_base
            if self._mask[rel]:
                false_pos = self._false_pos
                nxt = np.searchsorted(false_pos, rel)
                end_rel = (
                    int(false_pos[nxt])
                    if nxt < len(false_pos)
                    else len(self._mask)
                )
                j = self._mask_base + end_rel
                if j - i >= MIN_RUN:
                    self._run_bulk(i, j, rel)
                    i = j
                    continue
            elif self._fmask is not None and self._fmask[rel]:
                false_pos = self._f_false_pos
                nxt = np.searchsorted(false_pos, rel)
                end_rel = (
                    int(false_pos[nxt])
                    if nxt < len(false_pos)
                    else len(self._fmask)
                )
                j = self._mask_base + end_rel
                if j - i >= MIN_RUN:
                    self._run_bulk_fault(i, j, rel)
                    # The installs bumped the page-table version; credit
                    # the processed records toward the rebuild budget so
                    # long fault runs re-mask immediately.
                    steps += j - i
                    i = j
                    continue
            k = i - c0
            access(gpu_l[k], page_l[k], write_l[k], weight_l[k])
            steps += 1
            i += 1

    # -- eligibility -------------------------------------------------------

    def _rebuild(self, i: int, c1: int) -> None:
        """Recompute the eligibility mask for records ``[i, c1)``."""
        machine = self.machine
        pt = machine.page_tables
        views = pt.bulk_views()
        window = slice(i, c1)
        idx_w = self._idx[window]
        bit_w = self._bit[window]
        mapped_raw = views["mapped"][idx_w]
        copies_raw = views["copies"][idx_w]
        writable_raw = views["writable"][idx_w]
        owner_w = views["owner"][idx_w]
        mapped = (mapped_raw & bit_w) != 0
        has_copy = (copies_raw & bit_w) != 0
        writable = (writable_raw & bit_w) != 0
        local = mapped & has_copy
        eligible = local & (~self._is_w[window] | writable)
        # Chunks start at multiples of CHUNK, so the window is the suffix
        # of its chunk from chunk-relative position s.
        s = i % CHUNK
        if self._counting:
            remote = mapped & ~has_copy
            if remote.any():
                # Sum every window record's weight per counter key, but
                # test only the keys remote records use.
                key_id = self._key_id[window]
                chunk_keys = self._chunk_keys[i // CHUNK]
                n_keys = len(chunk_keys)
                totals = np.bincount(
                    key_id, weights=self._weight[window], minlength=n_keys
                )
                used = np.flatnonzero(
                    np.bincount(key_id[remote], minlength=n_keys)
                )
                counters = machine.access_counters
                count_by_key = counters.count_by_key
                threshold = counters.threshold
                safe = np.zeros(n_keys, dtype=bool)
                safe[used] = [
                    count_by_key(key) + int(total) < threshold
                    for key, total in zip(
                        chunk_keys[used].tolist(), totals[used].tolist()
                    )
                ]
                eligible |= remote & safe[key_id]
        if self._ft_mode == "plain":
            # Plain on-touch resolves *every* fault with a migration, so
            # any page in a "simple exclusive" state is predictable:
            # virgin (host owner, nothing anywhere), or exclusively held
            # by one GPU — mapped (bounce: shootdown + NVLink pull) or
            # not (NVLink pull / local remap).  The fused loop tracks
            # each page's holder as the run migrates it around.
            owner_bit = np.where(
                owner_w >= 0,
                np.left_shift(np.int64(1), np.maximum(owner_w, 0)),
                np.int64(0),
            )
            fmask = (copies_raw == owner_bit) & (
                (mapped_raw == 0)
                | ((mapped_raw == copies_raw) & (writable_raw == mapped_raw))
            )
            self._fmask = fmask
            self._f_false_pos = np.flatnonzero(~fmask)
            self._f_owner = owner_w
            self._f_map0 = mapped_raw != 0
        elif self._ft_mode is not None:
            # OASIS' private filter and GRIT only cover virgin on-touch
            # pages (host owner, zero copy/mapping masks — no shootdown
            # victims).  Window repeats are allowed as long as every
            # occurrence comes from the same GPU: the first touch
            # installs a local mapping for that GPU, making the repeats
            # plain local accesses the fused loop replays in place.
            virgin = (
                (mapped_raw == 0)
                & (copies_raw == 0)
                & (owner_w == HOST)
                & (views["policy"][idx_w] == POLICY_ON_TOUCH)
                & (self._mixed_until[window] < s)
            )
            self._fmask = virgin
            self._f_false_pos = np.flatnonzero(~virgin)
        else:
            self._fmask = None
        self._mask_base = i
        self._mask = eligible
        self._false_pos = np.flatnonzero(~eligible)
        self._loc = local
        self._owner_sel = owner_w
        self._mask_version = pt.version

    # -- bulk replay -------------------------------------------------------

    def _run_bulk(self, i: int, j: int, rel: int) -> None:
        """Replay eligible records ``[i, j)`` in bulk (mask is current)."""
        from repro.sim.machine import REMOTE_ACCESS_BYTES

        machine = self.machine
        n = j - i
        gpu_run = self._gpu[i:j]
        page_run = self._page[i:j]
        idx_run = self._idx[i:j]
        weight_run = self._weight[i:j]
        local_run = self._loc[rel:rel + n]
        owner_run = self._owner_sel[rel:rel + n]
        run_gpus = np.unique(gpu_run)

        # TLB lookups: per-GPU state is sequential, so each GPU's pages go
        # through the inlined LRU loop in record order.
        costs = np.empty(n, dtype=np.float64)
        walk_parts: list[np.ndarray] = []
        for gpu in run_gpus.tolist():
            sel = np.flatnonzero(gpu_run == gpu)
            costs_g, walks_g = machine.tlbs[gpu].translate_run(
                page_run[sel].tolist()
            )
            costs[sel] = costs_g
            if walks_g:
                walk_parts.append(sel[np.array(walks_g, dtype=np.int64)])
        if walk_parts:
            walk_pos = np.concatenate(walk_parts)
            bits = machine.page_tables.bulk_views()["policy"][
                idx_run[walk_pos]
            ]
            unique_bits, bit_counts = np.unique(bits, return_counts=True)
            miss_counts = machine.l2_miss_policy_counts
            for value, count in zip(
                unique_bits.tolist(), bit_counts.tolist()
            ):
                name = policy_name(value)
                miss_counts[name] = miss_counts.get(name, 0) + int(count)

        # Clock terms, decomposed exactly as Machine.access charges them:
        # t0 compute, t1 (tlb [+ local]) / mem_par, t2 remote / remote_par.
        t0 = weight_run * self._compute_ns
        t1 = (
            np.where(
                local_run, costs + self._local_ns * weight_run, costs
            )
            / self._mem_par
        )
        per_ns = np.where(owner_run == HOST, self._host_ns, self._remote_ns)
        t2 = np.where(
            local_run, 0.0, per_ns * weight_run / self._remote_par
        )
        clocks = machine.clocks
        for gpu in run_gpus.tolist():
            sel = np.flatnonzero(gpu_run == gpu)
            terms = np.empty(3 * len(sel) + 1, dtype=np.float64)
            terms[0] = clocks[gpu]
            terms[1::3] = t0[sel]
            terms[2::3] = t1[sel]
            terms[3::3] = t2[sel]
            clocks[gpu] = float(np.cumsum(terms)[-1])

        # Stats: integer-valued float counters, exact under bulk sums.
        stats = machine.stats
        local_weights = weight_run[local_run]
        if local_weights.size:
            stats.add("access.local", int(local_weights.sum()))
        remote_sel = ~local_run
        if remote_sel.any():
            host_sel = remote_sel & (owner_run == HOST)
            if host_sel.any():
                stats.add("access.host", int(weight_run[host_sel].sum()))
            gpu_owner_sel = remote_sel & (owner_run != HOST)
            if gpu_owner_sel.any():
                stats.add(
                    "access.remote", int(weight_run[gpu_owner_sel].sum())
                )
            # Link traffic, batched per (gpu, owner) pair.
            pair_sel = np.flatnonzero(remote_sel & (owner_run != gpu_run))
            if pair_sel.size:
                stride = self._n_gpus + 1
                pair_ids = (
                    gpu_run[pair_sel] * stride + owner_run[pair_sel] + 1
                )
                unique_pairs, inverse = np.unique(
                    pair_ids, return_inverse=True
                )
                byte_weights = np.bincount(
                    inverse, weights=weight_run[pair_sel]
                )
                message_counts = np.bincount(inverse)
                topology = machine.topology
                for pair, weight_total, messages in zip(
                    unique_pairs.tolist(),
                    byte_weights.tolist(),
                    message_counts.tolist(),
                ):
                    topology.record_transfer_bulk(
                        pair // stride,
                        pair % stride - 1,
                        REMOTE_ACCESS_BYTES * int(weight_total),
                        int(messages),
                    )
            # Access counters: every key was proven trip-free at mask
            # build, so bulk addition matches per-record counting.
            if self._counting:
                remote_keys = self._key[i:j][remote_sel]
                unique_keys, inverse = np.unique(
                    remote_keys, return_inverse=True
                )
                key_weights = np.bincount(
                    inverse, weights=weight_run[remote_sel]
                )
                counters = machine.access_counters
                for key, weight_total in zip(
                    unique_keys.tolist(), key_weights.tolist()
                ):
                    counters.add_bulk_below_threshold(
                        int(key), int(weight_total)
                    )

    def _run_bulk_fault(self, i: int, j: int, rel: int) -> None:
        """Replay a run of predictable page faults in one fused loop.

        Under the uniform policies the run is a whole chunk, replayed by
        :meth:`_run_uniform`.  In plain on-touch mode every record
        touches a page in a simple exclusive state, so each access is
        one of: a local access by the current holder, a virgin first
        touch (host->GPU pull over PCIe), a cross-GPU bounce (holder PTE
        shootdown + NVLink pull), an NVLink pull from an unmapped owner,
        or a local remap — each with a fixed driver service time.  The
        OASIS and GRIT modes only admit virgin first touches (plus
        same-GPU repeats, replayed as local accesses).  The sequential
        state — TLB LRU dicts, the driver FIFO, per-GPU clocks, GRIT's
        PA-Cache, residency LRU lists and each page's current holder —
        is advanced in one fused scalar loop; everything
        order-insensitive (stats, page-table installs, counters, link
        bytes) is applied in bulk afterwards.  The arithmetic mirrors
        ``Machine.access`` + ``Machine._fault`` + the driver primitives
        operation for operation, so the results are bit-identical to
        per-record replay.
        """
        if self._uniform is not None:
            self._run_uniform(i, j)
            return
        machine = self.machine
        n = j - i
        mode = self._ft_mode
        plain = mode == "plain"
        gpu_run = self._gpu[i:j]
        idx_run = self._idx[i:j]
        gpu_l = gpu_run.tolist()
        page_l = self._page[i:j].tolist()
        weight_l = self._weight[i:j].tolist()
        pol_l = (
            machine.page_tables.bulk_views()["policy"][idx_run].tolist()
        )
        if plain:
            own0_l = self._f_owner[rel:rel + n].tolist()
            map0_l = self._f_map0[rel:rel + n].tolist()

        compute_ns = self._compute_ns
        local_ns = self._local_ns
        mem_par = self._mem_par
        fault_service = self._fault_service_ns
        fault_par = self._fault_par
        service_virgin = self._virgin_service
        service_bounce = self._service_bounce
        service_pull = self._service_pull
        service_remap = self._service_remap
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
        nv_pairs: dict[tuple[int, int], int] = {}
        clocks = machine.clocks
        queue = machine.driver.queue
        free_at = queue.free_at
        busy = queue.busy_time
        # Residency lists are maintained even with capacity modelling
        # disabled (note_resident is unconditional in the driver).
        lrus = machine.capacity._lru
        walk_hist: dict[int, int] = {}
        local_extra = 0
        shoot_total = 0
        grit = mode == "grit"
        if grit:
            pa = machine.policy.pa_cache
            pa_lines = pa._lines
            pa_cap = pa._entries
            pa_hits = 0
            pa_misses = 0
            service_meta = self._virgin_service_meta
        #: page -> current exclusive holder, as the run moves pages.
        holder: dict[int, int] = {}
        #: page -> final holder, for pages this run actually migrated.
        install: dict[int, int] = {}
        inst_ks: list[int] = []

        for k in range(n):
            g = gpu_l[k]
            page = page_l[k]
            w = weight_l[k]
            h = holder.get(page, -2)
            if h == -2:
                if plain:
                    o = own0_l[k]
                    m0 = map0_l[k]
                else:
                    o = HOST  # non-plain lanes only admit virgin pages
                    m0 = False
            else:
                o = h
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
                    bits = pol_l[k]
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
                if grit:
                    if page in pa_lines:
                        del pa_lines[page]
                        pa_lines[page] = None
                        pa_hits += 1
                        service = service_virgin
                    else:
                        if len(pa_lines) >= pa_cap:
                            del pa_lines[next(iter(pa_lines))]
                        pa_lines[page] = None
                        pa_misses += 1
                        service = service_meta
                else:
                    service = service_virgin
                pcie_counts[g] += 1
            elif o == g:
                # Holder faulting on its own unmapped page: remap only.
                service = service_remap
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
                    service = service_bounce
                else:
                    service = service_pull
                pair = (o, g) if o < g else (g, o)
                nv_pairs[pair] = nv_pairs.get(pair, 0) + 1
            fault_counts[g] += 1
            inst_ks.append(k)
            holder[page] = g
            install[page] = g
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
            lru = lrus[g]
            lru.pop(page, None)
            lru[page] = None

        n_faults = len(inst_ks)
        queue.advance_to(free_at, busy, n_faults)
        self._apply_tlb_counts(
            l1_hits, l1_misses, l2_hits, l2_misses, inval_l1, inval_l2,
            walk_hist,
        )
        stats = machine.stats
        page_size = self._page_size
        pt = machine.page_tables
        topology = machine.topology
        if n_faults:
            self._count_faults(
                fault_counts,
                idx_run[np.array(inst_ks, dtype=np.int64)],
            )
            stats.add("fault.page", n_faults)
            if mode == "oasis":
                stats.add("oasis.private_fault", n_faults)
            stats.add("migration.count", n_faults)
            stats.add("migration.bytes", n_faults * page_size)
            pages_arr = np.fromiter(
                install.keys(), dtype=np.int64, count=len(install)
            )
            gpus_arr = np.fromiter(
                install.values(), dtype=np.int64, count=len(install)
            )
            pt.bulk_install_exclusive(pages_arr - self._first_page, gpus_arr)
            # Migration resets the whole 64 KB counter group, which can
            # clear neighbouring pages' counts — replay exactly.
            counters = machine.access_counters
            if counters.active_counters:
                for k in inst_ks:
                    counters.reset_group(page_l[k])
            if shoot_total:
                stats.add("shootdown.count", shoot_total)
            n_pcie = sum(pcie_counts)
            if n_pcie:
                stats.add("traffic.pcie_bytes", n_pcie * page_size)
                for g, count in enumerate(pcie_counts):
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
        if grit:
            pa.hits += pa_hits
            pa.misses += pa_misses
            if pa_misses:
                stats.add("grit.pa_cache_miss", pa_misses)
        if local_extra:
            stats.add("access.local", local_extra)

    def _run_uniform(self, i: int, j: int) -> None:
        """Replay records ``[i, j)`` under access-counter or duplication.

        Both policies resolve every record as a fixed function of the
        page's entry, the requester's access counter and the TLBs, so
        one fused loop replays them all: local and remote accesses,
        page faults, protection faults and counter-triggered group
        migrations.  Each touched page's ``(owner, copies, mapped,
        writable)`` and each touched counter live in local dicts, seeded
        from the tables on first touch and written back once at the end
        (:meth:`PageTables.store_entries`,
        :meth:`AccessCounterFile.store_counts`).  Every branch repeats
        the float operations of ``Machine.access``, ``Machine._fault``,
        the policy and the driver primitive it stands for, in their
        order; the TLB, residency-LRU and FIFO recurrences advance in
        place, and stats and link traffic are summed and applied after
        the loop, creating exactly the keys the per-record path would.
        A state neither policy can reach (a protection fault under
        access-counter, a remote mapping under duplication) is handed to
        the policy, which raises as it does on the per-record path.
        """
        from repro.sim.machine import REMOTE_ACCESS_BYTES

        machine = self.machine
        policy = machine.policy
        pt = machine.page_tables
        entry = pt.entry
        counting = self._uniform == "counter"
        gpu_l = self._gpu[i:j].tolist()
        page_l = self._page[i:j].tolist()
        write_l = self._is_w[i:j].tolist()
        weight_l = self._weight[i:j].tolist()
        key_l = self._key[i:j].tolist()
        if counting:
            counters = machine.access_counters
            count_by_key = counters.count_by_key
            threshold = counters.threshold
            ppg = self._ppg
            obj_of_page = machine._obj_of_page
            first_page = self._first_page
            n_pages = pt.n_pages

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
        service_map = self._service_remap
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
        clocks = machine.clocks
        queue = machine.driver.queue
        free_at = queue.free_at
        busy = queue.busy_time
        n_requests = 0
        # Residency lists are maintained even with capacity modelling
        # disabled (note_resident is unconditional in the driver).
        lrus = machine.capacity._lru
        #: page -> [owner, copies, mapped, writable, policy bits].
        ent: dict[int, list[int]] = {}
        #: The entries of the pages this run changed.
        changed: dict[int, list[int]] = {}
        #: counter key -> count; 0 stands for a popped key.
        counts: dict[int, int] = {}
        local_w = host_w = remote_w = 0
        n_page = n_prot = 0
        n_local_map = n_remote_map = n_migrate = 0
        n_dup = n_remap = n_demote = n_collapse = n_victims = n_shot = 0

        def shootdown(page: int, victims: int) -> float:
            """UVMDriver._shootdown: invalidate, return the PTE cost."""
            cost = 0.0
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

        def make_resident(gpu: int, page: int) -> None:
            """CapacityManager.note_resident."""
            lru = lrus[gpu]
            lru.pop(page, None)
            lru[page] = None

        for g, page, is_w, w, key in zip(
            gpu_l, page_l, write_l, weight_l, key_l
        ):
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
            if not mapped & bit or (
                is_w and copies & bit and not writable & bit
            ):
                # A page fault, or a write to a read-only duplicate: a
                # protection fault, which only duplication resolves.
                protection = mapped & bit
                c += cost / mem_par
                fault_counts[g] += 1
                fault_pages.append(page)
                if protection:
                    if counting:
                        policy.on_protection_fault(g, page)  # raises
                    n_prot += 1
                else:
                    n_page += 1
                if counting:
                    # map_local when the copy is resident, else map_remote.
                    st[2] = mapped | bit
                    if copies & bit:
                        st[3] = writable | bit
                        n_local_map += 1
                    else:
                        st[3] = writable & ~bit
                        n_remote_map += 1
                    service = service_map
                elif is_w:
                    # UVMDriver.collapse.
                    victims = mapped & ~bit
                    res = shootdown(page, victims)
                    n_victims += victims.bit_count()
                    n_shot += victims.bit_count()
                    others = copies & ~bit
                    if others:
                        src = (others & -others).bit_length() - 1
                        extra = others.bit_count() - 1
                        if extra:
                            res += overhead_ns * extra
                        release(page, others)
                    else:
                        src = owner
                    if not copies & bit:
                        res += pcie_ns if src == HOST else nvlink_ns
                        moves[src, g] = moves.get((src, g), 0) + 1
                    make_resident(g, page)
                    n_collapse += 1
                    res += pte_ns
                    st[0] = g
                    st[1] = st[2] = st[3] = bit
                    service = occ_ns + res
                else:
                    # UVMDriver.duplicate (coherent: no writer survives).
                    st[1] = copies | bit
                    st[2] = mapped | bit
                    st[3] = 0
                    if copies & bit:
                        n_remap += 1
                        res = pte_ns
                    else:
                        src = (
                            (copies & -copies).bit_length() - 1
                            if copies else owner
                        )
                        res = pcie_ns if src == HOST else nvlink_ns
                        moves[src, g] = moves.get((src, g), 0) + 1
                        writers = mapped & writable
                        if writers:
                            shootdown(page, writers & -writers)
                            n_shot += 1
                            res += pte_ns
                            n_demote += 1
                        make_resident(g, page)
                        n_dup += 1
                        res += pte_ns
                    service = occ_ns + res
                changed[page] = st
                start = free_at if free_at > c else c
                free_at = start + service
                busy += service
                n_requests += 1
                c = c + ((free_at - c) + fault_service) / fault_par
                if protection:
                    # Every access of the record then writes locally.
                    c += local_ns * w / mem_par
                    local_w += w
                    clocks[g] = c
                    continue
                w -= 1
                if w <= 0:
                    clocks[g] = c
                    continue
                # The remaining accesses retry the translation — an L1
                # hit, as no resolution shoots down the requester — and
                # proceed with the fresh mapping, which grants them.
                l1_hits[g] += 1
                cost = l1_cost
                owner, copies, mapped, writable, _bits = st
            if copies & bit:
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
                cs = ent.get(cand)
                if cs is None:
                    cs = ent[cand] = list(entry(cand))
                c_owner, c_copies, c_mapped, _w, _b = cs
                if c_copies & bit or (cand != page and c_owner != owner):
                    continue
                # UVMDriver.migrate: the requester holds no copy, so the
                # data always moves, from the lowest other GPU copy or
                # else the owner.
                res = shootdown(cand, c_mapped)
                n_shot += c_mapped.bit_count()
                if c_copies:
                    src = (c_copies & -c_copies).bit_length() - 1
                    release(cand, c_copies)
                else:
                    src = c_owner
                res += pcie_ns if src == HOST else nvlink_ns
                moves[src, g] = moves.get((src, g), 0) + 1
                make_resident(g, cand)
                res += pte_ns
                cost += res
                migrated += 1
                cs[0] = g
                cs[1] = cs[2] = cs[3] = bit
                changed[cand] = cs
            # The trip and every migration reset the group's counters.
            base = key - g
            for gkey in range(base, base + n_gpus):
                counts[gkey] = 0
            if migrated:
                n_migrate += migrated
                # Machine.charge_driver_op: no fault_service_ns.
                service = occ_ns + cost
                start = free_at if free_at > c else c
                free_at = start + service
                busy += service
                n_requests += 1
                c = c + (free_at - c) / fault_par
            clocks[g] = c

        # Write back the local state and apply the summed effects.
        pt.store_entries(changed)
        if counting:
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
        page_size = self._page_size
        for name, count in (
            ("access.local", local_w),
            ("access.host", host_w),
            ("access.remote", remote_w),
            ("fault.page", n_page),
            ("fault.protection", n_prot),
            ("collapse.protection_triggered", n_prot),
            ("local_map.count", n_local_map),
            ("remote_map.count", n_remote_map),
            ("migration.count", n_migrate),
            ("migration.bytes", n_migrate * page_size),
            ("migration.counter_triggered", n_migrate),
            ("duplication.count", n_dup),
            ("duplication.bytes", n_dup * page_size),
            ("duplication.remap", n_remap),
            ("duplication.demotions", n_demote),
            ("collapse.count", n_collapse),
            ("shootdown.count", n_shot),
        ):
            if count:
                add(name, count)
        if n_collapse:
            # Every collapse adds its victim count, zero included.
            add("collapse.invalidated_copies", n_victims)
        topology = machine.topology
        n_pcie = n_nvlink = 0
        for (src, dst), count in moves.items():
            topology.record_transfer_bulk(
                src, dst, count * page_size, count
            )
            if src == HOST:
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
