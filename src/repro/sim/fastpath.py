"""Vectorized steady-state replay — the simulator's fast path.

:class:`FastReplay` replays a phase's record arrays by scanning for
maximal runs of records that provably cannot fault or change page-table
state, and charging their compute/access latency, TLB traffic, stats and
link bytes in bulk instead of one :meth:`Machine.access` call per record.
The moment state *can* change, it falls back to the exact per-record
path, so every observable — clocks, stats, TLB hit/miss counts, traffic,
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

Besides the steady-state lane, a second *first-touch fault lane* bulk-
replays runs of records that provably WILL fault but whose resolution is
fully predictable: a virgin page (host owner, no copies, no mappings
anywhere, each page appearing once in the window) under a policy whose
first-touch handling is a fixed-cost host→GPU resolution — on-touch
migration (plain on-touch, OASIS' private filter, GRIT's on-touch
default) or duplication's read-duplicate/write-collapse.  The FIFO
queue, per-GPU clock and TLB recurrences are inherently sequential, so
the lane runs them in one fused scalar loop (no per-record method
dispatch, stat updates or page-table probes) and then applies the page-
table installs, stats, counters and link traffic in bulk.  Fault-
dominated phases (first kernels touching every page) are where replay
time actually goes, so this lane is what buys the headline speedup.

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
        self._page_facts: tuple | None = None

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

    def page_facts(self) -> tuple[np.ndarray, ...]:
        """Per-record facts about each page's occurrences in its chunk.

        Returns ``(mixed_until, prev, last_write, page_id)``, all
        chunk-relative: the last position of the record's page whose GPU
        differs from the page's last occurrence (-1 if none), the
        previous occurrence of the page (-1 if none), the page's last
        write (-1 if none), and an id per distinct page.  A window that
        is a suffix ``[s, chunk end)`` holds a page's occurrences from
        ``s`` on, so "one GPU only" is ``mixed_until < s``, "first in
        the window" is ``prev < s`` and "a write in the window" is
        ``last_write >= s``.
        """
        if self._page_facts is None:
            n = len(self.idx)
            facts = tuple(np.empty(n, dtype=_POS) for _ in range(4))
            for c0 in range(0, n, CHUNK):
                chunk = slice(c0, c0 + CHUNK)
                _chunk_page_facts(
                    self.idx[chunk], self.gpu[chunk], self.is_w[chunk],
                    [f[chunk] for f in facts],
                )
            self._page_facts = facts
        return self._page_facts


def _chunk_page_facts(
    page: np.ndarray, gpu: np.ndarray, is_w: np.ndarray,
    out: list[np.ndarray],
) -> None:
    """Write :meth:`PhaseArrays.page_facts` of one chunk into ``out``."""
    n = len(page)
    pos = np.argsort(page, kind="stable")  # positions, grouped by page
    head = np.ones(n, dtype=bool)  # first occurrence of its page
    head[1:] = page[pos[1:]] != page[pos[:-1]]
    starts = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    prev = np.empty(n, dtype=np.int64)
    prev[0] = -1
    prev[1:] = pos[:-1]
    prev[head] = -1
    last = pos[np.append(starts[1:], n) - 1]
    differs = gpu[pos] != gpu[last][group]
    mixed_until = np.maximum.reduceat(np.where(differs, pos, -1), starts)
    last_write = np.maximum.reduceat(np.where(is_w[pos], pos, -1), starts)
    for dst, src in zip(
        out, (mixed_until[group], prev, last_write[group], group)
    ):
        dst[pos] = src


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
        # First-touch fault lane: which (if any) predictable-resolution
        # mode the attached policy's virgin-page faults follow.
        policy = machine.policy
        if type(policy) is OnTouchPolicy:
            self._ft_mode: str | None = "plain"
        elif (
            isinstance(policy, OasisPolicy)
            and type(policy).on_fault is OasisPolicy.on_fault
            and policy.private_filter
        ):
            self._ft_mode = "oasis"
        elif type(policy) is GritPolicy:
            self._ft_mode = "grit"
        elif type(policy) is DuplicationPolicy:
            self._ft_mode = "dup"
        else:
            self._ft_mode = None
        self._page_size = config.page_size
        self._obj_arr = np.array(machine._obj_of_page, dtype=np.int64)
        # A virgin first touch always moves one page host->GPU over PCIe
        # (all host links are identical) and updates one PTE; the empty
        # shootdown and disabled capacity manager contribute exactly 0.0,
        # so this single float is the resolution every lane record pays.
        transfer_ns = machine.topology.link(HOST, 0).transfer_time_ns(
            config.page_size
        )
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
        self._page_facts: tuple[np.ndarray, ...] | None = None
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
        if self._counting:
            self._key_id, self._chunk_keys = arrays.key_facts()
        if self._ft_mode not in (None, "plain"):
            self._page_facts = arrays.page_facts()
        self._page = phase.page
        self._weight = phase.weight
        start = 0
        while start < n:
            stop = min(start + CHUNK, n)
            self._run_chunk(start, stop)
            start = stop

    def _run_chunk(self, c0: int, c1: int) -> None:
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
            # Other predictable policies only cover virgin pages (host
            # owner, zero copy/mapping masks — no shootdown victims, no
            # demotable writer).  Window repeats are allowed as long as
            # every occurrence comes from the same GPU: the first touch
            # installs a local mapping for that GPU, making the repeats
            # plain local accesses the fused loop replays in place.
            virgin = (
                (mapped_raw == 0)
                & (copies_raw == 0)
                & (owner_w == HOST)
            )
            if self._ft_mode in ("oasis", "grit"):
                virgin &= views["policy"][idx_w] == POLICY_ON_TOUCH
            mixed_until, prev, last_write, page_id = self._page_facts
            virgin &= mixed_until[window] < s
            if self._ft_mode == "dup":
                # A write repeat after a read first touch would hit the
                # read-only duplicate (protection fault); only pages
                # whose first touch is a write — collapse installs a
                # writable mapping — or that see no writes at all are
                # predictable.  A page is bad when its first record in
                # the window is a read and a write follows.
                page_w = page_id[window]
                bad = (
                    (prev[window] < s)
                    & ~self._is_w[window]
                    & (last_write[window] >= s)
                )
                bad_page = np.zeros(CHUNK, dtype=bool)
                bad_page[page_w[bad]] = True
                virgin &= ~bad_page[page_w]
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

        In plain on-touch mode every record touches a page in a simple
        exclusive state, so each access is one of: a local access by the
        current holder, a virgin first touch (host->GPU pull over PCIe),
        a cross-GPU bounce (holder PTE shootdown + NVLink pull), an
        NVLink pull from an unmapped owner, or a local remap — each with
        a fixed driver service time.  The other modes only admit virgin
        first touches (plus same-GPU repeats, replayed as local
        accesses).  The sequential state — TLB LRU dicts, the driver
        FIFO, per-GPU clocks, GRIT's PA-Cache, residency LRU lists and
        each page's current holder — is advanced in one fused scalar
        loop; everything order-insensitive (stats, page-table installs,
        counters, link bytes) is applied in bulk afterwards.  The
        arithmetic mirrors ``Machine.access`` + ``Machine._fault`` + the
        driver primitives operation for operation, so the results are
        bit-identical to per-record replay.
        """
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
        for g in range(n_gpus):
            if l1_hits[g] or l1_misses[g] or inval_l1[g] or inval_l2[g]:
                tlb = machine.tlbs[g]
                tlb.l1.hits += l1_hits[g]
                tlb.l1.misses += l1_misses[g]
                tlb.l1.lookups += l1_hits[g] + l1_misses[g]
                tlb.l2.hits += l2_hits[g]
                tlb.l2.misses += l2_misses[g]
                tlb.l2.lookups += l2_hits[g] + l2_misses[g]
                tlb.l1.invalidations += inval_l1[g]
                tlb.l2.invalidations += inval_l2[g]
        miss_counts = machine.l2_miss_policy_counts
        for bits, count in walk_hist.items():
            name = policy_name(bits)
            miss_counts[name] = miss_counts.get(name, 0) + count

        stats = machine.stats
        fault_keys = machine._fault_keys
        for g, count in enumerate(fault_counts):
            if count:
                stats.add(fault_keys[g], count)
        page_size = self._page_size
        pt = machine.page_tables
        topology = machine.topology
        if n_faults:
            inst = np.array(inst_ks, dtype=np.int64)
            inst_idx = idx_run[inst]
            unique_objs, obj_counts = np.unique(
                self._obj_arr[inst_idx], return_counts=True
            )
            object_keys = machine._object_fault_keys
            for oid, count in zip(
                unique_objs.tolist(), obj_counts.tolist()
            ):
                if oid >= 0:
                    stats.add(object_keys[oid], count)
            stats.add("fault.page", n_faults)
            if mode == "dup":
                write_inst = self._is_w[i:j][inst]
                n_write = int(np.count_nonzero(write_inst))
                n_read = n_faults - n_write
                if n_read:
                    stats.add("duplication.count", n_read)
                    stats.add("duplication.bytes", n_read * page_size)
                    read_sel = ~write_inst
                    pt.bulk_install_duplicate(
                        inst_idx[read_sel], gpu_run[inst][read_sel]
                    )
                if n_write:
                    stats.add("collapse.count", n_write)
                    # The per-record path adds len(victims) == 0 per
                    # collapse; replicate the zero-valued key it
                    # creates.
                    stats.add("collapse.invalidated_copies", 0)
                    pt.bulk_install_exclusive(
                        inst_idx[write_inst], gpu_run[inst][write_inst]
                    )
            else:
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
                pt.bulk_install_exclusive(
                    pages_arr - self._first_page, gpus_arr
                )
                # Migration resets the whole 64 KB counter group, which
                # can clear neighbouring pages' counts — replay exactly.
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
