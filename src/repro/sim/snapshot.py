"""Phase-boundary machine snapshots for prefix memoization.

A simulation is a deterministic fold over its trace's phases: the machine
state at any phase boundary is a pure function of (config, trace prefix,
policy identity and the decisions it made so far).  This module gives
that prefix a content-addressed name, serializes the machine state at
selected boundaries and keeps the snapshots in a :class:`PhaseMemo`, so
a later run of the same identity resumes from the deepest one instead of
re-simulating the prefix (``docs/MODEL.md`` §12).  The tier is off
unless ``repro.harness.configure(memo=True)`` turns it on; no command
does.

The prefix key chains two ingredients:

* the **run identity** — the same content hash the result cache uses
  (:func:`repro.harness.diskcache.cache_key`: simulator version, replay
  path, full config, app, footprint, seed, policy + canonical kwargs);
* the **trace prefix** — a rolling sha256 over each phase's record
  arrays plus the object table (:func:`trace_prefix_chain`), so a
  workload-generator change can never resurrect a stale snapshot.

Each snapshot also carries a **decision digest**: a sha256 over the
page tables' placement state (owner / copies / mapped / writable /
policy bits, :func:`decision_digest`) at its boundary.  Determinism
makes it implied by the key, so it is an integrity check verified on
restore rather than part of the lookup key.

Serialization is a single :mod:`pickle` graph over the machine's mutable
components; back-references to the immutable scaffolding (the machine
itself, its config, trace, objects, tracer) are swapped for persistent-id
tokens so they re-bind to the *resuming* machine's instances on load.
A snapshot that fails any validation — unpicklable, wrong version or
index, missing component, decision digest mismatch — raises
:class:`SnapshotError` before the machine is touched; the caller
quarantines it and falls back to cold replay.
"""

from __future__ import annotations

import hashlib
import io
import math
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.workloads.base import PhaseTrace, Trace

#: Bump whenever the snapshot payload layout or any captured component's
#: state shape changes; old snapshots become unreachable (and harmless).
#: v2: TLBs carry a ``lookups`` counter, the driver a co-scheduling ref.
#: v3: the driver binds its page size and PTE latencies; the topology
#: carries an ordered-pair link table.
#: v4: the driver carries a ``local_map`` trace sink.
#: v5: the driver, capacity manager, links and topology drop their
#: fault-injection and co-scheduling state.
#: v6: the page tables drop their ``version`` counter.
#: v7: the driver drops its metrics-registry fields.
#: v8: the page tables drop their numpy mirrors; the payload carries one
#: decision digest instead of a per-phase chain.
SNAPSHOT_VERSION = 8

#: Ceiling on stored boundaries per run.  Long traces (lenet/vgg/resnet
#: have 128-158 phases) stride their boundaries so a run never writes
#: more than this many snapshots; the deepest interior boundary is
#: always kept, because "everything but the final phase" is the resume
#: point a warm run actually uses.
MAX_SNAPSHOTS = 8

#: Budget of :class:`PhaseMemo`'s in-memory tier; the least recently
#: used snapshots are dropped past it.
MEM_BUDGET_BYTES = 256 * 1024 * 1024


class SnapshotError(RuntimeError):
    """A snapshot failed validation and must not be restored."""


# -- content digests -------------------------------------------------------


def phase_digest(phase: "PhaseTrace") -> str:
    """Content digest of one phase's record arrays (cached on the phase)."""
    digest = getattr(phase, "_memo_digest", None)
    if digest is None:
        h = hashlib.sha256()
        h.update(
            repr((phase.name, bool(phase.explicit), len(phase.gpu))).encode()
        )
        for arr in (phase.gpu, phase.page, phase.write, phase.weight):
            contiguous = np.ascontiguousarray(arr)
            h.update(str(contiguous.dtype).encode())
            h.update(contiguous.tobytes())
        digest = h.hexdigest()
        phase._memo_digest = digest
    return digest


def trace_prefix_chain(trace: "Trace") -> list[str]:
    """Rolling digests of the trace's phase prefixes (cached on the trace).

    ``chain[k]`` covers the object table, the trace header and the first
    ``k`` phases' full record content, so ``chain[k]`` names exactly the
    input a machine has consumed when it stands at the boundary after
    phase ``k - 1``.
    """
    chain = getattr(trace, "_memo_prefix_chain", None)
    if chain is None:
        h = hashlib.sha256()
        header = (
            trace.name, trace.n_gpus, trace.page_size,
            trace.first_page, trace.n_pages,
        )
        objects = tuple(
            (o.name, o.size_bytes, o.obj_id, o.alloc_phase, o.free_phase,
             o.first_page, o.n_pages)
            for o in trace.objects
        )
        h.update(repr((header, objects)).encode())
        chain = [h.hexdigest()]
        for phase in trace.phases:
            link = hashlib.sha256()
            link.update(chain[-1].encode())
            link.update(phase_digest(phase).encode())
            chain.append(link.hexdigest())
        trace._memo_prefix_chain = chain
    return chain


def decision_digest(page_tables) -> str:
    """Digest of every placement/migration decision made so far.

    Hashes the page tables' five columns (owner, copy / mapped /
    writable masks, policy bits) as int64 arrays — the complete
    observable outcome of the policy's placement decisions.
    """
    h = hashlib.sha256()
    for column in (
        page_tables._owner, page_tables._copy_mask,
        page_tables._mapped_mask, page_tables._writable_mask,
        page_tables._policy,
    ):
        h.update(np.array(column, dtype=np.int64).tobytes())
    return h.hexdigest()


def phase_key(base_key: str, n_done: int, prefix_digest: str) -> str:
    """Lookup key for the snapshot taken after ``n_done`` phases."""
    blob = f"snap:{SNAPSHOT_VERSION}:{base_key}:{n_done}:{prefix_digest}"
    return hashlib.sha256(blob.encode()).hexdigest()


def snapshot_boundaries(n_phases: int, limit: int = MAX_SNAPSHOTS) -> tuple:
    """Phase indices after which a snapshot is stored.

    All interior boundaries when there are at most ``limit``; otherwise
    every ``stride``-th plus the deepest one.  The boundary after the
    final phase is never stored — the whole-result cache already covers
    completed runs.
    """
    interior = n_phases - 1
    if interior <= 0:
        return ()
    if interior <= limit:
        return tuple(range(interior))
    stride = math.ceil(interior / limit)
    picks = {interior - 1}
    picks.update(range(stride - 1, interior, stride))
    return tuple(sorted(picks))


# -- serialization ---------------------------------------------------------

#: Payload keys holding the machine components that restore() swaps in.
_COMPONENTS = (
    "stats", "page_tables", "tlbs", "access_counters", "capacity",
    "topology", "driver", "policy",
)


class _SnapshotPickler(pickle.Pickler):
    """Pickles machine state, tokenizing the immutable scaffolding.

    The policy (and potentially other components) hold back-references
    to the machine, its config, trace, tracer and the trace's ObjectDef /
    Allocation instances.  Those are shared, immutable run inputs — not
    state — so they serialize as persistent-id tokens and re-bind to the
    restoring machine's own instances.
    """

    def __init__(self, fh, machine: "Machine") -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        tokens: dict[int, tuple] = {
            id(machine): ("machine",),
            id(machine.config): ("config",),
            id(machine.trace): ("trace",),
            id(machine.tracer): ("tracer",),
            id(machine.verifier): ("verifier",),
        }
        for obj in machine.trace.objects:
            tokens[id(obj)] = ("objdef", obj.obj_id)
            tokens[id(obj.allocation)] = ("alloc", obj.obj_id)
        self._tokens = tokens

    def persistent_id(self, obj):
        return self._tokens.get(id(obj))


class _SnapshotUnpickler(pickle.Unpickler):
    def __init__(self, fh, machine: "Machine") -> None:
        super().__init__(fh)
        self._machine = machine
        self._objects = {o.obj_id: o for o in machine.trace.objects}

    def persistent_load(self, pid):
        machine = self._machine
        kind = pid[0]
        if kind == "machine":
            return machine
        if kind == "config":
            return machine.config
        if kind == "trace":
            return machine.trace
        if kind == "tracer":
            return machine.tracer
        if kind == "verifier":
            return machine.verifier
        if kind == "objdef":
            return self._objects[pid[1]]
        if kind == "alloc":
            return self._objects[pid[1]].allocation
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def capture(machine: "Machine", index: int, now: float,
            phases: list) -> bytes:
    """Serialize the machine state at the boundary after phase ``index``.

    Must be called at the quiescent point the run loop reaches after
    ``_do_frees`` — clocks synchronized, driver queue drained to ``now``
    — which is exactly the state the next iteration starts from.
    """
    payload = {
        "version": SNAPSHOT_VERSION,
        "index": index,
        "now": now,
        "digest": decision_digest(machine.page_tables),
        "phases": list(phases),
        "clocks": list(machine.clocks),
        "stats": machine.stats,
        "page_tables": machine.page_tables,
        "tlbs": machine.tlbs,
        "access_counters": machine.access_counters,
        "capacity": machine.capacity,
        "topology": machine.topology,
        "driver": machine.driver,
        "policy": machine.policy,
        "l2_miss_policy_counts": machine.l2_miss_policy_counts,
        "allocated": set(machine._allocated),
    }
    buf = io.BytesIO()
    _SnapshotPickler(buf, machine).dump(payload)
    return buf.getvalue()


def restore(machine: "Machine", blob: bytes,
            expect_index: int | None = None) -> dict:
    """Validate ``blob`` and install its state into ``machine``.

    Every check runs before the machine is touched, so a failing
    snapshot leaves the machine pristine for cold replay.  Returns the
    payload (``index`` / ``now`` / ``phases`` / ``digest``).
    """
    try:
        payload = _SnapshotUnpickler(io.BytesIO(blob), machine).load()
    except Exception as exc:
        raise SnapshotError(f"snapshot deserialization failed: {exc!r}") from exc
    if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError("snapshot version mismatch")
    index = payload.get("index")
    if expect_index is not None and index != expect_index:
        raise SnapshotError(
            f"snapshot is for boundary {index}, expected {expect_index}"
        )
    missing = [k for k in _COMPONENTS if k not in payload]
    if missing:
        raise SnapshotError(f"snapshot missing components: {missing}")
    if decision_digest(payload["page_tables"]) != payload.get("digest"):
        raise SnapshotError("decision digest mismatch")
    machine.stats = payload["stats"]
    machine.page_tables = payload["page_tables"]
    machine.tlbs = payload["tlbs"]
    machine.access_counters = payload["access_counters"]
    machine.capacity = payload["capacity"]
    machine.topology = payload["topology"]
    machine.driver = payload["driver"]
    machine.policy = payload["policy"]
    machine.clocks = list(payload["clocks"])
    machine.l2_miss_policy_counts = payload["l2_miss_policy_counts"]
    machine._allocated = set(payload["allocated"])
    return payload


# -- the store and its per-run sessions ------------------------------------


class PhaseMemo:
    """Two-tier content-addressed store of phase-boundary snapshots.

    A bounded in-memory tier (:data:`MEM_BUDGET_BYTES`) over an optional
    :class:`~repro.harness.diskcache.DiskCache` blob tier that shares the
    result cache's checksum/quarantine discipline.
    """

    def __init__(self, disk=None) -> None:
        self.disk = disk
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self.clear()

    def session(
        self,
        config,
        app: str,
        policy: str,
        *,
        footprint_mb: float | None = None,
        seed: int = 0,
        policy_kwargs: dict | None = None,
    ) -> "MemoSession":
        """Bind one run's full identity to this store.

        The session's ``base_key`` is the result cache's content hash
        (simulator version, replay-path flag, config, app, footprint,
        seed, policy + canonical kwargs).
        """
        from repro.harness.diskcache import cache_key

        base = cache_key(
            config, app, policy, footprint_mb, seed, dict(policy_kwargs or {})
        )
        return MemoSession(self, base)

    def get(self, key: str) -> bytes | None:
        blob = self._mem.get(key)
        if blob is not None:
            self._mem.move_to_end(key)
            return blob
        if self.disk is not None:
            blob = self.disk.load_blob(key)
            if blob is not None:
                self._mem_put(key, blob)
                return blob
        return None

    def contains(self, key: str) -> bool:
        if key in self._mem:
            return True
        return self.disk is not None and self.disk.has_blob(key)

    def put(self, key: str, blob: bytes) -> None:
        if self.contains(key):
            return
        self.stores += 1
        self.snapshot_bytes += len(blob)
        self._mem_put(key, blob)
        if self.disk is not None:
            try:
                self.disk.store_blob(key, blob)
            except OSError:
                # A blob tier that cannot accept writes (disk full,
                # permission, injected fault) must not kill a simulation
                # mid-run: the snapshot stays in the memory tier and the
                # next process pays a cold replay instead.
                self.io_errors += 1

    def _mem_put(self, key: str, blob: bytes) -> None:
        if len(blob) > MEM_BUDGET_BYTES:
            return
        old = self._mem.pop(key, None)
        if old is not None:
            self._mem_bytes -= len(old)
        self._mem[key] = blob
        self._mem_bytes += len(blob)
        while self._mem_bytes > MEM_BUDGET_BYTES and len(self._mem) > 1:
            _, evicted = self._mem.popitem(last=False)
            self._mem_bytes -= len(evicted)

    def discard(self, key: str, corrupt: bool = False) -> None:
        old = self._mem.pop(key, None)
        if old is not None:
            self._mem_bytes -= len(old)
        if corrupt:
            self.corrupt += 1
            if self.disk is not None:
                self.disk.quarantine_blob(key)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "snapshot_bytes": self.snapshot_bytes,
            "resumed_phases": self.resumed_phases,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "mem_entries": len(self._mem),
            "mem_bytes": self._mem_bytes,
        }

    def clear(self) -> None:
        """Drop the in-memory tier and zero every counter."""
        self._mem.clear()
        self._mem_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0
        self.corrupt = 0
        self.io_errors = 0


class MemoSession:
    """One run's binding to a :class:`PhaseMemo`.

    Created by :meth:`PhaseMemo.session` with the run's full identity
    already hashed into ``base_key``; the machine drives it through
    :meth:`resume` (once, before the phase loop) and :meth:`after_phase`
    (every boundary).
    """

    def __init__(self, memo: PhaseMemo, base_key: str) -> None:
        self.memo = memo
        self.base_key = base_key
        self._bounds: frozenset | None = None
        self._prefix: list[str] | None = None

    def _setup(self, trace) -> None:
        if self._prefix is None:
            self._prefix = trace_prefix_chain(trace)
            self._bounds = frozenset(snapshot_boundaries(len(trace.phases)))

    def _key(self, n_done: int) -> str:
        return phase_key(self.base_key, n_done, self._prefix[n_done])

    def resume(self, machine: "Machine"):
        """Deepest usable snapshot, installed; ``None`` for a cold start.

        Probes stored boundaries deepest-first; a corrupt snapshot is
        quarantined and the next-shallower one is tried, so damage only
        ever costs re-simulation, never correctness.

        Returns ``(start_index, now, phases)`` on a hit.
        """
        trace = machine.trace
        if len(trace.phases) < 2:
            return None
        self._setup(trace)
        memo = self.memo
        for boundary in sorted(self._bounds, reverse=True):
            n_done = boundary + 1
            key = self._key(n_done)
            blob = memo.get(key)
            if blob is None:
                continue
            try:
                payload = restore(machine, blob, expect_index=boundary)
            except SnapshotError:
                memo.discard(key, corrupt=True)
                continue
            memo.hits += 1
            memo.resumed_phases += n_done
            return n_done, payload["now"], list(payload["phases"])
        memo.misses += 1
        return None

    def after_phase(self, machine: "Machine", index: int, now: float,
                    phases: list) -> None:
        """Snapshot the boundary after phase ``index`` if it is selected."""
        self._setup(machine.trace)
        if index in self._bounds:
            key = self._key(index + 1)
            if not self.memo.contains(key):
                self.memo.put(key, capture(machine, index, now, phases))
