"""Sweep-level fast path: shared replay state across a batch of runs.

A sweep (``run_sims_parallel``, the golden matrix, every ``fig*``
benchmark) executes many runs that differ only in policy over the same
(config, app, footprint, seed) **cohort**.  Three kinds of work are
shared across a cohort instead of being paid per run:

* the **trace** itself — generated once and reused (``get_workload``
  memoizes built traces), which also shares
* the **per-phase SoA replay arrays** — the vectorized replayer's
  derived arrays (int64 gpu lane, page offsets, write mask, gpu bit,
  counter-group key) are computed once per phase and cached *on the
  phase* (:meth:`FastReplay.run_phase`), so every policy variant replays
  the same structure-of-arrays pass over them; and
* the **phase prefix** — runs whose placement decisions agree through a
  boundary resume from one shared snapshot (:mod:`repro.sim.snapshot`).

Runs stay on the shared lane while their per-phase decision digests
match the cohort's reference chain and fork off at the first divergent
decision; :class:`SweepLanes` detects divergence by digest comparison
and counts the forks that ``last_sweep_summary`` reports.

:class:`PhaseMemo` is the snapshot store: a bounded in-memory tier
(``REPRO_MEMO_MEM_MB``, default 256) over an optional
:class:`~repro.harness.diskcache.DiskCache` blob tier that shares the
result cache's checksum/quarantine discipline.  All counters (hits,
misses, stores, snapshot bytes, resumed phases, corruption, forks) feed
``repro.harness.runner`` and the sweep summary.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict

from repro.sim.snapshot import MemoSession

#: Default in-memory snapshot budget (MB) when the env knob is unset.
DEFAULT_MEM_MB = 256.0


def _mem_budget_bytes(max_bytes: int | None) -> int:
    if max_bytes is not None:
        return max(1, int(max_bytes))
    raw = os.environ.get("REPRO_MEMO_MEM_MB", "").strip()
    mb = DEFAULT_MEM_MB
    if raw:
        try:
            mb = max(1.0, float(raw))
        except ValueError:
            pass
    return int(mb * 1024 * 1024)


class SweepLanes:
    """Decision-lane bookkeeping for one sweep's cohorts.

    The first run recorded in a cohort defines the reference chain (the
    shared lane); every later run's shared-prefix length is the longest
    digest-for-digest agreement with it.  A run *forks* when it leaves
    the lane before its own chain ends — i.e. its first divergent
    placement decision.  Fork counts are observability, not correctness:
    they tell a sweep report where policy variants stopped sharing work.

    A pool worker ships its runs' records to the parent sweep for global
    accounting: it calls :meth:`collect` before a run and :meth:`drain`
    after it.  Outside that window nothing is kept, so a process that
    records runs but never ships them does not accumulate their chains.
    """

    def __init__(self) -> None:
        self._cohorts: dict[str, dict] = {}
        self.runs = 0
        self.forks = 0
        #: Records kept since :meth:`collect` for the next :meth:`drain`;
        #: None while no worker is collecting.
        self._pending: list[tuple] | None = None

    def record(self, cohort: str, label: str, chain,
               resumed_phases: int = 0) -> None:
        chain = list(chain)
        self.runs += 1
        entry = self._cohorts.get(cohort)
        if entry is None:
            entry = {"reference": label, "chain": chain, "runs": {}}
            self._cohorts[cohort] = entry
        reference = entry["chain"]
        shared = 0
        for left, right in zip(reference, chain):
            if left != right:
                break
            shared += 1
        forked = label != entry["reference"] and shared < len(chain)
        if forked and label not in entry["runs"]:
            self.forks += 1
        entry["runs"][label] = {
            "phases": len(chain),
            "shared_prefix": shared,
            "forked": forked,
            "resumed_phases": resumed_phases,
        }
        if self._pending is not None:
            self._pending.append((cohort, label, chain, resumed_phases))

    def collect(self) -> None:
        """Start keeping records for :meth:`drain`, dropping older ones."""
        self._pending = []

    def drain(self) -> list[tuple]:
        """Pop the records kept since :meth:`collect` and stop keeping."""
        pending, self._pending = self._pending or [], None
        return pending

    def replay(self, records) -> None:
        """Merge records drained from another process's lanes."""
        for cohort, label, chain, resumed in records:
            self.record(cohort, label, chain, resumed_phases=resumed)

    def report(self) -> dict:
        return {
            "cohorts": len(self._cohorts),
            "runs": self.runs,
            "prefix_forks": self.forks,
            "by_cohort": {
                cohort[:12]: {
                    "reference": entry["reference"],
                    "runs": dict(entry["runs"]),
                }
                for cohort, entry in sorted(self._cohorts.items())
            },
        }

    def clear(self) -> None:
        self._cohorts.clear()
        self._pending = None
        self.runs = 0
        self.forks = 0


class PhaseMemo:
    """Two-tier content-addressed store of phase-boundary snapshots."""

    def __init__(self, disk=None, max_bytes: int | None = None) -> None:
        self.disk = disk
        self.max_bytes = _mem_budget_bytes(max_bytes)
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self._mem_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0
        self.corrupt = 0
        self.io_errors = 0
        self.lanes = SweepLanes()

    # -- sessions ----------------------------------------------------------

    def session(
        self,
        config,
        app: str,
        policy: str,
        *,
        footprint_mb: float | None = None,
        seed: int = 0,
        policy_kwargs: dict | None = None,
    ) -> MemoSession:
        """Bind one run's full identity to this store.

        ``base_key`` reuses the result cache's content hash (simulator
        version, replay-path flag, config, app, footprint, seed, policy
        + canonical kwargs); the cohort key drops the policy, grouping
        all variants over the same trace into one decision lane.
        """
        import dataclasses

        from repro.harness.diskcache import _canonical, cache_key
        from repro.sim.fastpath import force_slow_path

        kwargs = dict(policy_kwargs or {})
        base = cache_key(config, app, policy, footprint_mb, seed, kwargs)
        cohort_blob = json.dumps(
            {
                "config": dataclasses.asdict(config),
                "app": app,
                "footprint_mb": footprint_mb,
                "seed": seed,
                "slow_path": force_slow_path(),
            },
            sort_keys=True,
            default=repr,
        )
        cohort = hashlib.sha256(cohort_blob.encode()).hexdigest()
        label = policy
        if kwargs:
            label += json.dumps(_canonical(kwargs), sort_keys=True)
        return MemoSession(self, base, cohort, label)

    # -- the two-tier store ------------------------------------------------

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
        if len(blob) > self.max_bytes:
            return
        old = self._mem.pop(key, None)
        if old is not None:
            self._mem_bytes -= len(old)
        self._mem[key] = blob
        self._mem_bytes += len(blob)
        while self._mem_bytes > self.max_bytes and len(self._mem) > 1:
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

    # -- accounting --------------------------------------------------------

    def note_hit(self, resumed_phases: int) -> None:
        self.hits += 1
        self.resumed_phases += resumed_phases

    def note_miss(self) -> None:
        self.misses += 1

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "snapshot_bytes": self.snapshot_bytes,
            "resumed_phases": self.resumed_phases,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "prefix_forks": self.lanes.forks,
            "mem_entries": len(self._mem),
            "mem_bytes": self._mem_bytes,
        }

    def clear(self, counters_only: bool = False) -> None:
        """Reset counters (and, by default, drop the in-memory tier)."""
        if not counters_only:
            self._mem.clear()
            self._mem_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0
        self.corrupt = 0
        self.io_errors = 0
        self.lanes.clear()
