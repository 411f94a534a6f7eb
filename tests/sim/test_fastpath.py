"""Fast-path replay determinism: bulk replay must be bit-identical.

The vectorized replayer (:mod:`repro.sim.fastpath`) promises that every
observable of a run — stats, traffic, clocks, TLB counters, per-phase
timings — is byte-for-byte what the per-record path produces.  These
tests hold it to that across every application and the policies with
bulk fault lanes, plus the supporting bulk primitives (``translate_run``,
the page-table numpy mirrors, the per-chunk mask facts cached with the
phase, the lexsort interleaver).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import baseline_config, get_workload, make_policy, simulate
from repro.config import HOST, SystemConfig
from repro.memory import (
    POLICY_COUNTER,
    POLICY_DUPLICATION,
    POLICY_ON_TOUCH,
    PageTables,
)
from repro.sim.fastpath import CHUNK, PhaseArrays, force_slow_path
from repro.sim.machine import Machine
from repro.sim.snapshot import capture, decision_digest, restore
from repro.tlb import TLBHierarchy
from repro.workloads import APPLICATION_ORDER
from repro.workloads.base import PhaseTrace, TraceBuilder

ALL_APPS = list(APPLICATION_ORDER)
POLICIES = ["on_touch", "duplication", "access_counter", "oasis", "grit"]

#: Small but fault-rich footprint; keeps 55 paired runs affordable.
FOOTPRINT_MB = 3.0


def run_pair(app: str, policy: str, monkeypatch, config=None):
    """One run on each path; returns (fast, slow) result dicts."""
    config = config or baseline_config()
    trace = get_workload(app, config, footprint_mb=FOOTPRINT_MB)
    monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
    fast = simulate(config, trace, make_policy(policy))
    monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
    slow = simulate(config, trace, make_policy(policy))
    return fast, slow


def run_machine_pair(app: str, policy: str, monkeypatch):
    """One run on each path; returns the (fast, slow) machines."""
    config = baseline_config()
    trace = get_workload(app, config, footprint_mb=FOOTPRINT_MB)
    machines = []
    for slow in (False, True):
        if slow:
            monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        else:
            monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        machine = Machine(config, trace, make_policy(policy))
        assert (machine._fast is None) == slow
        machine.run()
        machines.append(machine)
    return machines


def replay_state(machine) -> dict:
    """The replay state the fast lanes advance in place or write back."""
    queue = machine.driver.queue
    return {
        "decisions": decision_digest(machine.page_tables),
        "counters": dict(machine.access_counters._counts),
        "residency": [list(lru) for lru in machine.capacity._lru],
        "tlbs": [
            (
                [list(entries) for entries in level._sets],
                level.hits, level.misses, level.lookups,
                level.invalidations,
            )
            for tlb in machine.tlbs
            for level in (tlb.l1, tlb.l2)
        ],
        "queue": (queue.free_at, queue.busy_time, queue.request_count),
        "clocks": list(machine.clocks),
        "links": [
            (link.name, link.bytes_transferred, link.message_count)
            for link in machine.topology.links()
        ],
    }


class TestForceSlowPath:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        assert not force_slow_path()
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        assert force_slow_path()
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "0")
        assert not force_slow_path()

    def test_slow_path_disables_replayer(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        assert machine._fast is None

    def test_capacity_manager_disables_replayer(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        config = baseline_config(oversubscription=1.5)
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        assert machine._fast is None


class TestDeterminism:
    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fast_path_is_bit_identical(self, app, policy, monkeypatch):
        fast, slow = run_pair(app, policy, monkeypatch)
        assert fast.total_time_ns == slow.total_time_ns
        assert fast.stats == slow.stats
        assert fast.traffic == slow.traffic
        assert fast.policy_histogram == slow.policy_histogram
        assert fast.l2_miss_policy_counts == slow.l2_miss_policy_counts
        assert fast.to_dict() == slow.to_dict()

    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fast_path_leaves_identical_state(self, app, policy, monkeypatch):
        fast, slow = run_machine_pair(app, policy, monkeypatch)
        # The counter file never keeps a tripped or reset counter.
        assert 0 not in fast.access_counters._counts.values()
        assert replay_state(fast) == replay_state(slow)

    @pytest.mark.parametrize("policy", ["access_counter", "duplication"])
    def test_uniform_policies_never_fall_back(self, policy, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        config = baseline_config()
        trace = get_workload("st", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy(policy))

        def refuse(*args):
            raise AssertionError("left the uniform lane")

        # Every chunk is one fused-loop run: no mask, no steady run and
        # no per-record replay.
        monkeypatch.setattr(machine, "access", refuse)
        monkeypatch.setattr(machine._fast, "_rebuild", refuse)
        monkeypatch.setattr(machine._fast, "_run_bulk", refuse)
        assert machine.run().total_faults > 0

    def test_distributed_placement_identical(self, monkeypatch):
        config = baseline_config(initial_placement="distributed")
        fast, slow = run_pair("mm", "on_touch", monkeypatch, config=config)
        assert fast.to_dict() == slow.to_dict()

    @pytest.mark.parametrize("policy", ["access_counter", "duplication"])
    def test_distributed_placement_remaps_identical(self, policy, monkeypatch):
        # Pages start on a GPU without a mapping, so first touches by the
        # holder take the uniform lane's local re-map branches.
        config = baseline_config(initial_placement="distributed")
        fast, slow = run_pair("st", policy, monkeypatch, config=config)
        assert fast.to_dict() == slow.to_dict()
        remaps = {"access_counter": "local_map.count",
                  "duplication": "duplication.remap"}
        assert fast.stats[remaps[policy]] > 0


class TestTranslateRun:
    def test_matches_translate_fast(self, config):
        rng = np.random.default_rng(11)
        pages = rng.integers(0, 4000, size=3000).tolist()
        a = TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
        b = TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
        costs_run, walk_positions = a.translate_run(pages)
        costs_ref = []
        walk_ref = []
        for pos, page in enumerate(pages):
            cost, l2_miss = b.translate_fast(page)
            costs_ref.append(cost)
            if l2_miss:
                walk_ref.append(pos)
        assert costs_run == costs_ref
        assert walk_positions == walk_ref
        for lvl_a, lvl_b in ((a.l1, b.l1), (a.l2, b.l2)):
            assert lvl_a.hits == lvl_b.hits
            assert lvl_a.misses == lvl_b.misses
            assert lvl_a._sets == lvl_b._sets


MIRRORS = ("owner", "copies", "mapped", "writable", "policy")


def assert_mirrors_current(pt) -> None:
    """All five numpy mirrors equal the list columns, page for page."""
    views = pt.bulk_views()
    n_gpus = pt.n_gpus
    base = pt._first_page
    for idx in range(pt.n_pages):
        page = base + idx

        def mask(test):
            return sum(1 << g for g in range(n_gpus) if test(g, page))

        expect = (
            pt.location(page), mask(pt.has_copy), mask(pt.is_mapped),
            mask(pt.is_writable), pt.policy(page),
        )
        assert tuple(int(views[name][idx]) for name in MIRRORS) == expect, (
            f"page {page}"
        )


class TestPageTableMirrors:
    def test_bulk_views_track_every_mutator(self):
        pt = PageTables(n_pages=12, n_gpus=4, first_page=100)
        pt.bulk_views()  # mirrors exist before any mutation
        steps = [
            lambda: pt.install_exclusive(100, 1),
            lambda: pt.map_remote(2, 100),
            lambda: pt.install_duplicate(100, 3),
            lambda: pt.install_duplicate(100, 1),  # already a holder
            lambda: pt.unmap(3, 100),
            lambda: pt.set_exclusive(101, 2),
            lambda: pt.map_local(2, 101, writable=True),
            lambda: pt.add_copy(0, 101),
            lambda: pt.map_local(0, 101, writable=False),
            lambda: pt.drop_copy(0, 101),
            lambda: pt.unmap_all_except(101, keep=2),
            lambda: pt.set_policy(102, POLICY_COUNTER),
            lambda: pt.set_policy_range(104, 4, POLICY_DUPLICATION),
            lambda: pt.bulk_install_exclusive(
                np.array([5, 6]), np.array([0, 3])
            ),
            lambda: pt.store_entries({
                108: [HOST, 0b0110, 0b0110, 0, POLICY_ON_TOUCH],
                109: [2, 0b0100, 0b0101, 0b0100, POLICY_ON_TOUCH],
            }),
            lambda: pt.install_exclusive(105, 2),  # bounce from GPU 0
            lambda: pt.release_to_host(100),
            lambda: pt.set_exclusive(106, HOST),
        ]
        for step in steps:
            version = pt.version
            step()
            assert pt.version == version + 1
            assert_mirrors_current(pt)
        # Marks pile up between reads and one flush settles them; past
        # one mark per page the mirrors are dropped and rebuilt instead.
        rng = np.random.default_rng(5)
        for n_steps, flushed in ((10, True), (200, False)):
            for _ in range(n_steps):
                page = 100 + int(rng.integers(12))
                gpu = int(rng.integers(4))
                if rng.random() < 0.5:
                    pt.install_exclusive(page, gpu)
                else:
                    pt.install_duplicate(page, gpu)
            assert (pt._views is not None) == flushed
            assert_mirrors_current(pt)
        pt.check_invariants()

    def test_bulk_views_track_mutations(self, config):
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("oasis"))
        machine.run()
        assert_mirrors_current(machine.page_tables)

    def test_snapshot_with_pending_marks(self, config):
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        machine.run()
        pt = machine.page_tables
        pt.bulk_views()
        for page in range(trace.first_page, trace.first_page + 8):
            pt.install_exclusive(page, 3)
        pending = list(pt._dirty)
        assert pending
        # Digest of a copy, so the original keeps its marks pending.
        expected = decision_digest(copy.deepcopy(pt))
        blob = capture(machine, 0, 0.0, [], [expected])
        assert pt._dirty == pending  # capture puts the marks back
        fresh = Machine(config, trace, make_policy("on_touch"))
        restore(fresh, blob, expect_index=0)  # validates the digest
        assert decision_digest(fresh.page_tables) == expected
        assert decision_digest(pt) == expected
        assert_mirrors_current(fresh.page_tables)


class TestPhaseArrays:
    """The cached per-chunk facts answer the window scans they replace."""

    def _phase(self, n, n_pages, seed):
        rng = np.random.default_rng(seed)
        return PhaseTrace(
            name="p", explicit=True,
            gpu=rng.integers(0, 4, n).astype(np.uint8),
            page=1000 + rng.integers(0, n_pages, n),
            write=(rng.random(n) < 0.3).astype(np.uint8),
            weight=rng.integers(1, 5, n),
        )

    def test_page_facts_match_window_scans(self):
        n = CHUNK + 300
        phase = self._phase(n, n_pages=60, seed=3)
        mixed_until = PhaseArrays(phase, 1000, 4, 16).page_facts()
        page = phase.page.tolist()
        gpu = phase.gpu.tolist()
        starts = list(range(CHUNK, n)) + [0, 1, 17, CHUNK - 5]
        for s in starts:
            c1 = min((s // CHUNK + 1) * CHUNK, n)
            s_rel = s % CHUNK
            gpus: dict[int, set] = {}
            for r in range(s, c1):
                gpus.setdefault(page[r], set()).add(gpu[r])
            for r in range(s, c1):
                assert (mixed_until[r] < s_rel) == (len(gpus[page[r]]) == 1)

    def test_key_facts_factorize_each_chunk(self):
        n = 2 * CHUNK + 100
        arrays = PhaseArrays(self._phase(n, n_pages=5000, seed=4), 1000, 4, 16)
        key_id, chunk_keys = arrays.key_facts()
        assert len(chunk_keys) == 3
        for c, keys in enumerate(chunk_keys):
            chunk = slice(c * CHUNK, (c + 1) * CHUNK)
            assert keys.tolist() == np.unique(arrays.key[chunk]).tolist()
            assert np.array_equal(keys[key_id[chunk]], arrays.key[chunk])


class TestInterleaver:
    def test_burst_round_robin_order(self):
        b = TraceBuilder("t", n_gpus=2, page_size=4096, burst=2)
        obj = b.alloc("A", 16 * 4096)
        b.begin_phase("p")
        for offset in range(4):
            b.emit(0, obj, offset, write=False)
        for offset in range(4):
            b.emit(1, obj, offset + 4, write=True)
        phase = b.end_phase()
        assert phase.gpu.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
        assert phase.page.tolist() == [
            obj.first_page + off for off in (0, 1, 4, 5, 2, 3, 6, 7)
        ]
        assert phase.write.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_uneven_streams_drain_in_rounds(self):
        b = TraceBuilder("t", n_gpus=3, page_size=4096, burst=2)
        obj = b.alloc("A", 32 * 4096)
        b.begin_phase("p")
        b.emit_block(0, obj, np.arange(5), write=False)
        b.emit(2, obj, 10, write=True)
        phase = b.end_phase()
        # Round 0: gpu0's first burst, gpu2's only record; round 1 and 2
        # drain gpu0's remainder.
        assert phase.gpu.tolist() == [0, 0, 2, 0, 0, 0]

    def test_mixed_emit_and_emit_block_keep_stream_order(self):
        b = TraceBuilder("t", n_gpus=1, page_size=4096, burst=8)
        obj = b.alloc("A", 16 * 4096)
        b.begin_phase("p")
        b.emit(0, obj, 0, write=False, weight=3)
        b.emit_block(0, obj, np.array([1, 2]), write=True, weight=2)
        b.emit(0, obj, 3, write=False)
        phase = b.end_phase()
        assert phase.page.tolist() == [
            obj.first_page + off for off in (0, 1, 2, 3)
        ]
        assert phase.write.tolist() == [0, 1, 1, 0]
        assert phase.weight.tolist() == [3, 2, 2, 1]
