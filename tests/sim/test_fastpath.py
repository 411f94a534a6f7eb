"""Fast-path replay determinism: bulk replay must be bit-identical.

The fused-loop replayer (:mod:`repro.sim.fastpath`) promises that every
observable of a run — stats, traffic, clocks, TLB counters, per-phase
timings — is byte-for-byte what the per-record path produces.  These
tests hold it to that across every application and every registry
policy, with and without memory oversubscription, plus the supporting
primitives (the page-table numpy mirrors, the lexsort interleaver).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import (
    POLICY_FACTORIES,
    baseline_config,
    get_workload,
    make_policy,
    simulate,
)
from repro.config import HOST, SystemConfig
from repro.memory import (
    POLICY_COUNTER,
    POLICY_DUPLICATION,
    POLICY_ON_TOUCH,
    PageTables,
)
from repro.policies.grit import GritPolicy
from repro.policies.on_touch import OnTouchPolicy
from repro.sim.fastpath import force_slow_path
from repro.sim.machine import Machine
from repro.sim.snapshot import capture, decision_digest, restore
from repro.workloads import APPLICATION_ORDER
from repro.workloads.base import TraceBuilder

ALL_APPS = list(APPLICATION_ORDER)
POLICIES = ["on_touch", "duplication", "access_counter", "oasis", "grit",
            "oasis_inmem", "ideal", "static_advise"]

#: Every application under every policy, plus one OASIS ablation: with
#: the private filter off, first touches take the shared-fault path.
#: Each case is ``(policy, app, config overrides)``.
CASES = [
    pytest.param(policy, app, {}, id=f"{policy}-{app}")
    for app in ALL_APPS for policy in POLICIES
] + [
    pytest.param(("oasis", {"private_filter": False}), "st", {},
                 id="oasis_no_private_filter-st"),
]

#: Oversubscribed runs, which evict: Fig. 25's cells on every app, and
#: every policy on mm at a tighter factor and with distributed placement.
CAPACITY_CASES = [
    pytest.param(policy, app, {"oversubscription": 1.5},
                 id=f"{policy}@x1.5-{app}")
    for app in ALL_APPS for policy in ("on_touch", "oasis")
] + [
    pytest.param(policy, "mm", {"oversubscription": 2.0},
                 id=f"{policy}@x2-mm")
    for policy in POLICIES
] + [
    pytest.param(
        policy, "mm",
        {"oversubscription": 1.5, "initial_placement": "distributed"},
        id=f"{policy}@x1.5-distributed-mm",
    )
    for policy in POLICIES
]

#: Small but fault-rich footprint; keeps 127 paired runs affordable.
FOOTPRINT_MB = 3.0


def build_policy(spec):
    """A policy from its name, or from a ``(name, kwargs)`` pair."""
    name, kwargs = (spec, {}) if isinstance(spec, str) else spec
    return make_policy(name, **kwargs)


def run_pair(app: str, policy, monkeypatch, config=None):
    """One run on each path; returns (fast, slow) result dicts."""
    config = config or baseline_config()
    trace = get_workload(app, config, footprint_mb=FOOTPRINT_MB)
    monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
    fast = simulate(config, trace, build_policy(policy))
    monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
    slow = simulate(config, trace, build_policy(policy))
    return fast, slow


def run_machine_pair(app: str, policy, monkeypatch, config=None):
    """One run on each path; returns the (fast, slow) machines."""
    config = config or baseline_config()
    trace = get_workload(app, config, footprint_mb=FOOTPRINT_MB)
    machines = []
    for slow in (False, True):
        if slow:
            monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        else:
            monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        machine = Machine(config, trace, build_policy(policy))
        assert (machine._fast is None) == slow
        machine.run()
        machines.append(machine)
    return machines


def decision_state(policy) -> dict:
    """The policy's own decision state, which the fused lane advances."""
    state = {}
    controller = getattr(policy, "controller", None)
    if controller is not None:
        otable = controller.otable
        state["otable"] = (
            [(e.obj_id, e.policy, e.pf_count, e.reset_pending)
             for e in otable.entries()],
            otable.hits, otable.misses, otable.evictions,
        )
        state["controller"] = (
            controller.decisions, controller.resets,
            controller.kernel_resets, controller.implicit_phase_detections,
            list(controller.transitions.items()),
        )
    if isinstance(policy, GritPolicy):
        pa = policy.pa_cache
        state["grit"] = (
            [(page, dataclasses.astuple(meta))
             for page, meta in policy._meta.items()],
            list(pa._lines), pa.hits, pa.misses, policy.predictions,
        )
    shadow = getattr(policy, "shadow_map", None)
    if shadow is not None:
        state["inmem"] = (shadow.lookups, sorted(policy._warm_lines))
    return state


def replay_state(machine) -> dict:
    """The replay state the fast lanes advance in place or write back."""
    queue = machine.driver.queue
    return {
        "policy": decision_state(machine.policy),
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

    def test_capacity_runs_get_a_replayer(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        config = baseline_config(oversubscription=1.5)
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        for policy in ("on_touch", "oasis"):
            machine = Machine(config, trace, make_policy(policy))
            assert machine.capacity.enabled
            assert machine._fast is not None, policy

    def test_policy_without_a_loop_replays_per_record(self, config,
                                                      monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)

        class CountingOnTouch(OnTouchPolicy):
            def on_fault(self, gpu, page, is_write):
                self.stats.add("test.faults")
                return super().on_fault(gpu, page, is_write)

        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, CountingOnTouch())
        assert machine._fast is None
        result = machine.run()
        assert result.stats["test.faults"] == result.total_faults > 0


class TestDeterminism:
    @pytest.mark.parametrize("policy,app,overrides", CASES + CAPACITY_CASES)
    def test_fast_path_is_bit_identical(self, app, policy, overrides,
                                        monkeypatch):
        config = baseline_config(**overrides)
        fast, slow = run_pair(app, policy, monkeypatch, config=config)
        assert fast.total_time_ns == slow.total_time_ns
        assert fast.stats == slow.stats
        assert fast.traffic == slow.traffic
        assert fast.policy_histogram == slow.policy_histogram
        assert fast.l2_miss_policy_counts == slow.l2_miss_policy_counts
        assert fast.to_dict() == slow.to_dict()

    @pytest.mark.parametrize("policy,app,overrides", CASES + CAPACITY_CASES)
    def test_fast_path_leaves_identical_state(self, app, policy, overrides,
                                              monkeypatch):
        config = baseline_config(**overrides)
        fast, slow = run_machine_pair(app, policy, monkeypatch, config=config)
        # The counter file never keeps a tripped or reset counter.
        assert 0 not in fast.access_counters._counts.values()
        assert replay_state(fast) == replay_state(slow)

    def test_fast_path_takes_every_eviction_branch(self, monkeypatch):
        # Under OASIS at x1.5 the loop writes sole copies back, drops
        # duplicates and degrades duplication at a full GPU.
        config = baseline_config(oversubscription=1.5)
        fast, slow = run_machine_pair("mm", "oasis", monkeypatch,
                                      config=config)
        stats = fast.stats.as_dict()
        assert stats == slow.stats.as_dict()
        for name in ("eviction.count", "eviction.copy_dropped",
                     "oasis.duplication_degraded"):
            assert stats.get(name, 0) > 0, name

    @pytest.mark.parametrize("policy,factor", [
        pytest.param(
            policy, factor,
            id=policy if factor is None else f"{policy}@x{factor:g}",
        )
        for factor in (None, 1.5) for policy in POLICY_FACTORIES
    ])
    def test_uniform_policies_never_fall_back(self, policy, factor,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        config = baseline_config(oversubscription=factor)
        trace = get_workload("st", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy(policy))

        def refuse(*args):
            raise AssertionError("replayed a record per record")

        # Every chunk is one fused-loop run.
        monkeypatch.setattr(machine, "access", refuse)
        assert machine.run().total_faults > 0

    def test_distributed_placement_identical(self, monkeypatch):
        config = baseline_config(initial_placement="distributed")
        for policy in ("on_touch", "ideal", "static_advise"):
            fast, slow = run_pair("mm", policy, monkeypatch, config=config)
            assert fast.to_dict() == slow.to_dict(), policy

    @pytest.mark.parametrize("policy", ["access_counter", "duplication"])
    def test_distributed_placement_remaps_identical(self, policy, monkeypatch):
        # Pages start on a GPU without a mapping, so first touches by the
        # holder take the whole-chunk lane's local re-map branches.
        config = baseline_config(initial_placement="distributed")
        fast, slow = run_pair("st", policy, monkeypatch, config=config)
        assert fast.to_dict() == slow.to_dict()
        remaps = {"access_counter": "local_map.count",
                  "duplication": "duplication.remap"}
        assert fast.stats[remaps[policy]] > 0


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
            lambda: pt.store_entries({
                105: [0, 0b0001, 0b0001, 0b0001, POLICY_DUPLICATION],
                106: [3, 0b1000, 0b1000, 0b1000, POLICY_DUPLICATION],
                108: [HOST, 0b0110, 0b0110, 0, POLICY_ON_TOUCH],
                109: [2, 0b0100, 0b0101, 0b0100, POLICY_ON_TOUCH],
            }),
            lambda: pt.install_exclusive(105, 2),  # bounce from GPU 0
            lambda: pt.release_to_host(100),
            lambda: pt.set_exclusive(106, HOST),
        ]
        for step in steps:
            step()
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
