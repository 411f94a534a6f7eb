"""Phase-boundary invariant verifier: hook semantics and counter laws."""

from __future__ import annotations

import random

import pytest

from repro import baseline_config, get_workload, make_policy, simulate
from repro.config import HOST
from repro.engine import StatCounters
from repro.sim.machine import Machine
from repro.verify import (
    NULL_VERIFIER,
    InvariantVerifier,
    InvariantViolation,
    check_counter_laws,
    check_machine_invariants,
    run_invariant_suite,
    verified_simulate,
)

from tests.conftest import make_trace, sweep_records


@pytest.fixture
def trace(config):
    return make_trace(
        {"a": 16, "b": 8},
        [
            sweep_records(range(4), "a", 16, False),
            sweep_records(range(4), "b", 8, True)
            + sweep_records([0, 1], "a", 8, False),
        ],
    )


def test_null_verifier_is_disabled_and_silent(config, trace):
    assert NULL_VERIFIER.enabled is False
    machine = Machine(config, trace, make_policy("on_touch"))
    assert machine.verifier is NULL_VERIFIER
    NULL_VERIFIER.after_phase(machine, 0, 0)
    NULL_VERIFIER.after_run(machine, None)
    assert NULL_VERIFIER.violations == ()


def test_verifier_checks_every_phase_boundary(config, trace):
    result, verifier = verified_simulate(config, trace, "oasis")
    assert verifier.checked_phases == len(trace.phases)
    assert verifier.violations == []
    assert result.total_time_ns > 0


def test_verified_run_is_bit_identical(config, trace):
    plain = simulate(config, trace, make_policy("oasis"))
    checked = simulate(
        config, trace, make_policy("oasis"), verifier=InvariantVerifier()
    )
    assert plain.to_dict() == checked.to_dict()


def test_verifier_does_not_disable_fast_path(config, trace):
    machine = Machine(
        config, trace, make_policy("on_touch"),
        verifier=InvariantVerifier(),
    )
    assert machine._fast is not None


@pytest.mark.parametrize("policy", ["on_touch", "oasis", "duplication",
                                    "ideal"])
def test_laws_hold_on_registry_workload(config, policy):
    trace = get_workload("i2c", config)
    _, verifier = verified_simulate(config, trace, policy)
    assert verifier.violations == []


def test_laws_hold_under_oversubscription(trace):
    config = baseline_config(oversubscription=1.5)
    _, verifier = verified_simulate(config, trace, "oasis")
    assert verifier.violations == []


def test_strict_verifier_raises_on_first_violation(config, trace,
                                                   monkeypatch):
    # Mutation smoke: silently drop one install counter and the
    # resolution-accounting law must trip at the first phase boundary.
    orig = StatCounters.add

    def dropping(self, name, amount=1.0):
        if name == "migration.count":
            return
        orig(self, name, amount)

    monkeypatch.setattr(StatCounters, "add", dropping)
    with pytest.raises(InvariantViolation, match="resolution accounting"):
        verified_simulate(config, trace, "on_touch")


def test_collecting_verifier_records_instead_of_raising(config, trace,
                                                        monkeypatch):
    orig = StatCounters.add

    def dropping(self, name, amount=1.0):
        if name == "fault.page":
            return
        orig(self, name, amount)

    monkeypatch.setattr(StatCounters, "add", dropping)
    _, verifier = verified_simulate(
        config, trace, "on_touch", strict=False
    )
    assert verifier.violations
    assert any("phase 0" in v for v in verifier.violations)


def test_counter_laws_flag_negative_counter(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    machine.stats.add("migration.count", -1e9)
    found = check_counter_laws(
        machine, replayed_accesses=trace.total_accesses
    )
    assert any("negative" in v for v in found)


def test_counter_laws_flag_fault_attribution_drift(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    machine.stats.add("fault.by_gpu.0", 7)
    found = check_counter_laws(machine)
    assert any("fault.by_gpu" in v for v in found)


def test_counter_laws_flag_unaccounted_link_traffic(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    replayed = trace.total_accesses
    assert check_counter_laws(machine, replayed_accesses=replayed) == []
    # One remote-access granule no counter saw.
    machine.topology.record_transfer(0, 1, 128)
    found = check_counter_laws(machine, replayed_accesses=replayed)
    assert any("traffic conservation" in v for v in found)


def test_counter_laws_flag_on_touch_migration_drift(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    assert check_counter_laws(machine) == []
    machine.stats.add("migration.count")
    found = check_counter_laws(machine)
    assert any("on_touch law" in v for v in found)


def test_structural_check_flags_tlb_incoherence(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    # Forge a stale translation: cached in the TLB, then unmapped
    # behind its back without a shootdown.
    pt = machine.page_tables
    gpu, page = next(
        (g, p)
        for p in range(trace.first_page, trace.first_page + trace.n_pages)
        for g in range(config.n_gpus)
        if pt.is_mapped(g, p)
    )
    machine.tlbs[gpu].translate_fast(page)
    pt.unmap(gpu, page)
    found = check_machine_invariants(machine)
    assert any("TLB caches unmapped page" in v for v in found)


def test_detects_planted_corruption(config, trace):
    machine = Machine(config, trace, make_policy("on_touch"))
    machine.run()
    assert check_machine_invariants(machine) == []
    # Corrupt the machine behind the bookkeeping's back: wipe the
    # copy set of a GPU-owned page, leaving a dangling owner.
    pt = machine.page_tables
    page = next(
        p
        for p in range(trace.first_page, trace.first_page + trace.n_pages)
        if pt.location(p) != HOST
    )
    pt._copy_mask[page - pt._first_page] = 0
    assert check_machine_invariants(machine) != []


def test_suite_runs_green_on_small_scope():
    report = run_invariant_suite(
        apps=("i2c",), policies=("on_touch", "oasis")
    )
    assert report["violations"] == []
    # 2 policies x (default + oversubscribed).
    assert report["checks"] == 4
    assert report["phases"] >= report["checks"]


# -- random driver-primitive sequences ---------------------------------------


def random_primitive_audit(
    seed: int,
    *,
    steps: int = 300,
    n_gpus: int = 4,
    n_pages: int = 24,
    oversubscription: float | None = None,
) -> list[str]:
    """Drive random valid driver primitives; audit after every step.

    The page-management equivalent of a property-based state-machine
    test.  Returns the violations found (with the step that triggered
    them); empty means the machine stayed consistent throughout.
    """
    config = baseline_config(
        n_gpus=n_gpus, oversubscription=oversubscription
    )
    trace = make_trace(
        {"data": n_pages},
        [[(page % n_gpus, "data", page, False) for page in range(n_pages)]],
        n_gpus=n_gpus,
    )
    machine = Machine(config, trace, make_policy("on_touch"))
    driver = machine.driver
    pt = machine.page_tables
    rng = random.Random(seed)
    pages = list(range(trace.first_page, trace.first_page + n_pages))
    ops = ("migrate", "duplicate", "collapse", "map_remote", "evict_from",
           "evict")
    for step in range(steps):
        op = rng.choice(ops)
        gpu = rng.randrange(n_gpus)
        page = rng.choice(pages)
        if op == "migrate":
            driver.migrate(gpu, page)
        elif op == "duplicate":
            driver.duplicate(gpu, page)
        elif op == "collapse":
            driver.collapse(gpu, page)
        elif op == "map_remote":
            if not pt.has_copy(gpu, page):
                driver.map_remote(gpu, page)
        elif op == "evict_from":
            if pt.has_copy(gpu, page):
                driver.evict_from(gpu, page)
        else:
            driver.evict(page)
        found = check_machine_invariants(machine)
        if found:
            return [
                f"step {step} ({op} gpu={gpu} page={page}): {v}"
                for v in found
            ]
    return []


@pytest.mark.parametrize("seed", range(4))
def test_random_primitive_sequences_stay_consistent(seed):
    assert random_primitive_audit(seed, steps=150) == []


def test_oversubscribed_primitive_sequences_stay_consistent():
    assert random_primitive_audit(
        2, steps=150, oversubscription=2.0
    ) == []
