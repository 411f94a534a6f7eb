"""Machine-wide invariants: structural consistency + counter algebra.

The simulator's credibility rests on two families of laws that must hold
at every quiescent point (phase boundaries, end of run):

**Structural invariants** (:func:`check_machine_invariants`) — the
cross-component state is consistent: every PTE points at a live copy,
copy-holder sets agree with page ownership, capacity accounting mirrors
the page tables, TLBs never cache translations for unmapped pages.

**Counter algebra** (:func:`check_counter_laws`) — the recorded event
counts obey exact conservation laws derived from the access path:

* ``fault.page + fault.protection == Σ fault.by_gpu.*`` — every serviced
  fault is attributed to exactly one GPU;
* ``Σ fault.by_object.* <= total faults`` (equality when every traced
  page belongs to an object);
* **access conservation**: every dynamic access replayed so far is
  accounted exactly once —
  ``replayed == access.local + access.remote + access.host + fault.page``
  (the faulting access of a page fault is the one access that never
  reaches a data branch);
* **link-traffic conservation**, an equality on every run: every
  transfer crosses exactly the one link joining its endpoints, so the
  per-link byte totals equal the driver's transfer counters plus the
  remote-access granules —
  ``nvlink_bytes == traffic.nvlink_bytes + 128·access.remote`` and
  ``pcie_bytes == traffic.pcie_bytes + 128·access.host``;
* **resolution accounting**: every fault installs a translation through
  exactly one driver primitive, so
  ``migration.count + duplication.count + duplication.remap +
  collapse.count + remote_map.count + local_map.count >= total faults``
  (counter-threshold migrations add installs without faults; the
  hypothetical ideal policy is exempt — it can re-map a still-resident
  copy without any counter);
* **per-policy laws** where the resolution path is fixed: plain on-touch
  resolves every page fault with exactly one migration
  (``migration.count == fault.page``), and never sees a protection
  fault.

Checks run behind a null-object hook (:data:`NULL_VERIFIER`, the same
pattern as :data:`repro.obs.tracer.NULL_TRACER`): an unverified run pays
one attribute test per phase and stays bit-identical, and because all
checks happen at quiescent points the vectorized fast path stays engaged
even *with* verification on.

This module is import-light on purpose (no top-level ``repro`` imports
beyond nothing at all): :mod:`repro.sim.machine` imports it, and the
wider verify package (differential/fuzz/golden) imports the simulator.
"""

from __future__ import annotations


class InvariantViolation(AssertionError):
    """A machine-wide invariant or counter law does not hold."""


class Verifier:
    """Null-object verification hook (default: every check disabled).

    The machine calls :meth:`after_phase` at every phase boundary (after
    clocks re-synchronize and frees run) and :meth:`after_run` once the
    result is assembled.  With this base class both are no-ops and
    ``enabled`` is ``False``, so the unverified path costs one attribute
    test per phase.
    """

    enabled = False

    #: Violations collected so far (always empty on the null verifier).
    violations: tuple = ()

    def after_phase(self, machine, phase_index: int,
                    replayed_accesses: int) -> None:
        """Called at each phase boundary (quiescent machine)."""

    def after_run(self, machine, result) -> None:
        """Called once after the :class:`SimulationResult` is built."""


#: The shared do-nothing verifier (attach-nothing default).
NULL_VERIFIER = Verifier()


class InvariantVerifier(Verifier):
    """Checks structural invariants and counter laws at phase boundaries.

    Args:
        structural: run :func:`check_machine_invariants` (skipped
            automatically for policies that require incoherent page
            tables — the hypothetical ideal configuration violates the
            single-writer invariants by design).
        counters: run :func:`check_counter_laws`.
        strict: raise :class:`InvariantViolation` at the first violating
            phase instead of collecting silently (violations are
            recorded either way).
    """

    enabled = True

    def __init__(self, *, structural: bool = True, counters: bool = True,
                 strict: bool = True) -> None:
        self.structural = structural
        self.counters = counters
        self.strict = strict
        self.violations: list[str] = []
        #: Phase boundaries actually checked (for "did it run" asserts).
        self.checked_phases = 0

    def _check(self, machine, where: str, replayed_accesses: int | None) -> None:
        found: list[str] = []
        if self.structural and not getattr(
            machine.policy, "requires_incoherent_page_tables", False
        ):
            found.extend(check_machine_invariants(machine))
        if self.counters:
            found.extend(
                check_counter_laws(machine, replayed_accesses=replayed_accesses)
            )
        if found:
            self.violations.extend(f"{where}: {v}" for v in found)
            if self.strict:
                raise InvariantViolation(
                    f"{len(found)} invariant violation(s) at {where}:\n  "
                    + "\n  ".join(found)
                )

    def after_phase(self, machine, phase_index: int,
                    replayed_accesses: int) -> None:
        self.checked_phases += 1
        self._check(machine, f"phase {phase_index}", replayed_accesses)

    def after_run(self, machine, result) -> None:
        self._check(machine, "end of run", machine.trace.total_accesses)


# -- structural invariants -------------------------------------------------


def check_machine_invariants(machine) -> list[str]:
    """Every structural invariant violation currently present.

    Returns an empty list on a consistent machine.  Meant to be called
    at quiescent points (between driver primitives, at phase boundaries,
    after a run) — mid-primitive the tables are legitimately in flux.
    """
    from repro.config import HOST

    violations: list[str] = []
    pt = machine.page_tables
    trace = machine.trace
    n_gpus = machine.config.n_gpus

    try:
        pt.check_invariants()
    except AssertionError as exc:
        violations.append(f"page-table structure: {exc}")

    pages = range(trace.first_page, trace.first_page + trace.n_pages)
    for page in pages:
        owner = pt.location(page)
        holders = pt.copy_holders(page)
        if owner != HOST and owner not in holders:
            violations.append(
                f"page {page}: owner GPU {owner} not in copy set {holders}"
            )
        for gpu in range(n_gpus):
            mapped = pt.is_mapped(gpu, page)
            has_copy = pt.has_copy(gpu, page)
            if mapped and not has_copy:
                # Remote mapping: the data it points at must be live
                # (host memory always is; a GPU owner must hold a copy).
                if owner != HOST and owner not in holders:
                    violations.append(
                        f"page {page}: GPU {gpu} remote-maps a dead copy"
                    )

    # Capacity accounting mirrors the copy sets.  (Only exact under host
    # initial placement: distributed placement seeds copies the capacity
    # manager learns about lazily.)
    if machine.config.initial_placement == "host":
        for gpu in range(n_gpus):
            resident = machine.capacity.resident_pages(gpu)
            holding = {
                page for page in pages if pt.has_copy(gpu, page)
            }
            if resident != holding:
                extra = sorted(resident - holding)[:5]
                missing = sorted(holding - resident)[:5]
                violations.append(
                    f"GPU {gpu}: capacity residency != copy set "
                    f"(extra={extra}, missing={missing})"
                )

    if machine.capacity.enabled:
        cap = machine.capacity.capacity_pages
        for gpu in range(n_gpus):
            count = machine.capacity.resident_count(gpu)
            if count > cap:
                violations.append(
                    f"GPU {gpu}: {count} resident pages over capacity {cap}"
                )

    # A cached translation must correspond to a live mapping: shootdowns
    # on unmap are what keep TLBs coherent.
    first, last = trace.first_page, trace.first_page + trace.n_pages
    for gpu in range(n_gpus):
        for page in machine.tlbs[gpu].cached_pages():
            if first <= page < last and not pt.is_mapped(gpu, page):
                violations.append(
                    f"GPU {gpu}: TLB caches unmapped page {page}"
                )

    return violations


# -- counter algebra -------------------------------------------------------

#: Install primitives: each one maps a translation on the requesting GPU.
_INSTALL_COUNTERS = (
    "migration.count",
    "duplication.count",
    "duplication.remap",
    "collapse.count",
    "remote_map.count",
    "local_map.count",
)


def check_counter_laws(machine, replayed_accesses: int | None = None) -> list[str]:
    """Every counter-algebra violation currently present.

    Args:
        machine: the (quiescent) machine to check.
        replayed_accesses: dynamic accesses replayed so far (cumulative
            sum of phase weights).  ``None`` skips the access- and
            traffic-conservation laws, which need it.
    """
    from repro.sim.machine import REMOTE_ACCESS_BYTES

    stats = machine.stats
    violations: list[str] = []

    for name, value in stats.items():
        if value < 0:
            violations.append(f"counter {name} is negative ({value})")

    page_faults = stats["fault.page"]
    protection_faults = stats["fault.protection"]
    total_faults = page_faults + protection_faults

    by_gpu = stats.total("fault.by_gpu.")
    if by_gpu != total_faults:
        violations.append(
            f"fault attribution: sum(fault.by_gpu.*)={by_gpu:g} != "
            f"fault.page+fault.protection={total_faults:g}"
        )

    by_object = stats.total("fault.by_object.")
    fully_covered = all(obj >= 0 for obj in machine._obj_of_page)
    if fully_covered:
        if by_object != total_faults:
            violations.append(
                f"fault attribution: sum(fault.by_object.*)={by_object:g} "
                f"!= total faults {total_faults:g}"
            )
    elif by_object > total_faults:
        violations.append(
            f"fault attribution: sum(fault.by_object.*)={by_object:g} > "
            f"total faults {total_faults:g}"
        )

    local = stats["access.local"]
    remote = stats["access.remote"]
    host = stats["access.host"]
    if replayed_accesses is not None:
        accounted = local + remote + host + page_faults
        if accounted != replayed_accesses:
            violations.append(
                "access conservation: local+remote+host+fault.page="
                f"{accounted:g} != replayed accesses {replayed_accesses:g}"
            )

        # Link-traffic conservation: remote accesses and driver page
        # moves are the only traffic sources.
        nvlink = machine.topology.nvlink_bytes()
        pcie = machine.topology.pcie_bytes()
        nvlink_expected = (
            stats["traffic.nvlink_bytes"] + REMOTE_ACCESS_BYTES * remote
        )
        pcie_expected = (
            stats["traffic.pcie_bytes"] + REMOTE_ACCESS_BYTES * host
        )
        if nvlink != nvlink_expected:
            violations.append(
                f"traffic conservation: nvlink bytes {nvlink:g} != "
                f"traffic.nvlink_bytes + {REMOTE_ACCESS_BYTES}*"
                f"access.remote = {nvlink_expected:g}"
            )
        if pcie != pcie_expected:
            violations.append(
                f"traffic conservation: pcie bytes {pcie:g} != "
                f"traffic.pcie_bytes + {REMOTE_ACCESS_BYTES}*"
                f"access.host = {pcie_expected:g}"
            )

    # Resolution accounting: every fault installs a translation through
    # one driver primitive.  Ideal is exempt: it can re-map a page whose
    # copy is still resident without touching any install counter.
    if not getattr(machine.policy, "requires_incoherent_page_tables", False):
        installs = sum(stats[name] for name in _INSTALL_COUNTERS)
        if installs < total_faults:
            violations.append(
                f"resolution accounting: {installs:g} installs < "
                f"{total_faults:g} faults"
            )

    # TLB stats conservation: every probe is a hit or a miss, and the L2
    # is probed exactly once per L1 miss (inclusive two-level hierarchy).
    for gpu, hierarchy in enumerate(machine.tlbs):
        for level, tlb in (("l1", hierarchy.l1), ("l2", hierarchy.l2)):
            if tlb.hits + tlb.misses != tlb.lookups:
                violations.append(
                    f"tlb conservation: gpu{gpu} {level} hits+misses="
                    f"{tlb.hits + tlb.misses} != lookups {tlb.lookups}"
                )
        if hierarchy.l2.lookups != hierarchy.l1.misses:
            violations.append(
                f"tlb conservation: gpu{gpu} l2 lookups "
                f"{hierarchy.l2.lookups} != l1 misses {hierarchy.l1.misses}"
            )

    if machine.policy.name == "on_touch":
        if protection_faults:
            violations.append(
                f"on_touch law: {protection_faults:g} protection faults "
                "(on-touch never creates read duplicates)"
            )
        migrations = stats["migration.count"]
        if migrations != page_faults:
            violations.append(
                f"on_touch law: migration.count={migrations:g} != "
                f"fault.page={page_faults:g}"
            )

    return violations


# -- suite runners ---------------------------------------------------------


def verified_simulate(config, trace, policy, *, strict: bool = True):
    """Run one simulation with a phase-boundary verifier attached.

    Returns ``(result, verifier)``; with ``strict=False`` violations are
    collected on ``verifier.violations`` instead of raising.
    """
    from repro import make_policy
    from repro.sim.machine import Machine

    if isinstance(policy, str):
        policy = make_policy(policy)
    verifier = InvariantVerifier(strict=strict)
    result = Machine(config, trace, policy, verifier=verifier).run()
    return result, verifier


#: Default (workload, policy) scope of :func:`run_invariant_suite` — the
#: three cheapest registry apps, every policy.  The heavyweight matrix
#: lives in the golden/differential lanes.
SUITE_APPS = ("i2c", "mm", "lenet")


def run_invariant_suite(
    apps=SUITE_APPS,
    policies=None,
    *,
    oversubscription: bool = True,
) -> dict:
    """Replay registry workloads with the phase-boundary verifier.

    Covers every policy on each app, plus (optionally) one oversubscribed
    configuration per app.  Returns
    ``{"checks": int, "phases": int, "violations": [str, ...]}``.
    """
    from repro import POLICY_FACTORIES, baseline_config, get_workload

    if policies is None:
        policies = sorted(POLICY_FACTORIES)
    checks = 0
    phases = 0
    violations: list[str] = []

    def run_one(config, trace, policy, label):
        nonlocal checks, phases
        _, verifier = verified_simulate(config, trace, policy, strict=False)
        checks += 1
        phases += verifier.checked_phases
        violations.extend(f"{label}: {v}" for v in verifier.violations)

    for app in apps:
        config = baseline_config()
        trace = get_workload(app, config)
        for policy in policies:
            run_one(config, trace, policy, f"{app}/{policy}")
        if oversubscription:
            pressured = config.replace(oversubscription=1.5)
            trace_p = get_workload(app, pressured)
            for policy in policies:
                run_one(
                    pressured, trace_p, policy, f"{app}/{policy}@1.5x"
                )
    return {"checks": checks, "phases": phases, "violations": violations}
