"""Hardware OASIS as a policy engine (Section V).

Fault path, following the Fig. 11 example:

1. The host page table classifies the faulting page by the physical
   address range holding its data: data on the host CPU → **private**
   (first touch), resolved with default on-touch migration and never
   forwarded to the O-Table.
2. Data on another GPU → **shared**; the fault is forwarded to the
   O-Table, indexed by the Obj_ID from the pointer tag; the OP-Controller
   learns or applies the object's policy and the fault resolves under it.
3. Resolution updates the page's PTE policy bits so subsequent faults and
   remote accesses behave per the object's policy.

Oversubscription fix (Section VI-D): a host-resident page whose PTE
policy bits differ from on-touch was evicted, not untouched — it is
treated as shared and routed to the O-Table rather than misclassified as
private.
"""

from __future__ import annotations

from repro.config import HOST
from repro.core.controller import ObjectPolicyController
from repro.core.otable import OTable
from repro.core.tracker import ObjectTracker
from repro.memory import POLICY_COUNTER, POLICY_DUPLICATION, POLICY_ON_TOUCH
from repro.memory.page_table import duplicated
from repro.policies.base import CounterMigrationMixin, PolicyEngine


class OasisPolicy(CounterMigrationMixin, PolicyEngine):
    """Object-aware page management (hardware O-Table variant).

    The constructor flags exist for ablation studies; the paper's design
    has all three enabled:

    Args:
        explicit_resets: reset PF counts at kernel launches (Section V-D's
            explicit-phase detection).
        private_filter: serve host-resident first touches with default
            on-touch via the host page table, bypassing the O-Table
            (Section V-D's private/shared filter).
        capacity_guard: under memory oversubscription, degrade duplication
            to a remote mapping when the requester is at capacity instead
            of evicting a live page for the new copy.

    The fast path's uniform lane (``FastReplay._run_uniform`` in
    :mod:`repro.sim.fastpath`) replays this policy's fault handling
    (:meth:`on_fault`, :meth:`_shared_fault` and :meth:`_resolve_counter`)
    inline, so a change here must be mirrored there;
    ``tests/sim/test_fastpath.py`` compares both paths.
    """

    name = "oasis"

    #: Pointer-tag configuration bit value for this variant.
    config_bit = 1

    def __init__(
        self,
        explicit_resets: bool = True,
        private_filter: bool = True,
        capacity_guard: bool = True,
    ) -> None:
        super().__init__()
        self.explicit_resets = explicit_resets
        self.private_filter = private_filter
        self.capacity_guard = capacity_guard
        self.tracker: ObjectTracker | None = None
        self.otable: OTable | None = None
        self.controller: ObjectPolicyController | None = None

    def _on_attach(self) -> None:
        config = self.config
        self.tracker = ObjectTracker(
            obj_id_bits=config.obj_id_bits, config_bit=self.config_bit
        )
        self.otable = OTable(capacity=config.otable_entries)
        self.controller = ObjectPolicyController(
            self.otable, reset_threshold=config.reset_threshold
        )
        self.machine.set_all_policy_bits(POLICY_ON_TOUCH)

    # -- lookup-cost hook (overridden by OASIS-InMem) -----------------------

    def _metadata_lookup_cost(self, page: int) -> float:
        """Cost of finding the Obj_ID + O-Table entry for a fault."""
        return self.config.latency.otable_ns

    # -- lifecycle ----------------------------------------------------------

    def on_alloc(self, obj) -> None:
        tracked = self.tracker.malloc_managed(
            base=obj.allocation.base, size=obj.size_bytes, name=obj.name
        )
        del tracked
        self.controller.on_alloc(obj.obj_id)

    def on_free(self, obj) -> None:
        self.tracker.free(obj.obj_id)
        self.controller.on_free(obj.obj_id)

    def on_phase_start(self, phase_index: int, phase) -> None:
        # Only explicit phases (kernel launches) are visible to the
        # runtime; implicit phases are caught by PF-count self-correction.
        if phase.explicit and self.explicit_resets:
            self.controller.on_kernel_launch()
            self.stats.add("oasis.kernel_resets")

    # -- fault handling -------------------------------------------------------

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        pt = self.page_tables
        owner, copies, _mapped, _writable, bits = pt.entry(page)
        if copies >> gpu & 1:
            # Our mapping was invalidated (e.g. a counter migration of a
            # neighbouring group page) but the data is already local.
            return self.driver.map_local(
                gpu, page, writable=not duplicated(owner, copies)
            )
        if (
            self.private_filter
            and owner == HOST
            and bits == POLICY_ON_TOUCH
        ):
            # Host page table filter: data on the CPU means no other GPU
            # touched it — private; resolve with default on-touch and skip
            # the O-Table entirely.
            self.stats.add("oasis.private_fault")
            return self.driver.migrate(gpu, page)
        return self._shared_fault(gpu, page, is_write, owner, copies)

    def on_protection_fault(self, gpu: int, page: int) -> float:
        # A write to a duplicated page: by definition shared, and the W
        # bit is set.
        pt = self.page_tables
        owner, copies, _mapped, _writable, _bits = pt.entry(page)
        return self._shared_fault(gpu, page, True, owner, copies)

    # -- internals ----------------------------------------------------------------

    def _shared_fault(self, gpu: int, page: int, is_write: bool,
                      owner: int, copies: int) -> float:
        """Resolve a shared fault under the object's policy.

        ``owner`` and ``copies`` are the page's columns as the fault
        found them; rewriting the policy bits leaves them current.
        """
        self.stats.add("oasis.shared_fault")
        cost = self._metadata_lookup_cost(page)
        obj_id = self.machine.object_id_of(page)
        bits = self.controller.on_shared_fault(obj_id, is_write)
        self.page_tables.set_policy(page, bits)
        cost += self.config.latency.pte_update_ns
        if bits == POLICY_COUNTER:
            cost += self._resolve_counter(gpu, page, owner, copies)
        elif bits == POLICY_DUPLICATION:
            if is_write:
                # Write while the object is (still) in duplication mode:
                # page write-collapse (state (4) of Fig. 13(b) follows once
                # self-correction re-learns the policy).
                cost += self.driver.collapse(gpu, page)
            elif (
                self.capacity_guard
                and self.machine.capacity.at_capacity(gpu)
                and not copies >> gpu & 1
            ):
                # Capacity guard (oversubscription): installing another
                # duplicate would evict a live page; serve the reads
                # remotely instead and let the access counters promote the
                # page if it stays hot.
                self.stats.add("oasis.duplication_degraded")
                cost += self.driver.map_remote(gpu, page)
            else:
                cost += self.driver.duplicate(gpu, page)
        else:  # pragma: no cover - controller only returns the two above
            raise RuntimeError(f"controller returned unexpected bits {bits}")
        return cost

    def _resolve_counter(self, gpu: int, page: int, owner: int,
                         copies: int) -> float:
        if duplicated(owner, copies):
            # The page still has duplicates from an earlier duplication
            # phase; a write under counter mode must first collapse them.
            return self.driver.collapse(gpu, page)
        if copies >> gpu & 1:
            return self.driver.map_local(gpu, page, writable=True)
        return self.driver.map_remote(gpu, page)
