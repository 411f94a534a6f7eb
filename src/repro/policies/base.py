"""Policy-engine interface.

A policy engine owns *fault resolution*: the machine routes every page
fault, protection fault and remote access to the attached engine, which
resolves it through the UVM driver primitives and returns the extra latency
(beyond the fixed fault-service cost) the faulting GPU pays.

Engines also receive lifecycle callbacks: object allocation/free (used by
the OASIS Object Tracker) and phase starts (used for explicit-phase
O-Table resets).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.workloads.base import ObjectDef, PhaseTrace


class PolicyEngine(abc.ABC):
    """Base class for all page-management policies."""

    #: Short identifier used in reports ("on_touch", "oasis", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.machine: "Machine | None" = None

    # -- wiring ------------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind the engine to a machine before simulation starts."""
        self.machine = machine
        self._on_attach()

    def _on_attach(self) -> None:
        """Hook for subclasses; machine components are available."""

    @property
    def driver(self):
        return self.machine.driver

    @property
    def page_tables(self):
        return self.machine.page_tables

    @property
    def config(self):
        return self.machine.config

    @property
    def stats(self):
        return self.machine.stats

    # -- lifecycle callbacks -------------------------------------------------

    def on_alloc(self, obj: "ObjectDef") -> None:
        """An object was allocated (``cudaMallocManaged``)."""

    def on_free(self, obj: "ObjectDef") -> None:
        """An object was freed."""

    def on_phase_start(self, phase_index: int, phase: "PhaseTrace") -> None:
        """A new phase begins (kernel launch if ``phase.explicit``)."""

    # -- fault handling ---------------------------------------------------------

    @abc.abstractmethod
    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        """Resolve a page fault; returns resolution latency in ns."""

    def on_protection_fault(self, gpu: int, page: int) -> float:
        """Resolve a write to a read-only (duplicated) page."""
        raise RuntimeError(
            f"policy {self.name!r} produced a protection fault it cannot handle "
            f"(gpu={gpu}, page={page})"
        )

    def on_remote_access(
        self, gpu: int, page: int, is_write: bool, weight: int
    ) -> None:
        """Observe ``weight`` accesses served from remote memory."""
        raise RuntimeError(
            f"policy {self.name!r} left a remote mapping it cannot handle "
            f"(gpu={gpu}, page={page})"
        )


class CounterMigrationMixin:
    """Shared implementation of counter-based remote-access handling.

    Used by the uniform access-counter policy and by every adaptive policy
    whose counter-mode pages behave identically: remote accesses are
    counted per (GPU, 64 KB group); when the threshold trips, the whole
    group migrates to the requesting GPU in one driver operation.
    """

    def on_remote_access(
        self, gpu: int, page: int, is_write: bool, weight: int
    ) -> None:
        """Count the remote accesses; migrate the group on a threshold trip.

        Shared verbatim by every counter-counting policy.  The vectorized
        replay fast path detects this exact method (``type(policy).
        on_remote_access is CounterMigrationMixin.on_remote_access``) to
        know remote-access handling is pure counting — a policy that
        overrides it drops back to per-record replay.
        """
        self._handle_counted_remote(gpu, page, weight)

    def _count_remote_bulk(self, gpu: int, page: int, weight: int) -> bool:
        """Add ``weight`` remote accesses at once; True if threshold trips.

        One trace record may carry many accesses (its weight); the
        threshold can trip at most once per record because the group
        migrates immediately afterwards.
        """
        return self.machine.access_counters.record_remote_bulk(
            gpu, page, weight
        )

    def _handle_counted_remote(self, gpu: int, page: int, weight: int) -> None:
        """Count remote accesses and migrate the group on a threshold trip."""
        if self._count_remote_bulk(gpu, page, weight):
            self._migrate_group(gpu, page)

    def _migrate_group(self, gpu: int, page: int) -> None:
        """Migrate every remotely-held page of ``page``'s group to ``gpu``."""
        machine = self.machine
        pt = machine.page_tables
        counters = machine.access_counters
        group = counters.group_of(page)
        first = group * counters.pages_per_group
        origin = pt.location(page)
        # State is read per candidate, after the previous migration: under
        # capacity pressure a migration may evict a later candidate.
        tracks_page = machine.tracks_page
        has_copy = pt.has_copy
        location = pt.location
        migrate = machine.driver.migrate
        cost = 0.0
        n_migrated = 0
        for candidate in range(first, first + counters.pages_per_group):
            if not tracks_page(candidate) or has_copy(gpu, candidate):
                continue
            if candidate == page or location(candidate) == origin:
                cost += migrate(gpu, candidate)
                n_migrated += 1
        counters.reset_group(page)
        if n_migrated:
            machine.stats.add("migration.counter_triggered", n_migrated)
            machine.charge_driver_op(gpu, cost)
