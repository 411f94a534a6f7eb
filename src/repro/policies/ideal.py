"""The paper's hypothetical "Ideal" NUMA-GPU configuration (Section IV-A).

Every first access by a GPU to a page — read *or* write — pays a
duplication latency and installs a local copy; every subsequent access is
local and free of NUMA cost, with no coherence maintained between the
copies.  Infeasible in practice (writes diverge), but it bounds the
attainable improvement.

Machines running this policy are built with ``coherent=False`` page tables
so multiple writable copies are representable.
"""

from __future__ import annotations

from repro.policies.base import PolicyEngine


class IdealPolicy(PolicyEngine):
    """Duplicate-everything upper bound (not realizable).

    The fast path's uniform lane (``FastReplay._run_uniform`` in
    :mod:`repro.sim.fastpath`) replays this policy's resolution inline,
    so a change here must be mirrored there; ``tests/sim/test_fastpath.py``
    compares both paths.
    """

    name = "ideal"

    #: Machines must disable write-exclusivity for this policy.
    requires_incoherent_page_tables = True

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        return self.driver.ideal_copy(gpu, page)
