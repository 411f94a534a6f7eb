"""Page duplication with write-collapse (Section II-B3).

Read faults install a read-only duplicate on the requester, so read-shared
pages are served locally everywhere.  A write to a duplicated page raises a
page-protection fault and *collapses* the page: every other copy is
invalidated and the writer becomes the exclusive owner.  Write-heavy
sharing therefore thrashes, which is exactly the behaviour the paper's
characterization attributes to rw-mix objects under duplication.
"""

from __future__ import annotations

from repro.memory import POLICY_DUPLICATION
from repro.policies.base import PolicyEngine


class DuplicationPolicy(PolicyEngine):
    """Uniform read-duplication / write-collapse.

    The fast path's uniform lane (``FastReplay._run_uniform`` in
    :mod:`repro.sim.fastpath`) replays this policy's resolutions inline,
    so a change here must be mirrored there; ``tests/sim/test_fastpath.py``
    compares both paths.
    """

    name = "duplication"

    def _on_attach(self) -> None:
        self.machine.set_all_policy_bits(POLICY_DUPLICATION)

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        if is_write:
            return self.driver.collapse(gpu, page)
        return self.driver.duplicate(gpu, page)

    def on_protection_fault(self, gpu: int, page: int) -> float:
        self.stats.add("collapse.protection_triggered")
        return self.driver.collapse(gpu, page)
