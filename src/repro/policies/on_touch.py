"""On-touch migration: always migrate the faulted page to the requester.

The baseline policy (Section II-B1).  Every fault resolves by moving the
page into the faulting GPU's memory; subsequent accesses from that GPU are
local, but pages shared by several GPUs "ping-pong" — each sharer's access
re-migrates the page and invalidates the previous holder's translation.
"""

from __future__ import annotations

from repro.memory import POLICY_ON_TOUCH
from repro.policies.base import PolicyEngine


class OnTouchPolicy(PolicyEngine):
    """Uniform on-touch migration.

    The fast path's on-touch loop (``FastReplay._run_bulk_fault`` in
    :mod:`repro.sim.fastpath`) replays this policy's resolution inline,
    so a change here must be mirrored there; ``tests/sim/test_fastpath.py``
    compares both paths.
    """

    name = "on_touch"

    def _on_attach(self) -> None:
        # All PTEs carry the default "00" policy bits already; make it
        # explicit so policy histograms are meaningful for every engine.
        self.machine.set_all_policy_bits(POLICY_ON_TOUCH)

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        return self.driver.migrate(gpu, page)
