"""Access-counter-based migration (Section II-B2).

A faulting GPU first maps the page *remotely* (data stays put); hardware
counters track remote accesses per 64 KB group, and only when a GPU's
counter reaches the threshold (256 in the NVIDIA driver, Table I) does the
group migrate to that GPU.  This kills on-touch's ping-pong but pays remote
latency until the threshold trips, plus PTE-invalidation costs when it
does.

As a *uniform* policy (the way the paper evaluates it), migration happens
**only** at the counter threshold: a fault — even the first touch of a
host-resident page — resolves by establishing a remote mapping, and the
data stays put until the requester's counter trips.  This is what makes
the policy lose to on-touch on private, heavily-reused data (e.g. I2C in
Fig. 2): it defers migration behind hundreds of remote accesses.
"""

from __future__ import annotations

from repro.memory import POLICY_COUNTER
from repro.policies.base import CounterMigrationMixin, PolicyEngine


class AccessCounterPolicy(CounterMigrationMixin, PolicyEngine):
    """Uniform access-counter-based migration.

    The fast path's uniform lane (``FastReplay._run_uniform`` in
    :mod:`repro.sim.fastpath`) replays this policy's resolutions inline,
    so a change here must be mirrored there; ``tests/sim/test_fastpath.py``
    compares both paths.
    """

    name = "access_counter"

    def _on_attach(self) -> None:
        self.machine.set_all_policy_bits(POLICY_COUNTER)

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        pt = self.page_tables
        if pt.has_copy(gpu, page):
            # Our mapping was invalidated (e.g. by a counter migration
            # elsewhere in the group) but the data is already local.
            return self.driver.map_local(gpu, page, writable=True)
        return self.driver.map_remote(gpu, page)
