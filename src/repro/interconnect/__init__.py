"""Interconnect model: NVLink GPU mesh plus PCIe links to the host.

Latency is charged per access/transfer by the cost model; this package owns
*bandwidth* and *traffic accounting*: every page migration, duplication and
remote access records bytes on the link it crossed, and the simulator bounds
each phase's duration by the busiest link's transfer time.
"""

from repro.interconnect.link import Link
from repro.interconnect.topology import Topology

__all__ = ["Link", "Topology"]
