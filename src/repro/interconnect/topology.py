"""Multi-GPU interconnect topology.

The baseline platform (Table I) connects GPUs pairwise with 300 GB/s
NVLink-v2 and connects every GPU to the host CPU over 32 GB/s PCIe-v4.  We
model one link per unordered device pair; a transfer between devices uses
exactly that link.
"""

from __future__ import annotations

from repro.config import HOST, LatencyModel
from repro.interconnect.link import Link

#: Per-hop latency of one NVLink message (propagation + protocol).
NVLINK_HOP_NS = 500.0

#: Per-hop latency of one PCIe message.
PCIE_HOP_NS = 1200.0


class Topology:
    """All-to-all NVLink among GPUs plus PCIe to the host."""

    def __init__(self, n_gpus: int, latency: LatencyModel) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self._n_gpus = n_gpus
        self._links: dict[tuple[int, int], Link] = {}
        for a in range(n_gpus):
            self._links[(HOST, a)] = Link(
                f"pcie:host-gpu{a}", latency.pcie_bw_bytes_per_ns, PCIE_HOP_NS
            )
            for b in range(a + 1, n_gpus):
                self._links[(a, b)] = Link(
                    f"nvlink:gpu{a}-gpu{b}",
                    latency.nvlink_bw_bytes_per_ns,
                    NVLINK_HOP_NS,
                )
        #: Every link under both orders of its endpoints, so a transfer
        #: finds its link with one dict probe.
        self._pairs: dict[tuple[int, int], Link] = {}
        for (a, b), link in self._links.items():
            self._pairs[a, b] = self._pairs[b, a] = link

    @property
    def n_gpus(self) -> int:
        return self._n_gpus

    def link(self, src: int, dst: int) -> Link:
        """The link joining ``src`` and ``dst`` (order-insensitive)."""
        if src == dst:
            raise ValueError(f"no link from device {src} to itself")
        try:
            return self._pairs[src, dst]
        except KeyError:
            raise ValueError(f"no link between devices {src} and {dst}") from None

    def record_transfer(self, src: int, dst: int, n_bytes: int) -> float:
        """Move ``n_bytes`` between devices; returns the transfer time."""
        link = self._pairs.get((src, dst))
        if link is None:
            link = self.link(src, dst)  # raises the ValueError for the pair
        return link.record(n_bytes)

    def record_transfer_bulk(
        self, src: int, dst: int, n_bytes: int, n_messages: int
    ) -> None:
        """Account a batch of same-pair transfers in one call."""
        self.link(src, dst).record_bulk(n_bytes, n_messages)

    def links(self) -> list[Link]:
        """Every link in the topology."""
        return list(self._links.values())

    def nvlink_bytes(self) -> int:
        """Total bytes moved over GPU-GPU links."""
        return sum(
            link.bytes_transferred
            for (a, _b), link in self._links.items()
            if a != HOST
        )

    def pcie_bytes(self) -> int:
        """Total bytes moved over host links."""
        return sum(
            link.bytes_transferred
            for (a, _b), link in self._links.items()
            if a == HOST
        )

    def busiest_link_time_ns(self) -> float:
        """Busy time of the most-loaded link (phase lower bound)."""
        return max((link.busy_time_ns for link in self._links.values()), default=0.0)

    def traffic_snapshot(self) -> dict[str, int]:
        """Per-link byte totals keyed by link name."""
        return {link.name: link.bytes_transferred for link in self._links.values()}

    def reset_traffic(self) -> None:
        for link in self._links.values():
            link.reset_traffic()
