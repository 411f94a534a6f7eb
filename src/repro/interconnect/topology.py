"""Multi-GPU interconnect topology.

The baseline platform (Table I) connects GPUs pairwise with 300 GB/s
NVLink-v2 and connects every GPU to the host CPU over 32 GB/s PCIe-v4.  We
model one link per unordered device pair; a transfer between devices uses
exactly that link.
"""

from __future__ import annotations

from repro.config import HOST, LatencyModel
from repro.interconnect.link import Link, LinkSeveredError

#: Per-hop latency of one NVLink message (propagation + protocol).
NVLINK_HOP_NS = 500.0

#: Per-hop latency of one PCIe message.
PCIE_HOP_NS = 1200.0


class UnreachableDeviceError(RuntimeError):
    """No healthy route exists between two devices."""


class Topology:
    """All-to-all NVLink among GPUs plus PCIe to the host.

    Links carry health state (see :class:`~repro.interconnect.link.Link`):
    fault injection can degrade or sever them mid-run.  A transfer whose
    direct link is severed is rerouted over one intermediate device
    (host-first, then GPUs in id order); both hop links are charged.  A
    transfer with no healthy route raises :class:`UnreachableDeviceError`.
    """

    def __init__(
        self, n_gpus: int, latency: LatencyModel, stats=None, tracer=None
    ) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self._n_gpus = n_gpus
        self._stats = stats
        self._tracer = tracer
        #: Sim-time anchor for reroute instants.  The topology has no
        #: clock of its own; the machine advances this at each phase
        #: boundary via :meth:`note_time` (only while tracing).
        self._now_ns = 0.0
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

    def note_time(self, now_ns: float) -> None:
        """Update the sim-time anchor used to timestamp trace instants."""
        self._now_ns = now_ns

    def _trace_reroute(self, src: int, dst: int, via: int, n: int) -> None:
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.instant(
                "faults",
                "reroute",
                self._now_ns,
                {"src": src, "dst": dst, "via": via, "messages": n},
            )

    def link(self, src: int, dst: int) -> Link:
        """The link joining ``src`` and ``dst`` (order-insensitive)."""
        if src == dst:
            raise ValueError(f"no link from device {src} to itself")
        try:
            return self._pairs[src, dst]
        except KeyError:
            raise ValueError(f"no link between devices {src} and {dst}") from None

    def apply_link_fault(self, a: int, b: int, bandwidth_factor: float) -> None:
        """Degrade (or sever, factor 0) the link between ``a`` and ``b``."""
        self.link(a, b).apply_bandwidth_factor(bandwidth_factor)

    def _route_via(self, src: int, dst: int) -> int | None:
        """An intermediate device with healthy hops to both endpoints.

        Deterministic preference order: the host first (the PCIe fabric is
        the canonical fallback path for a dead NVLink), then GPUs by id.
        """
        candidates = [HOST, *range(self._n_gpus)]
        for via in candidates:
            if via in (src, dst):
                continue
            try:
                first = self.link(src, via)
                second = self.link(via, dst)
            except ValueError:
                continue
            if not first.severed and not second.severed:
                return via
        return None

    def reachable(self, src: int, dst: int) -> bool:
        """True when data can flow ``src`` → ``dst`` (direct or one hop)."""
        if src == dst:
            return True
        if not self.link(src, dst).severed:
            return True
        return self._route_via(src, dst) is not None

    def record_transfer(self, src: int, dst: int, n_bytes: int) -> float:
        """Move ``n_bytes`` between devices; returns the transfer time.

        When the direct link is severed the transfer is rerouted through
        one intermediate device: both hop links are charged and the times
        add up (store-and-forward).  With no healthy route this raises
        :class:`UnreachableDeviceError` — callers that can degrade to
        zero-copy should check :meth:`reachable` before moving data.
        """
        link = self._pairs.get((src, dst))
        if link is None:
            link = self.link(src, dst)  # raises the ValueError for the pair
        try:
            return link.record(n_bytes)
        except LinkSeveredError:
            via = self._route_via(src, dst)
            if via is None:
                raise UnreachableDeviceError(
                    f"no healthy route between devices {src} and {dst}"
                ) from None
            if self._stats is not None:
                self._stats.add("fault_inject.reroutes")
            self._trace_reroute(src, dst, via, 1)
            return self.link(src, via).record(n_bytes) + self.link(
                via, dst
            ).record(n_bytes)

    def record_transfer_bulk(
        self, src: int, dst: int, n_bytes: int, n_messages: int
    ) -> None:
        """Account a batch of same-pair transfers in one call."""
        try:
            self.link(src, dst).record_bulk(n_bytes, n_messages)
        except LinkSeveredError:
            via = self._route_via(src, dst)
            if via is None:
                raise UnreachableDeviceError(
                    f"no healthy route between devices {src} and {dst}"
                ) from None
            if self._stats is not None:
                self._stats.add("fault_inject.reroutes", n_messages)
            self._trace_reroute(src, dst, via, n_messages)
            self.link(src, via).record_bulk(n_bytes, n_messages)
            self.link(via, dst).record_bulk(n_bytes, n_messages)

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
