"""A single bidirectional interconnect link."""

from __future__ import annotations


class Link:
    """One link with fixed bandwidth and per-hop latency.

    Traffic is accumulated in bytes; ``busy_time_ns`` converts the running
    total into the time the link has spent transferring, which the
    simulator uses as a lower bound on phase duration.
    """

    def __init__(self, name: str, bandwidth_bytes_per_ns: float, latency_ns: float) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ns
        self.latency_ns = latency_ns
        self._bytes = 0
        self._messages = 0

    @property
    def bytes_transferred(self) -> int:
        return self._bytes

    @property
    def message_count(self) -> int:
        return self._messages

    @property
    def busy_time_ns(self) -> float:
        """Total time spent moving the recorded bytes."""
        return self._bytes / self.bandwidth

    def transfer_time_ns(self, n_bytes: int) -> float:
        """Latency + serialization time for one transfer of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return self.latency_ns + n_bytes / self.bandwidth

    def record(self, n_bytes: int) -> float:
        """Account one transfer; returns its transfer time."""
        time = self.transfer_time_ns(n_bytes)
        self._bytes += n_bytes
        self._messages += 1
        return time

    def record_bulk(self, n_bytes: int, n_messages: int) -> None:
        """Account ``n_messages`` transfers totalling ``n_bytes`` at once.

        Traffic totals are plain integer sums, so this is exactly
        equivalent to ``n_messages`` individual :meth:`record` calls
        (whose per-transfer return times the replay loop does not use).
        """
        if n_bytes < 0 or n_messages < 0:
            raise ValueError("bulk transfer counts must be non-negative")
        self._bytes += n_bytes
        self._messages += n_messages

    def snapshot(self) -> dict:
        """Plain-dict state for exporters and metrics sampling."""
        return {
            "name": self.name,
            "bytes": self._bytes,
            "messages": self._messages,
            "busy_time_ns": self.busy_time_ns,
        }

    def reset_traffic(self) -> None:
        """Zero the traffic counters (start of a fresh run)."""
        self._bytes = 0
        self._messages = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, {self.bandwidth} B/ns, "
            f"{self._bytes} B moved)"
        )
