"""Link tests."""

import pytest

from repro.interconnect import Link
from repro.interconnect.link import LinkSeveredError


class TestLink:
    def test_transfer_time_includes_latency(self):
        link = Link("l", bandwidth_bytes_per_ns=100.0, latency_ns=500.0)
        assert link.transfer_time_ns(1000) == 500.0 + 10.0

    def test_record_accumulates(self):
        link = Link("l", 100.0, 0.0)
        link.record(4096)
        link.record(4096)
        assert link.bytes_transferred == 8192
        assert link.message_count == 2

    def test_busy_time(self):
        link = Link("l", 2.0, 0.0)
        link.record(100)
        assert link.busy_time_ns == 50.0

    def test_zero_bytes_is_pure_latency(self):
        link = Link("l", 1.0, 7.0)
        assert link.record(0) == 7.0

    def test_negative_bytes_rejected(self):
        link = Link("l", 1.0, 0.0)
        with pytest.raises(ValueError):
            link.transfer_time_ns(-1)

    def test_reset_traffic(self):
        link = Link("l", 1.0, 0.0)
        link.record(100)
        link.reset_traffic()
        assert link.bytes_transferred == 0
        assert link.message_count == 0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("l", 0.0, 0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("l", 1.0, -1.0)

    def test_record_returns_transfer_time(self):
        link = Link("l", 3.0, 5.0)
        assert link.record(300) == link.transfer_time_ns(300) == 105.0

    def test_record_rejects_negative_and_severed(self):
        link = Link("l", 1.0, 0.0)
        with pytest.raises(ValueError):
            link.record(-1)
        link.apply_bandwidth_factor(0.0)
        with pytest.raises(LinkSeveredError):
            link.record(1)
        assert (link.bytes_transferred, link.message_count) == (0, 0)
