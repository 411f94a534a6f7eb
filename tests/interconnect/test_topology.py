"""Topology tests."""

import pytest

from repro.config import HOST, LatencyModel
from repro.interconnect import Topology


@pytest.fixture
def topo():
    return Topology(4, LatencyModel())


class TestTopology:
    def test_link_count(self, topo):
        # 4 PCIe links + C(4,2)=6 NVLink links.
        assert len(topo.links()) == 10

    def test_gpu_pair_uses_nvlink(self, topo):
        assert topo.link(0, 1).name.startswith("nvlink")

    def test_host_link_uses_pcie(self, topo):
        assert topo.link(HOST, 2).name.startswith("pcie")

    def test_link_is_order_insensitive(self, topo):
        assert topo.link(2, 0) is topo.link(0, 2)
        assert topo.link(HOST, 1) is topo.link(1, HOST)

    def test_self_link_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.link(1, 1)

    def test_unknown_device_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.link(0, 9)

    def test_record_transfer_returns_time(self, topo):
        time = topo.record_transfer(0, 1, 4096)
        assert time > 0
        assert topo.link(0, 1).bytes_transferred == 4096

    def test_nvlink_vs_pcie_byte_accounting(self, topo):
        topo.record_transfer(0, 1, 100)
        topo.record_transfer(HOST, 0, 50)
        assert topo.nvlink_bytes() == 100
        assert topo.pcie_bytes() == 50

    def test_busiest_link_time(self, topo):
        topo.record_transfer(0, 1, 3000 * 1000)
        assert topo.busiest_link_time_ns() == pytest.approx(
            3000 * 1000 / 300.0
        )

    def test_traffic_snapshot_keys(self, topo):
        snap = topo.traffic_snapshot()
        assert len(snap) == 10
        assert all(v == 0 for v in snap.values())

    def test_reset_traffic(self, topo):
        topo.record_transfer(0, 1, 100)
        topo.reset_traffic()
        assert topo.nvlink_bytes() == 0

    def test_nvlink_faster_than_pcie(self, topo):
        nv = topo.link(0, 1).transfer_time_ns(1 << 20)
        pcie = topo.link(HOST, 0).transfer_time_ns(1 << 20)
        assert nv < pcie

    def test_single_gpu_topology(self):
        topo = Topology(1, LatencyModel())
        assert len(topo.links()) == 1
        assert topo.link(HOST, 0) is not None

    def test_record_transfer_rejects_unknown_pairs(self, topo):
        for src, dst in ((1, 1), (0, 9), (HOST, HOST)):
            with pytest.raises(ValueError):
                topo.record_transfer(src, dst, 100)
        assert sum(link.message_count for link in topo.links()) == 0

    def test_record_transfer_is_order_insensitive(self, topo):
        assert topo.record_transfer(2, 0, 100) == topo.record_transfer(
            0, 2, 100
        )
        assert topo.link(0, 2).message_count == 2

    def test_severed_link_reroutes_record_transfer(self, topo):
        topo.apply_link_fault(0, 1, 0.0)
        time = topo.record_transfer(1, 0, 100)
        # Host first: both PCIe hops are charged, store-and-forward.
        assert time == pytest.approx(
            2 * topo.link(HOST, 0).transfer_time_ns(100)
        )
        assert topo.link(HOST, 0).bytes_transferred == 100
        assert topo.link(HOST, 1).bytes_transferred == 100
        assert topo.link(0, 1).bytes_transferred == 0
