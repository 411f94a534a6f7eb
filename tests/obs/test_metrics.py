"""Metrics registry unit tests: histograms, gauges, snapshots."""

import pytest

from repro.engine import StatCounters
from repro.obs import (
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestHistogram:
    def test_observe_buckets(self):
        h = Histogram("lat", (10.0, 100.0))
        for v in (5.0, 50.0, 500.0, 7.0):
            h.observe(v)
        assert h.total == 4
        assert h.sum == 562.0
        assert h.cumulative() == [(10.0, 2), (100.0, 3), (float("inf"), 4)]

    def test_bounds_sorted_and_distinct(self):
        assert Histogram("x", (100.0, 10.0)).bounds == (10.0, 100.0)
        with pytest.raises(ValueError, match="distinct"):
            Histogram("x", (10.0, 10.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("x", ())

    def test_merge_requires_same_layout(self):
        a, b = Histogram("x", (1.0, 2.0)), Histogram("x", (1.0, 3.0))
        with pytest.raises(ValueError, match="layouts differ"):
            a.merge(b)

    def test_merge_sums(self):
        a, b = Histogram("x", (10.0,)), Histogram("x", (10.0,))
        a.observe(5.0)
        b.observe(15.0)
        a.merge(b)
        assert a.cumulative() == [(10.0, 1), (float("inf"), 2)]
        assert a.sum == 20.0


class TestRegistry:
    def test_counters_flow_into_stat_counters(self):
        stats = StatCounters()
        reg = MetricsRegistry(stats)
        reg.inc("migration.count")
        reg.inc("migration.count", 2.0)
        assert stats["migration.count"] == 3.0
        assert reg.counter("migration.count") == 3.0

    def test_bind_stats_redirects(self):
        reg = MetricsRegistry()
        reg.inc("x")
        fresh = StatCounters()
        reg.bind_stats(fresh)
        reg.inc("y")
        assert "x" not in fresh and fresh["y"] == 1.0

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("link.a.utilization", 0.5)
        reg.set_gauge("link.a.utilization", 0.7)
        assert reg.gauge("link.a.utilization") == 0.7
        assert reg.gauge("missing", default=-1.0) == -1.0

    def test_histogram_layout_conflict(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0, (10.0, 20.0))
        with pytest.raises(ValueError, match="different"):
            reg.histogram("lat", (10.0, 30.0))

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n")
        b.inc("n", 4.0)
        b.set_gauge("g", 1.0)
        b.observe("h", 5.0, (10.0,))
        a.merge(b)
        snap = a.snapshot()
        assert snap.counter("n") == 5.0
        assert snap.gauges["g"] == 1.0
        assert snap.histograms["h"]["count"] == 1


class TestSnapshot:
    def test_sorted_deterministic(self):
        snap = MetricsSnapshot.from_counters(
            {"z": 1.0, "a": 2.0}, gauges={"g2": 0.0, "g1": 1.0}
        )
        assert list(snap.counters) == ["a", "z"]
        assert list(snap.gauges) == ["g1", "g2"]

    def test_from_stat_counters(self):
        stats = StatCounters({"b": 2, "a": 1})
        snap = MetricsSnapshot.from_counters(stats)
        assert snap.counters == {"a": 1.0, "b": 2.0}

    def test_counter_total_group(self):
        snap = MetricsSnapshot.from_counters(
            {"fault.page": 3.0, "fault.protection": 1.0, "other": 9.0}
        )
        assert snap.counter("fault.page") == 3.0
        assert snap.counter("missing") == 0.0
        assert snap.total("fault.") == 4.0
        assert snap.group("fault") == {"page": 3.0, "protection": 1.0}
