"""Metrics registry: counters, gauges and fixed-bucket histograms.

:class:`MetricsRegistry` is the quantitative half of the observability
subsystem.  It *wraps* the run's existing
:class:`~repro.engine.StatCounters` rather than replacing it: counter
increments flow straight through to the stats object (so the
merge/prefix/report API and every recorded counter stay exactly as
before), while gauges and histograms — which StatCounters cannot
express — live in the registry and appear only in its
:meth:`~MetricsRegistry.snapshot`.

Histograms use fixed bucket layouts (module constants below) so two
snapshots are always mergeable and a Prometheus dump of the same run is
byte-stable.

:class:`MetricsSnapshot` is the canonical read-only view: every consumer
that reports counts (sweep tables, charts, trace exporters) reads
through a snapshot so reports and traces can never disagree on a value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.engine import StatCounters

#: Fault-service latency buckets (ns): spans TLB-walk-only stalls up to
#: driver-queue pile-ups during fault storms.
FAULT_LATENCY_BUCKETS_NS = (
    500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 1_000_000.0,
)

#: Data-movement size buckets (bytes): 4 KB and 2 MB pages plus the
#: 128 B remote-access granule.
TRANSFER_BYTES_BUCKETS = (
    128.0, 4_096.0, 65_536.0, 1_048_576.0, 2_097_152.0,
)

#: Per-phase link utilization buckets (busy fraction of phase time).
LINK_UTILIZATION_BUCKETS = (
    0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0,
)


class Histogram:
    """A fixed-bucket histogram (cumulative, Prometheus-style)."""

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; last slot is +Inf overflow.
        self._counts = [0] * (len(bounds) + 1)
        self._total = 0
        self._sum = 0.0
        #: Deferred observations (see :meth:`sink`), folded in on read.
        self._pending: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._total += 1
        self._sum += value
        # bisect_left finds the first bound >= value, i.e. the bucket
        # with ``value <= bound``; past-the-end lands in the +Inf slot.
        self._counts[bisect_left(self.bounds, value)] += 1

    def sink(self) -> list:
        """Bulk-emit channel for hot call sites.

        Appending a raw value here costs one list append; bucketing is
        deferred until the histogram is next read (the same trick as
        :meth:`repro.obs.tracer.Tracer.sink`).
        """
        return self._pending

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            bounds, counts = self.bounds, self._counts
            for value in pending:
                counts[bisect_left(bounds, value)] += 1
            self._total += len(pending)
            self._sum += sum(pending)
            pending.clear()

    @property
    def total(self) -> int:
        self._flush()
        return self._total

    @property
    def sum(self) -> float:
        self._flush()
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        self._flush()
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self._total))
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layouts differ"
            )
        self._flush()
        other._flush()
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._total += other._total
        self._sum += other._sum
        return self

    def to_dict(self) -> dict:
        self._flush()
        return {
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": self._total,
            "sum": self._sum,
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, deterministically-ordered view of one run's metrics.

    The single source every report/chart/exporter reads counts from.
    """

    counters: dict
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    @classmethod
    def from_counters(
        cls,
        counters: "StatCounters | Mapping[str, float]",
        gauges: Mapping[str, float] | None = None,
        histograms: Mapping[str, dict] | None = None,
    ) -> "MetricsSnapshot":
        if isinstance(counters, StatCounters):
            counts = counters.as_dict()
        else:
            counts = {k: float(v) for k, v in sorted(counters.items())}
        return cls(
            counters=counts,
            gauges=dict(sorted((gauges or {}).items())),
            histograms=dict(sorted((histograms or {}).items())),
        )

    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def total(self, prefix: str) -> float:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(
            v for k, v in self.counters.items() if k.startswith(prefix)
        )

    def group(self, prefix: str) -> dict[str, float]:
        """Counters under ``prefix`` with the prefix stripped."""
        plen = len(prefix)
        return {
            k[plen:].lstrip("."): v
            for k, v in self.counters.items()
            if k.startswith(prefix)
        }


class MetricsRegistry:
    """Counters (delegated to StatCounters), gauges and histograms.

    Args:
        stats: the :class:`StatCounters` instance counter traffic flows
            into.  The machine binds its own stats object at attach time
            (:meth:`bind_stats`), so one registry can be created up front
            and handed to :func:`repro.simulate`.
    """

    def __init__(self, stats: StatCounters | None = None) -> None:
        self.stats = stats if stats is not None else StatCounters()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def bind_stats(self, stats: StatCounters) -> None:
        """Point counter reads/writes at an existing run's stats."""
        self.stats = stats

    # -- counters (StatCounters pass-through) -----------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (lands in the wrapped StatCounters)."""
        self.stats.add(name, amount)

    def counter(self, name: str) -> float:
        return self.stats[name]

    # -- gauges ------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # -- histograms --------------------------------------------------------

    def histogram(self, name: str, buckets: Iterable[float]) -> Histogram:
        """Get-or-create the histogram ``name`` with ``buckets``.

        Hot-path callers should hold on to the returned object and call
        :meth:`Histogram.observe` on it directly — the layout check here
        costs a tuple comparison when ``buckets`` is an already-sorted
        tuple (the module-level layouts) but re-sorts otherwise.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name, buckets)
            self._histograms[name] = hist
        elif buckets != hist.bounds and (
            tuple(sorted(float(b) for b in buckets)) != hist.bounds
        ):
            raise ValueError(
                f"histogram {name!r} already registered with a different "
                "bucket layout"
            )
        return hist

    def observe(self, name: str, value: float,
                buckets: Iterable[float]) -> None:
        """Record one observation into histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one; returns self."""
        self.stats.merge(other.stats)
        for name, value in other._gauges.items():
            self._gauges[name] = value
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self.histogram(name, hist.bounds).merge(hist)
            else:
                mine.merge(hist)
        return self

    def snapshot(self) -> MetricsSnapshot:
        """The canonical deterministic view of everything recorded."""
        return MetricsSnapshot.from_counters(
            self.stats,
            gauges=self._gauges,
            histograms={
                name: hist.to_dict()
                for name, hist in self._histograms.items()
            },
        )
