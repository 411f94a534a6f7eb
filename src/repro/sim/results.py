"""Simulation results."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.page import policy_name


@dataclass
class PhaseResult:
    """Timing breakdown of one phase."""

    name: str
    explicit: bool
    duration_ns: float
    gpu_busy_ns: float
    driver_busy_ns: float
    link_busy_ns: float

    @property
    def bottleneck(self) -> str:
        """Which resource bounded the phase.

        Ties break by a fixed priority — ``gpu`` > ``driver`` > ``link``
        — so the answer never depends on dict ordering (a fully
        overlapped phase where GPU and link drain together is reported
        as GPU-bound).
        """
        best_name, best_value = "gpu", self.gpu_busy_ns
        for name, value in (
            ("driver", self.driver_busy_ns),
            ("link", self.link_busy_ns),
        ):
            if value > best_value:
                best_name, best_value = name, value
        return best_name


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    workload: str
    policy: str
    n_gpus: int
    page_size: int
    total_time_ns: float
    phases: list[PhaseResult]
    stats: dict[str, float]
    traffic: dict[str, int]
    policy_histogram: dict[int, int]
    l2_miss_policy_counts: dict[str, int] = field(default_factory=dict)
    #: Gauges/histograms captured when the run was observed with a
    #: :class:`~repro.obs.MetricsRegistry`; ``None`` on unobserved runs
    #: (and omitted from :meth:`to_dict` so default results stay
    #: bit-identical to pre-observability snapshots).
    metrics: dict | None = None

    # -- observability ---------------------------------------------------

    def metrics_snapshot(self):
        """The canonical counter view of this run.

        Every consumer that reports a count (sweep tables, charts,
        exporters) reads through this snapshot, so a report and a trace
        of the same run can never disagree on a value.
        """
        from repro.obs.metrics import MetricsSnapshot

        extra = self.metrics or {}
        return MetricsSnapshot.from_counters(
            self.stats,
            gauges=extra.get("gauges", {}),
            histograms=extra.get("histograms", {}),
        )

    # -- fault accounting -----------------------------------------------
    #
    # Every count property reads through :meth:`metrics_snapshot` — the
    # same view the exporters serialize — so reports, charts and traces
    # of one run always agree.

    @property
    def page_faults(self) -> float:
        return self.metrics_snapshot().counter("fault.page")

    @property
    def protection_faults(self) -> float:
        return self.metrics_snapshot().counter("fault.protection")

    @property
    def total_faults(self) -> float:
        """All GPU page faults serviced by the UVM driver (Fig. 24).

        Not ``total("fault.")``: the per-GPU / per-object breakdown
        counters (``fault.by_gpu.*``, ``fault.by_object.*``) share the
        prefix and would triple-count.
        """
        snapshot = self.metrics_snapshot()
        return snapshot.counter("fault.page") + snapshot.counter(
            "fault.protection"
        )

    @property
    def migrations(self) -> float:
        return self.metrics_snapshot().counter("migration.count")

    @property
    def duplications(self) -> float:
        return self.metrics_snapshot().counter("duplication.count")

    @property
    def collapses(self) -> float:
        return self.metrics_snapshot().counter("collapse.count")

    @property
    def evictions(self) -> float:
        return self.metrics_snapshot().counter("eviction.count")

    # -- comparisons -------------------------------------------------------

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Performance of self normalized to ``baseline`` (higher = faster)."""
        if self.total_time_ns <= 0:
            raise ValueError("degenerate run: zero simulated time")
        return baseline.total_time_ns / self.total_time_ns

    def policy_mix(self) -> dict[str, float]:
        """Fraction of pages per final PTE policy (by name)."""
        total = sum(self.policy_histogram.values())
        if not total:
            return {}
        return {
            policy_name(bits): count / total
            for bits, count in sorted(self.policy_histogram.items())
        }

    def l2_miss_policy_mix(self) -> dict[str, float]:
        """Fraction of L2-TLB-miss requests handled under each policy
        (the Fig. 23 breakdown)."""
        total = sum(self.l2_miss_policy_counts.values())
        if not total:
            return {}
        return {
            name: count / total
            for name, count in sorted(self.l2_miss_policy_counts.items())
        }

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the whole result."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "n_gpus": self.n_gpus,
            "page_size": self.page_size,
            "total_time_ns": self.total_time_ns,
            "phases": [
                {
                    "name": p.name,
                    "explicit": p.explicit,
                    "duration_ns": p.duration_ns,
                    "gpu_busy_ns": p.gpu_busy_ns,
                    "driver_busy_ns": p.driver_busy_ns,
                    "link_busy_ns": p.link_busy_ns,
                }
                for p in self.phases
            ],
            "stats": dict(self.stats),
            "traffic": dict(self.traffic),
            "policy_histogram": {
                str(bits): count
                for bits, count in self.policy_histogram.items()
            },
            "l2_miss_policy_counts": dict(self.l2_miss_policy_counts),
            **({"metrics": dict(self.metrics)} if self.metrics else {}),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from a :meth:`to_dict` snapshot."""
        return cls(
            workload=payload["workload"],
            policy=payload["policy"],
            n_gpus=payload["n_gpus"],
            page_size=payload["page_size"],
            total_time_ns=payload["total_time_ns"],
            phases=[
                PhaseResult(
                    name=p["name"],
                    explicit=p["explicit"],
                    duration_ns=p["duration_ns"],
                    gpu_busy_ns=p["gpu_busy_ns"],
                    driver_busy_ns=p["driver_busy_ns"],
                    link_busy_ns=p["link_busy_ns"],
                )
                for p in payload["phases"]
            ],
            stats=dict(payload["stats"]),
            traffic=dict(payload["traffic"]),
            policy_histogram={
                int(bits): count
                for bits, count in payload["policy_histogram"].items()
            },
            l2_miss_policy_counts=dict(
                payload.get("l2_miss_policy_counts", {})
            ),
            metrics=(
                dict(payload["metrics"])
                if payload.get("metrics") else None
            ),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload:<10s} {self.policy:<14s} "
            f"time={self.total_time_ns / 1e6:10.3f} ms  "
            f"faults={int(self.total_faults):8d}  "
            f"migr={int(self.migrations):7d}  "
            f"dup={int(self.duplications):7d}  "
            f"collapse={int(self.collapses):6d}"
        )
