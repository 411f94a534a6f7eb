"""System configuration for the multi-GPU UVM simulator.

This module encodes the baseline configuration of Table I of the OASIS paper
(HPCA 2025) plus the analytical latency/bandwidth model the trace-driven
simulator uses to convert page-management events into time.

The configuration is split into three dataclasses:

* :class:`TLBConfig` — geometry of one TLB level.
* :class:`LatencyModel` — the analytical cost model (all values in
  nanoseconds unless noted).
* :class:`SystemConfig` — everything else: GPU count, page size, policy
  thresholds, initial placement, oversubscription.

All experiment knobs exercised by the paper's sensitivity studies (GPU count,
page size, reset threshold, initial placement, oversubscription factor) are
plain fields here so that every experiment is a ``dataclasses.replace`` away
from the baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Device id used for the host CPU everywhere in the simulator. GPUs are
#: numbered ``0 .. n_gpus - 1``.
HOST = -1

#: Bytes per standard small page (Table I baseline).
PAGE_SIZE_4K = 4 * 1024

#: Bytes per large page (Section VI-B4 sensitivity study).
PAGE_SIZE_2M = 2 * 1024 * 1024

#: Size in bytes of the region covered by one hardware access counter
#: (NVIDIA counts remote accesses per 64 KB page group).
ACCESS_COUNTER_GROUP_BYTES = 64 * 1024

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of a single TLB level (set-associative, LRU)."""

    entries: int
    ways: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("TLB entries and ways must be positive")
        if self.entries % self.ways != 0:
            raise ValueError(
                f"TLB entries ({self.entries}) must be a multiple of "
                f"ways ({self.ways})"
            )

    @property
    def sets(self) -> int:
        """Number of sets in the TLB."""
        return self.entries // self.ways


@dataclass(frozen=True)
class LatencyModel:
    """Analytical latency/bandwidth model (nanoseconds / bytes-per-ns).

    The trace-driven simulator counts page-management events exactly and
    charges each event a cost from this model.  GPU memory accesses are
    heavily overlapped by the SIMT machine, so overlappable latencies are
    divided by :attr:`mem_parallelism`; page faults stall warps and
    serialize in the UVM driver, so they are divided only by
    :attr:`fault_parallelism`.
    """

    #: Compute-throughput cost per memory access: the ALU/issue work the
    #: kernel performs per operand fetched.  This is what a perfect memory
    #: system leaves behind — it dilutes NUMA penalties to realistic
    #: magnitudes (without it, fault costs dwarf everything and every
    #: policy ratio explodes).
    compute_ns_per_access: float = 210.0
    #: DRAM access on the local GPU (post-TLB).
    local_access_ns: float = 100.0
    #: One access to a page resident on a peer GPU over NVLink.
    remote_access_ns: float = 420.0
    #: One access to a page resident in host memory over PCIe.
    host_access_ns: float = 1250.0
    #: L1 TLB hit.
    l1_tlb_hit_ns: float = 1.0
    #: L2 TLB lookup (charged on L1 miss).
    l2_tlb_ns: float = 10.0
    #: GMMU page-table walk (charged on L2 TLB miss).
    walk_ns: float = 300.0
    #: GPU-side cost of one fault round trip: pipeline drain, fault message
    #: to the host, replay after resolution.
    fault_service_ns: float = 2_800.0
    #: Driver CPU occupancy per fault (batched UVM servicing amortizes the
    #: software path; this is the serialized per-fault share).
    fault_driver_occupancy_ns: float = 550.0
    #: Cost to invalidate one remote PTE + TLB shootdown on one device.
    pte_invalidate_ns: float = 2_000.0
    #: Extra driver work per read duplicate revoked by a page
    #: write-collapse: beyond the plain PTE shootdown, each copy needs the
    #: heavier protection-fault path with cross-GPU ownership transfer
    #: (the overhead the paper attributes to collapsing rw-shared pages).
    #: Widely-duplicated pages are therefore much more expensive to
    #: collapse than a single handoff copy.
    collapse_overhead_ns: float = 6_000.0
    #: Cost to update PTEs after a policy change (runs concurrently with
    #: fault resolution per Section V-E, so it is cheap but not free).
    pte_update_ns: float = 500.0
    #: Extra cost charged when GRIT misses its on-chip PA-cache and must
    #: fetch per-page metadata from memory.
    metadata_memory_ns: float = 1_200.0
    #: Cost of an O-Table lookup for hardware OASIS (on-chip, Section V-E).
    otable_ns: float = 2.0
    #: Cost of a shadow-map + O-Table-InMem lookup served by the CPU LLC.
    inmem_llc_ns: float = 120.0
    #: Cost of a shadow-map lookup that misses the CPU LLC (DRAM).
    inmem_dram_ns: float = 600.0
    #: NVLink-v2 bandwidth between GPUs (Table I: 300 GB/s).
    nvlink_bw_bytes_per_ns: float = 300.0
    #: PCIe-v4 bandwidth between CPU and GPUs (Table I: 32 GB/s).
    pcie_bw_bytes_per_ns: float = 32.0
    #: Memory-level parallelism for overlappable local accesses.
    mem_parallelism: float = 32.0
    #: Parallelism for remote (NVLink/PCIe) accesses — shallower than local
    #: because remote transactions occupy MSHRs and link credits longer.
    remote_parallelism: float = 8.0
    #: Effective parallelism for fault stalls (a faulting wavefront blocks,
    #: but other wavefronts make some progress).
    fault_parallelism: float = 4.0


@dataclass(frozen=True)
class SystemConfig:
    """Full multi-GPU system configuration (Table I baseline by default)."""

    #: Number of GPUs (paper baseline: 4; sensitivity: 8, 16).
    n_gpus: int = 4
    #: Page size in bytes (4 KB baseline; 2 MB sensitivity).
    page_size: int = PAGE_SIZE_4K
    #: Per-GPU DRAM capacity in bytes (Table I: 4 GB).
    gpu_memory_bytes: int = 4 * GB
    #: Remote-access threshold for access-counter-based migration
    #: (Table I: 256 per 64 KB group).
    access_counter_threshold: int = 256
    #: Bytes covered by one access counter.
    counter_group_bytes: int = ACCESS_COUNTER_GROUP_BYTES
    #: OASIS O-Table reset threshold (Section V-D, default 8).
    reset_threshold: int = 8
    #: Number of O-Table entries (Section V-E: 16 entries suffice).
    otable_entries: int = 16
    #: Bits used to encode the Obj_ID in the pointer (Fig. 9: 4 bits).
    obj_id_bits: int = 4
    #: L1 TLB: 32 entries, 32-way, CU-private (we model one per GPU since
    #: traces are per-GPU streams).
    l1_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, 32))
    #: L2 TLB: 512 entries, 16-way, shared by the GPU's CUs.
    l2_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(512, 16))
    #: Where pages live before first touch: ``"host"`` (baseline) or
    #: ``"distributed"`` round-robin across GPUs (Fig. 21; not with an
    #: oversubscription factor).
    initial_placement: str = "host"
    #: Memory oversubscription factor: 1.0 means the working set exactly
    #: fits; 1.5 means the working set is 150% of available GPU memory
    #: (Fig. 25).  ``None`` disables capacity modelling entirely.
    oversubscription: float | None = None
    #: Analytical cost model.
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("need at least one GPU")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.access_counter_threshold < 1:
            raise ValueError("access_counter_threshold must be >= 1")
        if self.reset_threshold < 1:
            raise ValueError("reset_threshold must be >= 1")
        if self.initial_placement not in ("host", "distributed"):
            raise ValueError(
                "initial_placement must be 'host' or 'distributed', got "
                f"{self.initial_placement!r}"
            )
        if self.counter_group_bytes % self.page_size != 0:
            # For 2 MB pages the counter group is one page.
            object.__setattr__(
                self, "counter_group_bytes", max(self.counter_group_bytes, self.page_size)
            )
        if self.oversubscription is not None and self.oversubscription <= 0:
            raise ValueError("oversubscription factor must be positive")
        if (
            self.oversubscription is not None
            and self.initial_placement == "distributed"
        ):
            # Distributed placement seeds every GPU with its round-robin
            # share as held copies the capacity manager never tracks, so
            # the machine would start over capacity with nothing it can
            # evict.
            raise ValueError(
                "initial_placement='distributed' cannot be combined with "
                f"an oversubscription factor ({self.oversubscription!r})"
            )

    @property
    def pages_per_counter_group(self) -> int:
        """Pages covered by one hardware access counter."""
        return max(1, self.counter_group_bytes // self.page_size)

    @property
    def devices(self) -> tuple[int, ...]:
        """All device ids: the host followed by every GPU."""
        return (HOST, *range(self.n_gpus))

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def baseline_config(**changes) -> SystemConfig:
    """The Table I baseline configuration, optionally with overrides."""
    return SystemConfig(**changes) if changes else SystemConfig()
