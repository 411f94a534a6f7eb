"""The multi-GPU machine: assembles all components and replays traces.

:class:`Machine` wires together the page tables, TLBs, interconnect,
access counters, capacity manager and UVM driver for one simulation run,
attaches a policy engine, and replays a :class:`~repro.workloads.base.Trace`
phase by phase.

Timing model (see DESIGN.md §4): every GPU accumulates latency on its own
clock; overlappable access latency is divided by the memory-level-
parallelism factor while fault stalls are divided by the (much smaller)
fault-parallelism factor and serialize through the driver's FIFO queue.  A
phase ends when the slowest GPU, the driver, and the busiest link have all
drained; clocks re-synchronize at phase boundaries (kernels are barriers).

:meth:`Machine.access` is the per-record path (the vectorized fast path
in :mod:`repro.sim.fastpath` replays every policy it has a fused loop
for, bit-identically).
It reads the page's whole page-table entry once per record, and again
after a page fault, whose resolution may rewrite any column; its latency
terms and the traced page range are bound once per machine.
"""

from __future__ import annotations

import math

from repro.config import HOST, SystemConfig
from repro.engine import StatCounters
from repro.interconnect import Topology
from repro.memory import AccessCounterFile, CapacityManager, PageTables
from repro.memory.page import policy_name
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.base import PolicyEngine
from repro.sim.fastpath import FastReplay
from repro.sim.results import PhaseResult, SimulationResult
from repro.tlb import TLBHierarchy
from repro.verify.invariants import NULL_VERIFIER, Verifier
from repro.uvm import UVMDriver
from repro.workloads.base import Trace

#: Bytes moved per remote access transaction (GPU cache-line sized).
REMOTE_ACCESS_BYTES = 128


class Machine:
    """One simulated multi-GPU system executing one trace."""

    def __init__(
        self,
        config: SystemConfig,
        trace: Trace,
        policy: PolicyEngine,
        tracer: Tracer | None = None,
        verifier: Verifier | None = None,
        memo=None,
    ) -> None:
        if trace.n_gpus != config.n_gpus:
            raise ValueError(
                f"trace was generated for {trace.n_gpus} GPUs but the config "
                f"has {config.n_gpus}"
            )
        if trace.page_size != config.page_size:
            raise ValueError(
                f"trace page size {trace.page_size} != config page size "
                f"{config.page_size}"
            )
        self.config = config
        self.trace = trace
        self.policy = policy
        self.stats = StatCounters()
        # The per-record path's constants, bound once per machine instead
        # of read through config.latency on every record.
        lat = config.latency
        self._compute_ns = lat.compute_ns_per_access
        self._local_ns = lat.local_access_ns
        self._host_ns = lat.host_access_ns
        self._remote_ns = lat.remote_access_ns
        self._mem_parallelism = lat.mem_parallelism
        self._remote_parallelism = lat.remote_parallelism
        self._fault_parallelism = lat.fault_parallelism
        self._fault_occupancy_ns = lat.fault_driver_occupancy_ns
        self._fault_service_ns = lat.fault_service_ns
        self._first_page = trace.first_page
        # Observability: the null tracer keeps every hook a single
        # attribute test, so an unobserved run is bit-identical (and
        # fast-path eligible) exactly as before this subsystem existed.
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Verification: the null verifier keeps the phase-boundary hook a
        # single attribute test.  Checks only run at quiescent points, so
        # (unlike observation) a real verifier does NOT disable the
        # vectorized fast path — verified runs stay bit-identical.
        self.verifier = NULL_VERIFIER if verifier is None else verifier
        # Faults are the hottest event (one per serviced fault): emit
        # through per-GPU columnar sinks rather than per-event objects.
        self._fault_rows = (
            tuple(
                self.tracer.sink(
                    f"gpu{g}", "fault",
                    ("page", "protection", "write", "object", "stall_ns"),
                )
                for g in range(config.n_gpus)
            )
            if self.tracer.enabled
            else None
        )
        coherent = not getattr(policy, "requires_incoherent_page_tables", False)
        self.page_tables = PageTables(
            n_pages=trace.n_pages,
            n_gpus=config.n_gpus,
            initial_placement=config.initial_placement,
            first_page=trace.first_page,
            coherent=coherent,
        )
        self.topology = Topology(config.n_gpus, config.latency)
        self.tlbs = [
            TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
            for _ in range(config.n_gpus)
        ]
        self.access_counters = AccessCounterFile(
            n_gpus=config.n_gpus,
            pages_per_group=config.pages_per_counter_group,
            threshold=config.access_counter_threshold,
        )
        self.capacity = CapacityManager(
            config.n_gpus, self._capacity_pages_per_gpu()
        )
        self.driver = UVMDriver(
            config=config,
            page_tables=self.page_tables,
            topology=self.topology,
            tlbs=self.tlbs,
            capacity=self.capacity,
            counters=self.access_counters,
            stats=self.stats,
            tracer=self.tracer,
        )
        self.clocks = [0.0] * config.n_gpus
        self._fault_keys = [f"fault.by_gpu.{g}" for g in range(config.n_gpus)]
        self._object_fault_keys = [
            f"fault.by_object.{obj.name}" for obj in trace.objects
        ]
        #: Object lookup by page: dense array over the tracked page range.
        self._obj_of_page = self._build_object_map()
        #: L2-TLB-miss counts per policy name (Fig. 23).
        self.l2_miss_policy_counts: dict[str, int] = {}
        self._allocated: set[int] = set()
        policy.attach(self)
        # Whole-chunk fused-loop replayer, oversubscribed runs included;
        # None when the run must stay on the per-record path
        # (REPRO_FORCE_SLOW_PATH, a policy with no fused loop, or an
        # attached tracer — per-event observation needs the exact
        # per-record path, which is bit-identical anyway).
        self._fast = (
            None if self.tracer.enabled else FastReplay.for_machine(self)
        )
        # Phase-prefix memoization (a MemoSession from
        # repro.sim.snapshot.PhaseMemo): only unobserved, multi-phase runs
        # participate.  Observed runs would lose their per-event records
        # across skipped phases.  The session still captures boundaries
        # on slow-path runs — its key carries the replay-path flag, so
        # fast and slow prefixes can never cross-pollinate.
        self._memo = (
            memo
            if (
                memo is not None
                and not self.tracer.enabled
                and len(trace.phases) >= 2
            )
            else None
        )

    # -- setup helpers ----------------------------------------------------

    def _capacity_pages_per_gpu(self) -> int | None:
        factor = self.config.oversubscription
        if factor is None:
            return None
        data_pages = sum(o.n_pages for o in self.trace.objects)
        capacity = int(data_pages / (self.config.n_gpus * factor))
        return max(1, capacity)

    def _build_object_map(self) -> list[int]:
        mapping = [-1] * self.trace.n_pages
        base = self.trace.first_page
        for obj in self.trace.objects:
            start = obj.first_page - base
            for i in range(start, start + obj.n_pages):
                mapping[i] = obj.obj_id
        return mapping

    # -- services used by policy engines -------------------------------------

    def object_id_of(self, page: int) -> int:
        """Obj_ID of the object covering ``page`` (-1 if none)."""
        offset = page - self._first_page
        if 0 <= offset < self.trace.n_pages:
            return self._obj_of_page[offset]
        return -1

    def tracks_page(self, page: int) -> bool:
        """True if the page belongs to the traced address range."""
        offset = page - self._first_page
        return 0 <= offset < self.trace.n_pages and self._obj_of_page[offset] >= 0

    def set_all_policy_bits(self, bits: int) -> None:
        """Stamp every object page with the given PTE policy bits."""
        for obj in self.trace.objects:
            self.page_tables.set_policy_range(obj.first_page, obj.n_pages, bits)

    def charge_driver_op(self, gpu: int, service_ns: float) -> None:
        """Run a driver operation (e.g. counter migration) for ``gpu``.

        The operation queues behind other driver work; the GPU observes a
        partially-overlapped stall.
        """
        done = self.driver.queue.submit(
            self.clocks[gpu], self._fault_occupancy_ns + service_ns
        )
        stall = done - self.clocks[gpu]
        self.clocks[gpu] += stall / self._fault_parallelism

    # -- the access path -------------------------------------------------------

    def access(self, gpu: int, page: int, is_write: bool, weight: int) -> None:
        """Replay one trace record: ``weight`` accesses by ``gpu`` to ``page``.

        The page's page-table entry is read once up front and once more
        after a page fault (the policy may have rewritten any column,
        its policy bits included).  Every other probe on this path comes
        before the next mutation of the page, so it reads those values.
        """
        pt = self.page_tables
        clocks = self.clocks
        stats = self.stats
        clocks[gpu] += weight * self._compute_ns
        if self.capacity.enabled:
            self.capacity.note_access(gpu, page)
        tlb = self.tlbs[gpu]
        bit = 1 << gpu
        owner, copies, mapped, writable, bits = pt.entry(page)
        if not mapped & bit:
            # Translation fails after a full TLB + walk attempt: page fault.
            cost_ns, l2_miss = tlb.translate_fast(page)
            if l2_miss:
                self._note_l2_miss(bits)
            clocks[gpu] += cost_ns / self._mem_parallelism
            self._fault(gpu, page, is_write, protection=False)
            weight -= 1
            if weight <= 0:
                return
            # Remaining accesses in the record proceed with the new mapping.
            owner, copies, mapped, writable, bits = pt.entry(page)
        cost, l2_miss = tlb.translate_fast(page)
        if l2_miss:
            self._note_l2_miss(bits)
        if copies & bit:
            if is_write and not writable & bit:
                # Write to a read-only duplicate: page-protection fault,
                # then the remaining accesses are local writes.
                clocks[gpu] += cost / self._mem_parallelism
                self._fault(gpu, page, is_write=True, protection=True)
                cost = 0.0
            cost += self._local_ns * weight
            clocks[gpu] += cost / self._mem_parallelism
            stats.add("access.local", weight)
        else:
            if owner == HOST:
                per_access = self._host_ns
                stats.add("access.host", weight)
            else:
                per_access = self._remote_ns
                stats.add("access.remote", weight)
            clocks[gpu] += cost / self._mem_parallelism
            clocks[gpu] += per_access * weight / self._remote_parallelism
            if owner != gpu:
                self.topology.record_transfer(
                    gpu, owner, REMOTE_ACCESS_BYTES * weight
                )
            self.policy.on_remote_access(gpu, page, is_write, weight)

    def _note_l2_miss(self, bits: int) -> None:
        """Count one L2 TLB miss against the page's policy ``bits``."""
        name = policy_name(bits)
        counts = self.l2_miss_policy_counts
        counts[name] = counts.get(name, 0) + 1

    def _fault(self, gpu: int, page: int, is_write: bool, protection: bool) -> None:
        stats = self.stats
        stats.add(self._fault_keys[gpu])
        obj_id = self._obj_of_page[page - self._first_page]
        if obj_id >= 0:
            stats.add(self._object_fault_keys[obj_id])
        if protection:
            stats.add("fault.protection")
            resolution = self.policy.on_protection_fault(gpu, page)
        else:
            stats.add("fault.page")
            resolution = self.policy.on_fault(gpu, page, is_write)
        # The driver CPU is occupied for its (batched) per-fault share plus
        # the resolution work; the GPU additionally pays the fault round
        # trip, partially overlapped with other wavefronts.
        service = self._fault_occupancy_ns + resolution
        clocks = self.clocks
        done = self.driver.queue.submit(clocks[gpu], service)
        stall = (done - clocks[gpu]) + self._fault_service_ns
        charged = stall / self._fault_parallelism
        if self._fault_rows is not None:
            self._fault_rows[gpu].append(
                (clocks[gpu], page, protection, is_write, obj_id, charged)
            )
        clocks[gpu] += charged

    # -- run loop -------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay every phase and return the result."""
        phases: list[PhaseResult] = []
        now = 0.0
        tracer = self.tracer
        tracing = tracer.enabled
        verifier = self.verifier
        replayed = 0
        span_tracks: list[str] = []
        if tracing:
            span_tracks = [
                f"gpu{g}" for g in range(self.config.n_gpus)
            ] + ["driver"]
            run_args = {
                "workload": self.trace.name,
                "policy": self.policy.name,
            }
            for track in span_tracks:
                tracer.begin_span(track, "run", 0.0, run_args)
        start_index = 0
        memo = self._memo
        if memo is not None:
            resumed = memo.resume(self)
            if resumed is not None:
                # The snapshot captured the quiescent state after
                # _do_frees at this boundary — exactly what the next
                # iteration starts from — so the loop simply continues.
                start_index, now, phases = resumed
                replayed = sum(
                    p.total_accesses
                    for p in self.trace.phases[:start_index]
                )
        for index in range(start_index, len(self.trace.phases)):
            phase = self.trace.phases[index]
            self._do_allocations(index, now)
            self.policy.on_phase_start(index, phase)
            if tracing:
                for track in span_tracks:
                    tracer.begin_span(
                        track, phase.name, now,
                        {"phase": index, "explicit": phase.explicit},
                    )
            phase_result = self._run_phase(phase, start_time=now)
            phases.append(phase_result)
            now += phase_result.duration_ns
            if tracing:
                for track in span_tracks:
                    tracer.end_span(track, now)
            self._sync_clocks(now)
            self._do_frees(index, now)
            if verifier.enabled:
                replayed += phase.total_accesses
                verifier.after_phase(self, index, replayed)
            if memo is not None:
                memo.after_phase(self, index, now, phases)
        if tracing:
            tracer.finish(now)
        result = SimulationResult(
            workload=self.trace.name,
            policy=self.policy.name,
            n_gpus=self.config.n_gpus,
            page_size=self.config.page_size,
            total_time_ns=now,
            phases=phases,
            stats=self.stats.as_dict(),
            traffic=self.topology.traffic_snapshot(),
            policy_histogram=self.page_tables.policy_histogram(),
            l2_miss_policy_counts=dict(self.l2_miss_policy_counts),
        )
        if verifier.enabled:
            verifier.after_run(self, result)
        return result

    def _do_allocations(self, phase_index: int, now: float = 0.0) -> None:
        for obj in self.trace.objects:
            if obj.alloc_phase == phase_index and obj.obj_id not in self._allocated:
                self._allocated.add(obj.obj_id)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "driver", "alloc", now,
                        {"object": obj.name, "pages": obj.n_pages},
                    )
                self.policy.on_alloc(obj)

    def _do_frees(self, phase_index: int, now: float = 0.0) -> None:
        for obj in self.trace.objects:
            if obj.free_phase == phase_index:
                if self.tracer.enabled:
                    self.tracer.instant(
                        "driver", "free", now, {"object": obj.name}
                    )
                self.policy.on_free(obj)

    def _run_phase(self, phase, start_time: float) -> PhaseResult:
        link_busy_before = [link.busy_time_ns for link in self.topology.links()]
        driver_busy_before = self.driver.queue.busy_time
        if self._fast is not None:
            self._fast.run_phase(phase)
        else:
            access = self.access
            for gpu, page, write, weight in phase.records():
                access(gpu, page, bool(write), weight)
        gpu_busy = max(
            (clock - start_time for clock in self.clocks), default=0.0
        )
        gpu_busy = max(gpu_busy, 0.0)
        driver_busy = self.driver.queue.busy_time - driver_busy_before
        link_busy = max(
            (
                after.busy_time_ns - before
                for after, before in zip(self.topology.links(), link_busy_before)
            ),
            default=0.0,
        )
        duration = max(gpu_busy, driver_busy, link_busy)
        if not math.isfinite(duration):
            raise RuntimeError(f"non-finite phase duration in {phase.name!r}")
        if self.tracer.enabled and duration > 0.0:
            self._sample_phase(
                start_time, duration, link_busy_before, driver_busy
            )
        return PhaseResult(
            name=phase.name,
            explicit=phase.explicit,
            duration_ns=duration,
            gpu_busy_ns=gpu_busy,
            driver_busy_ns=driver_busy,
            link_busy_ns=link_busy,
        )

    def _sample_phase(
        self,
        start_ns: float,
        duration_ns: float,
        link_busy_before: list[float],
        driver_busy_ns: float,
    ) -> None:
        """Per-phase utilization samples (traced runs only).

        At the phase's end each link's busy-time delta over the phase
        becomes a utilization sample on its own track, the driver's on
        the driver track, and on capacity runs each GPU's resident-page
        count a sample on its GPU track.  Pure reads — simulation state
        is never touched, so traced runs stay bit-identical.
        """
        end_ns = start_ns + duration_ns
        tracer = self.tracer
        for link, before in zip(self.topology.links(), link_busy_before):
            tracer.sample(
                f"link:{link.name}", "utilization", end_ns,
                (link.busy_time_ns - before) / duration_ns,
            )
        tracer.sample(
            "driver", "utilization", end_ns, driver_busy_ns / duration_ns
        )
        if self.capacity.enabled:
            for gpu, resident in enumerate(
                self.capacity.pressure_snapshot()
            ):
                tracer.sample(f"gpu{gpu}", "resident_pages", end_ns, resident)

    def _sync_clocks(self, now: float) -> None:
        """Kernel boundaries are barriers: everyone meets at ``now``."""
        for gpu in range(self.config.n_gpus):
            self.clocks[gpu] = now
        if self.driver.queue.free_at < now:
            self.driver.queue.submit(now, 0.0)


def simulate(
    config: SystemConfig,
    trace: Trace,
    policy: PolicyEngine,
    tracer: Tracer | None = None,
    verifier: Verifier | None = None,
    memo=None,
) -> SimulationResult:
    """Convenience wrapper: build a machine, run it, return the result.

    Pass a :class:`~repro.obs.RecordingTracer` to observe the run; the
    default null tracer keeps the vectorized fast path engaged, and a
    traced run's result is bit-identical to an unobserved one.  Pass a
    :class:`~repro.verify.invariants.InvariantVerifier` to check
    machine-wide invariants at every phase boundary (quiescent-point
    checks: the fast path stays engaged and the result is unchanged).
    Pass a :class:`~repro.sim.snapshot.MemoSession` (from
    :meth:`~repro.sim.snapshot.PhaseMemo.session`) to resume from / store
    phase-boundary snapshots — memoized runs are bit-identical to cold
    ones (the ``memo`` differential lane asserts exactly that).
    """
    return Machine(
        config, trace, policy, tracer=tracer, verifier=verifier, memo=memo,
    ).run()
