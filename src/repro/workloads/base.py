"""Trace framework: objects, phases, and the trace builder.

A :class:`Trace` is the unit of work the simulator executes.  It carries:

* the application's **objects** — each a ``cudaMallocManaged`` allocation
  with a name, size, allocation phase and optional free phase;
* a sequence of **phases** — explicit ones correspond to kernel launches
  (the runtime can observe them, Section IV-B); implicit ones are pattern
  shifts inside a single kernel (e.g. ST's iteration swaps) that the
  runtime *cannot* observe, so they carry ``explicit=False`` and policies
  receive no callback for them;
* per-phase, per-record access streams: ``(gpu, page, is_write, weight)``
  where *weight* is the number of dynamic accesses the record represents
  (post-cache reuse), already interleaved across GPUs in bursts.

Weights keep traces compact: one record for "GPU 2 reads page P about 400
times during this phase" costs one simulation step while preserving the
remote-vs-local traffic totals the policies compete on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.address_space import Allocation, VirtualAllocator

#: Default number of consecutive records one GPU contributes before the
#: interleaver switches to the next GPU.
DEFAULT_BURST = 32


@dataclass
class ObjectDef:
    """One application data object (a ``cudaMallocManaged`` allocation)."""

    name: str
    size_bytes: int
    obj_id: int
    allocation: Allocation
    alloc_phase: int = 0
    free_phase: int | None = None

    @property
    def n_pages(self) -> int:
        return self.allocation.n_pages

    @property
    def first_page(self) -> int:
        return self.allocation.first_page

    @property
    def last_page(self) -> int:
        """Inclusive index of the object's final page."""
        return self.allocation.last_page

    def pages(self) -> range:
        return self.allocation.pages()


@dataclass
class PhaseTrace:
    """One execution phase with its merged access stream."""

    name: str
    explicit: bool
    gpu: np.ndarray
    page: np.ndarray
    write: np.ndarray
    weight: np.ndarray
    #: Optional per-record tenant index (merged mix traces only; ``None``
    #: for solo traces).  Redundant with the page windows — every tenant
    #: owns a disjoint page range — so it never feeds digests, and the
    #: machine never reads it.
    tenant: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.gpu)

    @property
    def total_accesses(self) -> int:
        """Dynamic accesses represented (sum of weights)."""
        return int(self.weight.sum()) if len(self.weight) else 0

    def records(self):
        """Iterate ``(gpu, page, is_write, weight)`` tuples."""
        return zip(
            self.gpu.tolist(),
            self.page.tolist(),
            self.write.tolist(),
            self.weight.tolist(),
        )


@dataclass
class Trace:
    """A complete application trace."""

    name: str
    n_gpus: int
    page_size: int
    objects: list[ObjectDef]
    phases: list[PhaseTrace]
    first_page: int
    n_pages: int
    #: Tenant windows of a merged mix trace (a tuple of
    #: ``repro.tenancy.mix.TenantInfo``).  ``None`` for solo traces and
    #: for single-tenant mixes.  The machine never reads it: a mix
    #: replays as one application.
    tenants: tuple | None = None

    @property
    def footprint_bytes(self) -> int:
        """Total allocated bytes (the Table II memory footprint)."""
        return sum(o.allocation.n_pages * self.page_size for o in self.objects)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def total_records(self) -> int:
        return sum(len(p) for p in self.phases)

    @property
    def total_accesses(self) -> int:
        return sum(p.total_accesses for p in self.phases)

    def object_of_page(self, page: int) -> ObjectDef | None:
        """The object whose allocation covers ``page`` (binary search)."""
        objs = self.objects
        lo, hi = 0, len(objs)
        while lo < hi:
            mid = (lo + hi) // 2
            obj = objs[mid]
            if page < obj.first_page:
                hi = mid
            elif page > obj.last_page:
                lo = mid + 1
            else:
                return obj
        return None


class TraceBuilder:
    """Incrementally builds a :class:`Trace`.

    Usage::

        b = TraceBuilder("mt", n_gpus=4, page_size=4096, seed=7)
        inp = b.alloc("MT_Input", 32 * MB)
        out = b.alloc("MT_Output", 32 * MB)
        b.begin_phase("transpose", explicit=True)
        b.emit_block(gpu=0, obj=inp, offsets=np.arange(64), write=False,
                     weight=400)
        ...
        b.end_phase()
        trace = b.build()
    """

    def __init__(
        self,
        name: str,
        n_gpus: int,
        page_size: int,
        seed: int = 0,
        burst: int = DEFAULT_BURST,
    ) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.name = name
        self.n_gpus = n_gpus
        self.page_size = page_size
        self.burst = burst
        self.rng = np.random.default_rng(seed)
        self._allocator = VirtualAllocator(page_size)
        self._objects: list[ObjectDef] = []
        self._phases: list[PhaseTrace] = []
        self._phase_name: str | None = None
        self._phase_explicit = True
        # Per-GPU pending segments for the open phase: each segment is a
        # (pages, write, weight) array triple from one emit/emit_block.
        self._pending: (
            list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] | None
        ) = None
        # Per-GPU buffers of single emit() records, flushed into one
        # segment when a block lands behind them or the phase ends.
        self._singles: list[list[tuple[int, int, int]]] | None = None
        self._scale_cache: dict[int, int] = {}

    # -- allocation ------------------------------------------------------

    def alloc(self, name: str, size_bytes: int) -> ObjectDef:
        """Allocate an object; its Obj_ID is its allocation order."""
        allocation = self._allocator.alloc(size_bytes)
        obj = ObjectDef(
            name=name,
            size_bytes=size_bytes,
            obj_id=len(self._objects),
            allocation=allocation,
            alloc_phase=len(self._phases),
        )
        self._objects.append(obj)
        return obj

    def free(self, obj: ObjectDef) -> None:
        """Mark an object freed after the phase currently being built."""
        obj.free_phase = len(self._phases)

    # -- phases --------------------------------------------------------------

    def begin_phase(self, name: str, explicit: bool = True) -> None:
        if self._pending is not None:
            raise RuntimeError("previous phase not ended")
        self._phase_name = name
        self._phase_explicit = explicit
        self._pending = [[] for _ in range(self.n_gpus)]
        self._singles = [[] for _ in range(self.n_gpus)]

    def weight_scale(self, obj: ObjectDef) -> int:
        """Access-weight multiplier for one of ``obj``'s pages.

        Generators express weights per 4 KB of data; with larger pages
        one page record stands for proportionally more accesses (capped
        by how much of the page the object actually occupies), keeping
        total dynamic accesses roughly page-size invariant.  The value
        is fixed per object, so it is computed once and cached.
        """
        scale = self._scale_cache.get(obj.obj_id)
        if scale is None:
            bytes_per_page = min(
                self.page_size, max(1, obj.size_bytes // obj.n_pages)
            )
            scale = max(1, round(bytes_per_page / 4096))
            self._scale_cache[obj.obj_id] = scale
        return scale

    def emit(
        self, gpu: int, obj: ObjectDef, page_offset: int, write: bool,
        weight: int = 1,
    ) -> None:
        """Append one record: GPU accesses one page of an object."""
        if self._pending is None:
            raise RuntimeError("no open phase")
        if not 0 <= page_offset < obj.n_pages:
            raise IndexError(
                f"page offset {page_offset} outside object {obj.name!r} "
                f"({obj.n_pages} pages)"
            )
        if weight < 1:
            raise ValueError("weight must be >= 1")
        page = obj.first_page + page_offset
        self._singles[gpu].append(
            (page, int(write), weight * self.weight_scale(obj))
        )

    def emit_block(
        self,
        gpu: int,
        obj: ObjectDef,
        offsets,
        write: bool,
        weight: int = 1,
    ) -> None:
        """Append one record per page offset in ``offsets`` (vectorized)."""
        if self._pending is None:
            raise RuntimeError("no open phase")
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) == 0:
            return
        if offsets.min() < 0 or offsets.max() >= obj.n_pages:
            raise IndexError(
                f"offsets outside object {obj.name!r} ({obj.n_pages} pages)"
            )
        if weight < 1:
            raise ValueError("weight must be >= 1")
        n = len(offsets)
        self._flush_singles(gpu)
        self._pending[gpu].append(
            (
                obj.first_page + offsets,
                np.full(n, int(write), dtype=np.uint8),
                np.full(n, weight * self.weight_scale(obj), dtype=np.int64),
            )
        )

    def _flush_singles(self, gpu: int) -> None:
        """Convert buffered emit() records into one pending segment."""
        singles = self._singles[gpu]
        if not singles:
            return
        self._pending[gpu].append(
            (
                np.array([s[0] for s in singles], dtype=np.int64),
                np.array([s[1] for s in singles], dtype=np.uint8),
                np.array([s[2] for s in singles], dtype=np.int64),
            )
        )
        singles.clear()

    def end_phase(self) -> PhaseTrace:
        """Interleave the per-GPU streams in bursts and close the phase.

        The interleave is computed with one stable ``np.lexsort`` over
        (burst index, gpu) keys, which reproduces the round-robin burst
        order byte for byte: round *r* carries each GPU's *r*-th burst
        of records, GPUs in ascending order, records in emission order.
        """
        if self._pending is None:
            raise RuntimeError("no open phase")
        gpu_parts: list[np.ndarray] = []
        page_parts: list[np.ndarray] = []
        write_parts: list[np.ndarray] = []
        weight_parts: list[np.ndarray] = []
        block_parts: list[np.ndarray] = []
        for gpu in range(self.n_gpus):
            self._flush_singles(gpu)
            segments = self._pending[gpu]
            if not segments:
                continue
            pages = np.concatenate([s[0] for s in segments])
            n = len(pages)
            page_parts.append(pages)
            write_parts.append(np.concatenate([s[1] for s in segments]))
            weight_parts.append(np.concatenate([s[2] for s in segments]))
            gpu_parts.append(np.full(n, gpu, dtype=np.uint8))
            block_parts.append(np.arange(n, dtype=np.int64) // self.burst)
        if page_parts:
            gpu_all = np.concatenate(gpu_parts)
            order = np.lexsort((gpu_all, np.concatenate(block_parts)))
            phase = PhaseTrace(
                name=self._phase_name,
                explicit=self._phase_explicit,
                gpu=gpu_all[order],
                page=np.concatenate(page_parts)[order],
                write=np.concatenate(write_parts)[order],
                weight=np.concatenate(weight_parts)[order],
            )
        else:
            phase = PhaseTrace(
                name=self._phase_name,
                explicit=self._phase_explicit,
                gpu=np.array([], dtype=np.uint8),
                page=np.array([], dtype=np.int64),
                write=np.array([], dtype=np.uint8),
                weight=np.array([], dtype=np.int64),
            )
        self._phases.append(phase)
        self._pending = None
        self._singles = None
        self._phase_name = None
        return phase

    # -- finish -----------------------------------------------------------------

    def build(self) -> Trace:
        """Produce the immutable trace."""
        if self._pending is not None:
            raise RuntimeError("phase still open; call end_phase()")
        if not self._objects:
            raise RuntimeError("trace has no objects")
        first = min(o.first_page for o in self._objects)
        last = max(o.last_page for o in self._objects)
        return Trace(
            name=self.name,
            n_gpus=self.n_gpus,
            page_size=self.page_size,
            objects=list(self._objects),
            phases=list(self._phases),
            first_page=first,
            n_pages=last - first + 1,
        )
