"""OASIS-InMem: the software-only alternative (Section V-F, Fig. 14).

When objects outnumber the available pointer-tag bits, or the upper
pointer bits are reserved for other uses (memory tagging, ECC tags),
OASIS-InMem

* keeps the O-Table in system memory (O-Table-InMem), and
* retrieves the Obj_ID through a **two-level shadow map** instead of the
  pointer tag: the first level is a 2^24-element array of pointers to
  dynamically-allocated second-level tables of 2^12 N-bit entries, each
  entry covering one 4 KB segment of virtual memory.

Both structures are hot in the CPU's last-level cache (the LLC is
underutilized since program data lives on the GPUs), so lookups cost LLC
latency after first touch; cold lines pay a DRAM access.
"""

from __future__ import annotations

import numpy as np

from repro.core.oasis import OasisPolicy

#: First-level index width: 2^24 entries (Section V-F).
LEVEL1_BITS = 24
#: Second-level table size: 2^12 entries.
LEVEL2_BITS = 12
#: Bytes of virtual memory covered by one shadow-map entry.
SEGMENT_BYTES = 4 * 1024
#: Obj_ID width in the shadow map (N = 16 supports 2^16 objects).
ENTRY_BITS = 16
#: One 64 B cache line holds 32 two-byte entries; a line therefore covers
#: 32 * 4 KB = 128 KB of virtual memory.
LINE_COVERAGE_SHIFT = 17

#: Entry value meaning "no object mapped here".
UNMAPPED = -1


class ShadowMap:
    """Two-level shadow map: virtual 4 KB segment → N-bit Obj_ID."""

    def __init__(self) -> None:
        self._tables: dict[int, np.ndarray] = {}
        self.lookups = 0

    @property
    def level2_tables(self) -> int:
        """Number of second-level tables allocated so far."""
        return len(self._tables)

    @property
    def first_level_bytes(self) -> int:
        """Fixed first-level size: 2^24 8-byte pointers = 128 MB."""
        return (1 << LEVEL1_BITS) * 8

    @property
    def second_level_bytes(self) -> int:
        """Dynamically-allocated second-level storage."""
        return self.level2_tables * (1 << LEVEL2_BITS) * (ENTRY_BITS // 8)

    def _table_for(self, l1_index: int, create: bool) -> np.ndarray | None:
        table = self._tables.get(l1_index)
        if table is None and create:
            table = np.full(1 << LEVEL2_BITS, UNMAPPED, dtype=np.int32)
            self._tables[l1_index] = table
        return table

    def set_range(self, base_va: int, size: int, obj_id: int) -> int:
        """Map every 4 KB segment of ``[base_va, base_va+size)`` to ``obj_id``.

        Returns the number of shadow-map entries written (e.g. a 2 MB
        object writes 512 entries, Section V-F).
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if not 0 <= obj_id < (1 << ENTRY_BITS):
            raise ValueError(f"obj_id {obj_id} does not fit in {ENTRY_BITS} bits")
        first_seg = base_va // SEGMENT_BYTES
        last_seg = (base_va + size - 1) // SEGMENT_BYTES
        written = 0
        seg = first_seg
        while seg <= last_seg:
            l1 = seg >> LEVEL2_BITS
            table = self._table_for(l1, create=True)
            lo = seg & ((1 << LEVEL2_BITS) - 1)
            hi = min((1 << LEVEL2_BITS) - 1, lo + (last_seg - seg))
            table[lo : hi + 1] = obj_id
            written += hi - lo + 1
            seg += hi - lo + 1
        return written

    def clear_range(self, base_va: int, size: int) -> None:
        """Unmap a freed object's segments."""
        first_seg = base_va // SEGMENT_BYTES
        last_seg = (base_va + size - 1) // SEGMENT_BYTES
        for seg in range(first_seg, last_seg + 1):
            table = self._table_for(seg >> LEVEL2_BITS, create=False)
            if table is not None:
                table[seg & ((1 << LEVEL2_BITS) - 1)] = UNMAPPED

    def lookup(self, vaddr: int) -> int:
        """Obj_ID of the segment containing ``vaddr`` (-1 if unmapped)."""
        self.lookups += 1
        seg = vaddr // SEGMENT_BYTES
        table = self._table_for(seg >> LEVEL2_BITS, create=False)
        if table is None:
            return UNMAPPED
        return int(table[seg & ((1 << LEVEL2_BITS) - 1)])


class OasisInMemPolicy(OasisPolicy):
    """OASIS with the in-memory O-Table and shadow-map Obj_ID retrieval."""

    name = "oasis_inmem"

    #: Configuration bit "0" signals shadow-map retrieval (Section V-B).
    config_bit = 0

    def __init__(self) -> None:
        super().__init__()
        self.shadow_map = ShadowMap()
        self._warm_lines: set[int] = set()

    def _on_attach(self) -> None:
        super()._on_attach()
        self._warm_lines.clear()

    def on_alloc(self, obj) -> None:
        super().on_alloc(obj)
        self.shadow_map.set_range(
            obj.allocation.base, obj.size_bytes, obj.obj_id % (1 << ENTRY_BITS)
        )

    def on_free(self, obj) -> None:
        super().on_free(obj)
        self.shadow_map.clear_range(obj.allocation.base, obj.size_bytes)

    def _metadata_lookup_cost(self, page: int) -> float:
        """Shadow-map walk + O-Table-InMem access.

        The first touch of a shadow-map cache line pays DRAM latency;
        afterwards the line stays warm in the CPU LLC.
        """
        lat = self.config.latency
        vaddr = page * self.config.page_size
        obj_id = self.shadow_map.lookup(vaddr)
        # Cross-check the software map against the machine's ground truth;
        # a mismatch means the shadow map was corrupted.
        expected = self.machine.object_id_of(page)
        if obj_id != expected % (1 << ENTRY_BITS):
            raise RuntimeError(
                f"shadow map returned obj {obj_id} for page {page}, "
                f"expected {expected}"
            )
        line = vaddr >> LINE_COVERAGE_SHIFT
        if line in self._warm_lines:
            cost = lat.inmem_llc_ns
        else:
            self._warm_lines.add(line)
            cost = lat.inmem_dram_ns
            self.stats.add("inmem.cold_lines")
        # O-Table-InMem access itself (LLC-resident).
        cost += lat.inmem_llc_ns
        self.stats.add("inmem.lookups")
        return cost

    @property
    def otable_inmem_bytes(self) -> int:
        """O-Table-InMem footprint: (4 + N) bits per object (Section V-F)."""
        n_objects = self.tracker.live_objects if self.tracker else 0
        return (4 + ENTRY_BITS) * n_objects // 8
