"""Virtual and physical address-space management.

Two concerns live here:

* :class:`VirtualAllocator` — hands out contiguous, page-aligned virtual
  ranges for objects, mimicking ``cudaMallocManaged``.  Virtual addresses
  stay below bit 48 so the upper pointer bits remain free for the OASIS
  Object Tracker's tag (Fig. 9).

* :class:`DeviceAddressMap` — assigns each device (host CPU and every GPU)
  a disjoint *physical* address range.  The OASIS OP-Controller relies on
  this: "the physical addresses assigned to different GPUs and the host CPU
  are typically distinguished by specific physical address ranges"
  (Section V-D), which is how the host page table classifies a faulting
  page as private (data on host) or shared (data on another GPU).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import HOST

#: Width of the addressable virtual range (Fig. 9: 48 bits).
ADDR_BITS = 48

#: Virtual allocations start here, leaving low memory unused so a null or
#: tiny pointer is never a valid object address.
VA_BASE = 0x1000_0000


@dataclass(frozen=True)
class Allocation:
    """One ``cudaMallocManaged`` result: a page-aligned VA range."""

    base: int
    size: int
    page_size: int

    @property
    def n_pages(self) -> int:
        return (self.size + self.page_size - 1) // self.page_size

    @property
    def first_page(self) -> int:
        return self.base // self.page_size

    @property
    def last_page(self) -> int:
        """Inclusive index of the allocation's final page."""
        return self.first_page + self.n_pages - 1

    @property
    def end(self) -> int:
        """One past the final byte of the backed range (page aligned)."""
        return self.base + self.n_pages * self.page_size

    def pages(self) -> range:
        """Global page indices covered by this allocation."""
        return range(self.first_page, self.first_page + self.n_pages)

    def contains(self, vaddr: int) -> bool:
        return self.base <= vaddr < self.end


class VirtualAllocator:
    """Sequential, page-aligned virtual-address allocator."""

    def __init__(self, page_size: int, base: int = VA_BASE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if base % page_size:
            base = (base + page_size - 1) // page_size * page_size
        self._page_size = page_size
        self._next = base
        self._allocations: list[Allocation] = []

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._allocations)

    @property
    def total_pages(self) -> int:
        """Total pages across all allocations."""
        return sum(a.n_pages for a in self._allocations)

    def alloc(self, size: int) -> Allocation:
        """Allocate ``size`` bytes, rounded up to whole pages."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        n_pages = (size + self._page_size - 1) // self._page_size
        base = self._next
        end = base + n_pages * self._page_size
        if end >= (1 << ADDR_BITS):
            raise MemoryError("virtual address space exhausted (48-bit range)")
        self._next = end
        allocation = Allocation(base, size, self._page_size)
        self._allocations.append(allocation)
        return allocation

    def find(self, vaddr: int) -> Allocation | None:
        """The allocation containing ``vaddr``, or None."""
        # Allocations are sorted by base; binary search.
        lo, hi = 0, len(self._allocations)
        while lo < hi:
            mid = (lo + hi) // 2
            alloc = self._allocations[mid]
            if vaddr < alloc.base:
                hi = mid
            elif vaddr >= alloc.end:
                lo = mid + 1
            else:
                return alloc
        return None


class DeviceAddressMap:
    """Disjoint physical address ranges, one per device.

    The range for device ``d`` covers ``[range_base(d), range_base(d) +
    range_size)``.  ``device_of(paddr)`` inverts the mapping — exactly the
    range check the UVM driver performs to tell where a page's data lives.
    """

    def __init__(self, n_gpus: int, bytes_per_device: int) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if bytes_per_device <= 0:
            raise ValueError("bytes_per_device must be positive")
        self._n_gpus = n_gpus
        self._size = bytes_per_device
        # Order: host first, then GPUs 0..n-1.
        self._order = [HOST, *range(n_gpus)]
        self._base = {
            dev: idx * bytes_per_device for idx, dev in enumerate(self._order)
        }

    @property
    def bytes_per_device(self) -> int:
        return self._size

    def range_base(self, device: int) -> int:
        """Base physical address of ``device``'s memory."""
        try:
            return self._base[device]
        except KeyError:
            raise ValueError(f"unknown device id {device}") from None

    def physical_address(self, device: int, offset: int) -> int:
        """Physical address of byte ``offset`` within ``device``'s memory."""
        if not 0 <= offset < self._size:
            raise ValueError(f"offset {offset} outside device memory")
        return self.range_base(device) + offset

    def device_of(self, paddr: int) -> int:
        """Which device owns physical address ``paddr`` (range check)."""
        idx = paddr // self._size
        if not 0 <= idx < len(self._order) or paddr < 0:
            raise ValueError(f"physical address {paddr:#x} maps to no device")
        return self._order[idx]

    def is_host(self, paddr: int) -> bool:
        """True if ``paddr`` lies in host CPU memory."""
        return self.device_of(paddr) == HOST
