"""UVM driver model: the page-management primitives.

The UVM driver lives on the host CPU, owns the centralized page table, and
services GPU page faults (Fig. 1).  :class:`~repro.uvm.driver.UVMDriver`
implements the primitives every policy is built from — migrate, duplicate,
collapse, remote-map, evict — with exact event accounting and analytical
costs.
"""

from repro.uvm.driver import UVMDriver

__all__ = ["UVMDriver"]
