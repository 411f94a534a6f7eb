"""Minimal discrete-event machinery shared by the simulator components.

The trace-driven simulator is mostly analytical, but two pieces of real
event bookkeeping remain:

* :class:`~repro.engine.server.SerialServer` — a single-server FIFO queue
  used to model the UVM driver, which services page faults one at a time on
  the host CPU.
* :class:`~repro.engine.counters.StatCounters` — hierarchical event counters
  every component reports into.
"""

from repro.engine.counters import StatCounters
from repro.engine.server import SerialServer

__all__ = ["SerialServer", "StatCounters"]
