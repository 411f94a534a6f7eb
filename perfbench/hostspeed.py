"""Host-speed sampling, so timings survive other tenants on the host.

The hosts this benchmark runs on share their cores with other tenants,
and their speed is bimodal: a fixed pure-Python loop timed back to back
on a shared 2-vCPU Xeon host (2.1 GHz) read about 22 ms in fast
stretches and 32 ms in slow ones, switching every few seconds and
sometimes staying slow for half a minute.  A run's median pass time
then depends on how much of the run fell in slow stretches, and the
same workload read up to 40% apart
(interquartile range over median) from one run to the next.

A reference timed before and after each pass tracked the pass poorly
(correlation 0.5-0.7): the host changes speed within a pass.  So the
reference is timed *during* the pass instead.  While a
:class:`HostSpeed` sampler is running, ``SIGALRM`` fires every
:data:`INTERVAL_S`, and the handler times a small fixed block of
interpreter work in the benchmark process itself, interleaved with the
code under test.  A timed interval is then reported as::

    scale = (REFERENCE_S / mean(block time)) ** SENSITIVITY
    scaled = (wall - handler time) * scale

with the mean over the blocks timed in the interval and in the
:data:`PAD_S` before it, so that short intervals still see enough
blocks.  :data:`SENSITIVITY` is 0.85: across host states the
log of a pass's time moved 0.82 to 0.92 times as much as the log of the
block's (least-squares fits over 24 and 30 passes of two workloads,
correlation 0.96 and 0.98).  Scaled this way, the pass-to-pass spread
of one workload fell from 13-18% to 2-4% (interquartile range over
median), for 1% of the wall time spent in the handler.

The block is part of the benchmark, not of the program under test, so
a change to the program moves the scaled time as it would move the
wall time on a host that runs the block in :data:`REFERENCE_S`.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Sampling period of the reference block.
INTERVAL_S = 0.02

#: Samples this long before an interval also count for its mean.
PAD_S = 0.1

#: How strongly the simulator's speed follows the block's (see above).
SENSITIVITY = 0.85

#: Time of one reference block in the fast state of that 2-vCPU Xeon
#: host under Python 3.11 (about 190 us when slow); scaled times are
#: seconds on a host that runs the block this fast.
REFERENCE_S = 100e-6


def _reference_block() -> int:
    """Interpreter-bound work shaped like the per-record replay loop:
    dict lookups and updates and integer arithmetic."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = (i * 2654435761) & 255
        counts[key] = counts.get(key, 0) + 1
        acc += key % 7
    return acc + len(counts)


class HostSpeed:
    """Times the reference block on every ``SIGALRM`` while running."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _reference_block()
        self._at.append(started)
        self._took.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slice(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self._at, start)
        hi = bisect.bisect_left(self._at, end)
        return self._took[lo:hi]

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time in ``[start, end)`` to reference time."""
        blocks = self._slice(start - PAD_S, end)
        if not blocks:
            raise RuntimeError("no host-speed samples near the interval")
        return (REFERENCE_S / statistics.fmean(blocks)) ** SENSITIVITY

    def timed(self, fn, *, exclusive: bool = True):
        """Run ``fn()``; return ``(scaled seconds, scale, result)``.

        ``exclusive`` subtracts the handler's own time from the wall
        time, which is right when ``fn`` runs in this process; a
        subprocess on another core does not pay for it.
        """
        started = time.perf_counter()
        result = fn()
        ended = time.perf_counter()
        wall = ended - started
        if exclusive:
            wall -= sum(self._slice(started, ended))
        factor = self.scale(started, ended)
        return wall * factor, factor, result
