"""Scale wall times to a fixed reference host speed.

The benchmark runs on shared hosts whose speed drifts by a third or
more over tens of seconds, as neighbours come and go; a slow spell
lands on the program and on anything else that runs beside it alike.
So every timed segment is bracketed by a fixed pure-Python reference
loop (:func:`reference_loop`, which never touches the program), and
the segment's wall time is scaled by ``REFERENCE_S`` over the
reference loop's measured time around it::

    seconds = wall_seconds * REFERENCE_S / reference_seconds

That is the time the segment would have taken on a host where the
reference loop takes ``REFERENCE_S``.  A change to the program moves
the wall time and not the reference loop, so it shows in full; a
change of host speed moves both, and cancels out.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import statistics
import time
from dataclasses import dataclass

#: The reference loop's time on the reference host: a quiet 2-vCPU
#: x86-64 VM running CPython 3.11, where this benchmark was written.
REFERENCE_S = 0.0035

#: Probes per measurement of the reference loop (their median is used).
PROBES = 3

#: A probe older than this is not reused as the next segment's start.
MAX_PROBE_AGE_S = 1.0


def reference_loop() -> float:
    """A fixed amount of interpreter work: a tiny event calendar.

    Heap pushes and pops, dict updates, float arithmetic and method
    calls -- the operations a discrete-event simulation spends its time
    on -- with no randomness and no allocation that grows.
    """
    calendar: list[tuple[float, int]] = []
    seen: dict[int, int] = {}
    clock, total = 0.0, 0.0
    for i in range(6000):
        heapq.heappush(calendar, (clock + (i * 7919 % 1000) * 1e-3, i))
        seen[i % 251] = seen.get(i % 251, 0) + 1
        if len(calendar) > 32:
            clock, _ = heapq.heappop(calendar)
            total += clock * 1.0001
    return total + len(seen)


def _loop_seconds() -> float:
    """Median seconds of :data:`PROBES` runs of the reference loop."""
    times = []
    for _ in range(PROBES):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def probe() -> float:
    """The reference loop's time, averaged over every CPU we may use.

    The vCPUs of a shared host slow down separately (one may run 20 %
    slower than the other for a while), and the benchmark's segments
    use both: the client and the server, the two pool workers, or one
    thread that the scheduler moves.  So the loop runs pinned to each
    CPU in turn, and the mean of their times is the host's speed.
    """
    cpus = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_loop_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


@dataclass
class Segment:
    """One timed segment: its wall time and the host speed around it."""

    wall: float = 0.0
    #: ``REFERENCE_S`` over the reference loop's time around the segment.
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        """The wall time scaled to the reference host."""
        return self.wall * self.factor


class HostClock:
    """Times segments and scales each to the reference host speed.

    Nothing of the benchmark's may be busy while the reference loop
    runs (no client, no busy server), or the loop would measure that.
    """

    def __init__(self) -> None:
        self._last = (time.perf_counter(), probe())
        #: Every segment's factor, for the report.
        self.factors: list[float] = []
        #: Seconds spent in the reference loop.
        self.overhead_s = 0.0

    def _probe(self) -> float:
        started = time.perf_counter()
        value = probe()
        self._last = (time.perf_counter(), value)
        self.overhead_s += self._last[0] - started
        return value

    @contextlib.contextmanager
    def segment(self):
        """Time the block; fill in the yielded :class:`Segment`."""
        taken, before = self._last
        if time.perf_counter() - taken > MAX_PROBE_AGE_S:
            before = self._probe()
        seg = Segment()
        started = time.perf_counter()
        yield seg
        seg.wall = time.perf_counter() - started
        after = self._probe()
        seg.factor = REFERENCE_S / ((before + after) / 2)
        self.factors.append(seg.factor)
