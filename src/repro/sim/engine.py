"""The simulation engine: a time-ordered event heap and its driver.

The paper's model (Bucur & Epema, §2) has two kinds of event — Poisson
job arrivals and job departures — and each one triggers an FCFS policy
round.  :class:`Simulator` is sized to exactly that: one binary heap of
``(time, rank, seq, Callback)`` entries, filled by :meth:`~Simulator.defer`
(and :meth:`~Simulator.call_at`, built on it) and drained by
:meth:`~Simulator.run_while` or :meth:`~Simulator.run`.

Equal-timestamp convention
--------------------------
Entries at the same instant fire by *rank* first — urgent before
normal — and then in scheduling order: every push consumes one sequence
number, and the lower number fires first.  The paper does not define
simultaneous arrivals and departures, so this is the engine's
convention, and it makes runs fully deterministic.  For example, an
arrival scheduled via ``call_at`` at t=0 fires before a departure that
is deferred later for the same instant, because the arrival was
scheduled first.  Urgent entries are the arrival source's
initialisation event at t=0 and the stop entry of ``run(until=t)``,
which is why normal events at exactly ``t`` stay pending.

Typical usage::

    sim = Simulator()
    sim.call_at(1.0, lambda: print("tick at", sim.now))
    sim.run()

The engine is single-threaded: model code runs only inside the drive
loops, so no locking is ever needed.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["Simulator", "Callback", "SchedulingError"]

#: Priority rank for urgent events.
_URGENT = 0
#: Priority rank for normal events.
_NORMAL = 1


class SchedulingError(Exception):
    """An event was scheduled into the past (negative delay, past time)."""


class Callback:
    """A scheduled occurrence: a fixed callback tuple and a value.

    Hot paths (job departures, arrival ticks) schedule hundreds of
    thousands of these; callers share one ``callbacks`` tuple across
    all their occurrences, so an entry costs one small object.  Each
    callback is invoked with the ``Callback`` itself and reads
    :attr:`value`.
    """

    __slots__ = ("callbacks", "value")

    def __init__(self,
                 callbacks: "tuple[Callable[[Callback], None], ...]",
                 value: object = None) -> None:
        self.callbacks = callbacks
        self.value = value

    def __repr__(self) -> str:
        return f"<Callback value={self.value!r}>"


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default 0).

    Attributes
    ----------
    now:
        Current simulation time.  Only the engine advances it.
    events_processed:
        Monotone counter of processed events (heap pops).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Callback]] = []
        self._eid = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events placed on the heap so far (heap pushes).

        Together with :attr:`events_processed` (heap pops) this gives
        the engine's event-list traffic for diagnostics; the counter is
        the scheduling sequence number, so it costs nothing extra.
        """
        return self._eid

    # -- scheduling --------------------------------------------------------

    def defer(self, delay: float,
              callbacks: "tuple[Callable[[Callback], None], ...]",
              value: object = None, *, priority: bool = False) -> None:
        """Schedule a :class:`Callback` ``delay`` from now.

        Consumes exactly one scheduling sequence number.  ``priority``
        marks an urgent event, processed before normal events at the
        same time.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past ({delay!r})")
        self._eid += 1
        heapq.heappush(self._heap, (
            self._now + delay, _URGENT if priority else _NORMAL, self._eid,
            Callback(callbacks, value),
        ))

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Invoke ``fn()`` at absolute simulation time ``time``.

        A normal-rank :meth:`defer`: one sequence number, FIFO with
        every other event at the same time.
        """
        if time < self._now:
            raise SchedulingError(
                f"call_at({time!r}) is in the past (now={self._now!r})"
            )
        self.defer(time - self._now, (lambda _event: fn(),))

    # -- execution ---------------------------------------------------------

    def run_while(self, predicate: Callable[[], bool]) -> bool:
        """Process events while ``predicate()`` holds and events remain.

        ``predicate`` is evaluated *before* each event.  Returns
        ``True`` if the loop stopped because the predicate went false,
        ``False`` if the heap drained first.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if not predicate():
                return True
            self._now, _, _, event = pop(heap)
            self.events_processed += 1
            for callback in event.callbacks:
                callback(event)
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains, or up to time ``until``.

        With a horizon the engine pushes an urgent stop event at
        ``until``: it fires before normal events at exactly that time,
        which stay pending for a later run.  The clock ends exactly at
        ``until``.
        """
        if until is None:
            self.run_while(lambda: True)
            return
        horizon = float(until)
        if horizon < self._now:
            raise SchedulingError(
                f"run(until={horizon!r}) is in the past (now={self._now!r})"
            )
        stopped: list[bool] = []
        self.defer(horizon - self._now,
                   (lambda _event: stopped.append(True),), priority=True)
        self.run_while(lambda: not stopped)

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.6g} pending={len(self._heap)} "
            f"processed={self.events_processed}>"
        )
