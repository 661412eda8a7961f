"""Discrete-event simulation kernel.

A minimal but production-hardened event engine: a binary heap of
``[time, priority, sequence, callback]`` entries with

* deterministic FIFO tie-breaking at equal timestamps (the ``sequence``
  counter), which keeps whole simulations bit-reproducible,
* cancellable event handles,
* defensive monotonicity checks (scheduling into the past is a bug in the
  caller and raises immediately rather than corrupting causality).

Entries are plain lists, so :mod:`heapq` orders them with the built-in
sequence comparison in C: time first, then priority, then sequence.
The sequence number is unique per engine, so two entries always differ
before the callback slot and callbacks are never compared.  A cancelled
or fired entry has its callback slot set to ``None`` and is dropped
lazily when it reaches the top of the heap.

The MPI protocol replay (:mod:`repro.simmpi.protocol`) and both network
models, fluid (:mod:`repro.simnet.fluid`) and vector
(:mod:`repro.simnet.vector`), are all built on this kernel.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from ..exceptions import SimulationError

__all__ = ["Engine", "EventHandle"]


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; supports cancellation.

    Wraps the heap entry ``[time, priority, seq, callback]``; the
    kernel indexes entries by position (0 = time, 3 = callback).
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time of this event."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (or the event fired)."""
        return self._entry[3] is None

    def cancel(self) -> None:
        """Cancel the event; firing a cancelled event is a no-op."""
        self._entry[3] = None


class Engine:
    """Event-driven simulation clock.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(1.5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics/benchmarks)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap)

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule *callback* at absolute simulation *time*.

        Lower *priority* fires first among events at the same timestamp;
        equal priorities fire in scheduling (FIFO) order.
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={self._now!r}"
            )
        entry = [time, priority, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule *callback* after a relative *delay* (must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, priority=priority)

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if none remained."""
        self._drop_cancelled()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        callback = entry[3]
        entry[3] = None
        self._now = entry[0]
        self._events_processed += 1
        callback()
        return True

    def run(self, until: float = math.inf, *, max_events: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *max_events*.

        *max_events* is a guard against runaway simulations; exceeding it
        raises :class:`SimulationError` rather than hanging the caller.
        """
        heap = self._heap
        heappop = heapq.heappop
        budget = math.inf if max_events is None else max_events
        executed = 0
        while heap:
            entry = heap[0]
            callback = entry[3]
            if callback is None:
                heappop(heap)
                continue
            time = entry[0]
            if time > until:
                self._now = until
                return
            heappop(heap)
            entry[3] = None
            self._now = time
            self._events_processed += 1
            callback()
            executed += 1
            if executed >= budget:
                raise SimulationError(
                    f"exceeded max_events={max_events} (simulation runaway?)"
                )

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(now={self._now:.6g}, pending={len(self._heap)})"
