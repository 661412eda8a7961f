"""Discrete-event simulation kernel.

A minimal but production-hardened event engine: a binary heap of
``[time, priority, sequence, callback]`` entries with

* deterministic FIFO tie-breaking at equal timestamps (the ``sequence``
  counter), which keeps whole simulations bit-reproducible,
* cancellable event handles,
* bulk entries: many events held as typed arrays behind a single heap
  entry, whose callback takes their args a run at a time,
* defensive monotonicity checks (scheduling into the past is a bug in the
  caller and raises immediately rather than corrupting causality).

Entries are plain lists, so :mod:`heapq` orders them with the built-in
sequence comparison in C: time first, then priority, then sequence.
The sequence number is unique per engine, so two entries always differ
before the callback slot and callbacks are never compared.  A cancelled
or fired entry has its callback slot set to ``None`` and is dropped
lazily when it reaches the top of the heap.

A bulk entry (:meth:`Engine.schedule_batch`) is one heap entry keyed by
its next member.  Every member fires at the default priority and keeps
its own ``(time, seq)``: the caller draws each member's seq with
``Engine.reserve()`` at the point where a single
:meth:`~Engine.schedule` call would have drawn it.
Members fire by *runs*: the kernel takes the entry off the heap and
hands ``callback(run)`` the args of the consecutive members that share
the first one's time, precede the heap top as the run starts (found by
bisecting the sorted time and seq columns) and fit in what is left of
``max_events``; :meth:`~Engine.step` hands over a run of one.  Then the
next run follows while its first member still precedes the heap top
and ``until`` allows, and the entry goes back under the first member
left.  A callback that raises consumes its run.  Each member counts as
one event for ``events_processed``, ``max_events``, ``run(until=)``,
:attr:`~Engine.pending` and :meth:`~Engine.peek_time`.  While a run's
callback runs its entry is off the heap, so :attr:`~Engine.pending` and
:meth:`~Engine.peek_time` read from the callback do not see the entry's
later members.

Runs fire exactly as one event per member would.  Between two members
of a run, per-member firing could only fire an event that a member's
callback scheduled at the run's time with a negative priority: any
other event a callback schedules has a later time, a higher priority or
a later seq than every member.  So :meth:`~Engine.schedule` refuses
that one event from a member's callback with :class:`SimulationError`.

The MPI protocol replay (:mod:`repro.simmpi.protocol`) and both network
models, fluid (:mod:`repro.simnet.fluid`) and vector
(:mod:`repro.simnet.vector`), are all built on this kernel.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Sequence

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


class _Batch:
    """One bulk entry's members, held in its heap entry's callback slot.

    The entry carries the key of member ``_next``, the first not yet
    fired; :meth:`Engine._run_members` fires members.  Typed-array args
    are read through a memoryview, so a run is a view, not a copy.
    """

    __slots__ = ("_entry", "_times", "_seqs", "_callback", "_args", "_next")

    def __init__(self, times, seqs, callback, args) -> None:
        self._times = times
        self._seqs = seqs
        self._callback = callback
        self._args = memoryview(args) if args.__class__ is array else args
        self._next = 0
        self._entry = [times[0], 0, seqs[0], self]

    @property
    def remaining(self) -> int:
        """Members not yet fired."""
        return len(self._times) - self._next


def _like(values: Sequence, items: Sequence) -> Sequence:
    """*items* in a container like *values*: a typed array stays typed."""
    if isinstance(values, array):
        return array(values.typecode, items)
    return list(items)


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
        #: ``reserve()`` draws the next sequence number, for a member of
        #: a bulk entry (the counter's own ``__next__``: no Python frame
        #: per member).
        self.reserve: Callable[[], int] = self._seq.__next__
        self._events_processed = 0
        self._in_run = False  # a run's callback is running

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
        """Number of events still queued.

        Counts every unfired member of a bulk entry, and every single
        event including cancelled ones not yet dropped from the heap.
        """
        return sum(
            entry[3].remaining if entry[3].__class__ is _Batch else 1
            for entry in self._heap
        )

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule *callback* at absolute simulation *time*.

        Lower *priority* fires first among events at the same timestamp;
        equal priorities fire in scheduling (FIFO) order.  A bulk
        member's callback may not schedule at its own time with a
        negative priority (see the module docstring).
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={self._now!r}"
            )
        if priority < 0 and self._in_run and time == self._now:
            raise SimulationError(
                f"a bulk member's callback cannot schedule at its own time "
                f"t={time!r} with negative priority {priority!r}"
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

    def schedule_batch(
        self,
        times: Sequence[float],
        seqs: Sequence[int],
        callback: Callable[[Sequence], None],
        args: Sequence,
    ) -> None:
        """Schedule one member per index *i*: ``args[i]`` at ``times[i]``.

        ``seqs[i]`` is the member's sequence number, drawn with
        ``reserve()``; member *i* then fires exactly when a
        :meth:`schedule` call at the default priority that drew
        ``seqs[i]`` would have.  Members fire by runs (see the module
        docstring): *callback* receives ``args[j:k]``, the args of
        members *j* to *k* - 1 in ``(time, seq)`` order, as a
        memoryview slice when *args* is a typed array, and may not
        schedule at the run's time with a negative priority.  The
        columns are kept, not copied, unless the members need sorting
        into ``(time, seq)`` order: pass lists or :class:`array.array`
        columns of Python numbers, and do not mutate them afterwards.
        The time checks are :meth:`schedule`'s; a bulk entry cannot be
        cancelled.
        """
        count = len(times)
        if len(seqs) != count or len(args) != count:
            raise ValueError("a bulk entry needs one time, seq and arg per member")
        if not count:
            return
        now = self._now
        # One pass that stops at the first member out of (time, seq)
        # order, NaN included; the finite and past checks then need
        # only the first and last time.
        last_time, last_seq = now, -1
        for time, seq in zip(times, seqs):
            if last_time < time or (time == last_time and last_seq <= seq):
                last_time, last_seq = time, seq
            else:
                last_time = math.nan
                break
        if not last_time < math.inf:
            for time in times:
                if not math.isfinite(time):
                    raise SimulationError(f"non-finite event time {time!r}")
                if time < now:
                    raise SimulationError(
                        f"cannot schedule into the past: t={time!r} < now={now!r}"
                    )
            # Seqs are unique, so the sort never compares two args.
            columns = zip(*sorted(zip(times, seqs, args)))
            times, seqs, args = (
                _like(values, column)
                for values, column in zip((times, seqs, args), columns)
            )
        if count == 1:
            # A lone member is an ordinary entry that hands over a run
            # of one.
            entry = [times[0], 0, seqs[0], partial(self._fire_lone, callback, args[:1])]
            heapq.heappush(self._heap, entry)
            return
        batch = _Batch(times, seqs, callback, args)
        heapq.heappush(self._heap, batch._entry)

    def _fire_lone(self, callback: Callable[[Sequence], None], run: Sequence) -> None:
        """Fire a lone member's run under the negative-priority refusal."""
        self._in_run = True
        try:
            callback(run)
        finally:
            self._in_run = False

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next event, or a run of one member.

        Returns ``False`` if none remained.
        """
        self._drop_cancelled()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        callback = entry[3]
        entry[3] = None
        self._now = entry[0]
        if callback.__class__ is _Batch:
            self._run_members(callback, math.inf, 1, 0)
        else:
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
            if callback.__class__ is _Batch:
                executed = self._run_members(callback, until, budget, executed)
            else:
                self._events_processed += 1
                callback()
                executed += 1
            if executed >= budget:
                raise SimulationError(
                    f"exceeded max_events={max_events} (simulation runaway?)"
                )

    def _run_members(
        self, batch: _Batch, until: float, budget: float, executed: int
    ) -> int:
        """Fire *batch*'s members by runs, from its next one on.

        The entry is popped already and the clock is at its time.  A
        run ends before the first member at a later time, the first
        whose key does not precede the heap top as the run starts, or
        the first past *budget* (:meth:`step` passes a budget of one).
        The next run fires while its first member precedes the heap top
        and *until* allows; the entry then goes back on the heap under
        the first member left, also when a callback raises.  Returns
        *executed* plus the members fired.
        """
        heap = self._heap
        times, seqs, args = batch._times, batch._seqs, batch._args
        callback = batch._callback
        end = len(times)
        index = batch._next
        time = times[index]
        self._in_run = True
        try:
            while True:
                # Member `index` precedes the heap top and fits the budget.
                stop = index + 1
                if stop < end and times[stop] == time:
                    stop = bisect_right(times, time, stop + 1, end)
                    if heap:
                        # The heap top follows member `index`, so at this
                        # time it has priority 0 or more; at 0 its seq
                        # cuts the run.
                        top = heap[0]
                        if top[0] == time and top[1] == 0:
                            stop = bisect_left(seqs, top[2], index + 1, stop)
                    if stop - index > budget - executed:
                        stop = index + math.ceil(budget - executed)
                self._events_processed += stop - index
                executed += stop - index
                run = args[index:stop]
                index = stop
                callback(run)
                if index == end or executed >= budget:
                    break
                time = times[index]
                if time > until:
                    break
                # The heap's own order: keys differ before the callback.
                if heap and heap[0] < [time, 0, seqs[index]]:
                    break
                self._now = time
        finally:
            self._in_run = False
            batch._next = index
            if index < end:
                entry = batch._entry
                entry[0] = times[index]
                entry[2] = seqs[index]
                entry[3] = batch
                heapq.heappush(heap, entry)
        return executed

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(now={self._now:.6g}, pending={self.pending})"
