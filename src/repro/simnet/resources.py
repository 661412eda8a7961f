"""Serial host resources (CPU-side FIFO service).

Models the per-message host processing that a kernel network stack pays
when demultiplexing many concurrent inbound streams: requests queue and
are served one at a time.  This is the mechanism behind the paper's δ
parameter — with n-1 simultaneous arrivals the queue
serialises, contributing an affine per-round overhead, while a single
ping-pong message (queue of one) pays only its own service time.  The
protocol replay (:mod:`repro.simmpi.protocol`) gives each receiving
host one :class:`SerialResource` that serves message ids.
"""

from __future__ import annotations

from array import array
from typing import Callable

from .engine import Engine

__all__ = ["SerialResource"]


class SerialResource:
    """A FIFO server of integer ids, each served for *duration* seconds.

    ``callback(ident)`` runs when request *ident* finishes service, and
    before the next request starts, so a request the callback makes
    queues behind those already waiting.  Waiting ids are held in a
    typed array: a queued request costs no Python object.

    Examples
    --------
    >>> eng = Engine()
    >>> done = []
    >>> cpu = SerialResource(eng, 0.5, lambda ident: done.append((ident, eng.now)))
    >>> cpu.request(7)
    >>> cpu.request(3)
    >>> eng.run()
    >>> done
    [(7, 0.5), (3, 1.0)]
    """

    __slots__ = ("_engine", "_duration", "_callback", "_queue", "_head")

    def __init__(
        self, engine: Engine, duration: float, callback: Callable[[int], None]
    ) -> None:
        if duration < 0:
            raise ValueError(f"negative service duration {duration!r}")
        self._engine = engine
        self._duration = duration
        self._callback = callback
        self._queue = array("q")  # ids from _head on; the head is in service
        self._head = 0

    @property
    def busy(self) -> bool:
        """Whether a request is in service."""
        return self._head < len(self._queue)

    def request(self, ident: int) -> None:
        """Queue *ident*; it starts service once those ahead have finished."""
        queue = self._queue
        queue.append(ident)
        if len(queue) - self._head == 1:
            self._engine.schedule(self._engine.now + self._duration, self._finish)

    def _finish(self) -> None:
        queue = self._queue
        head = self._head
        self._callback(queue[head])
        head += 1
        if head == len(queue):
            del queue[:]
            head = 0
        else:
            self._engine.schedule(self._engine.now + self._duration, self._finish)
        self._head = head
