"""Live sweep heartbeat: a periodic stderr ticker built as a sink.

:class:`HeartbeatSink` speaks the :class:`repro.exec.sinks.ResultSink`
protocol (``open``/``write``/``close`` — duck-typed here so this
package stays a leaf), which means it composes with CSV/JSONL sinks in
the same sweep: rows stream to files while a one-line pulse lands on
stderr every few seconds with rows/sec, cache hit rate, an ETA when the
total is known, and the top metric deltas since the previous beat.

The math is guarded for degenerate sweeps: an all-cache-hit sweep
(zero simulations, potentially zero measurable elapsed time) reports
``hit 100%`` with no rate or ETA rather than dividing by zero, and an
empty sweep emits nothing.
"""

from __future__ import annotations

import sys
import time

from .metrics import REGISTRY, diff_snapshots

__all__ = ["HeartbeatSink"]

#: How many top counter deltas a beat line shows.
TOP_DELTAS = 3


def _format_beat(
    done: int,
    total: int | None,
    cached: int,
    elapsed: float,
    deltas: dict[str, float],
) -> str:
    """Render one beat line (pure, for testability)."""
    parts = []
    if total:
        parts.append(f"{done}/{total} rows ({100.0 * done / total:.0f}%)")
    else:
        parts.append(f"{done} rows")
    if elapsed > 0:
        parts.append(f"{done / elapsed:.1f} rows/s")
    if done:
        hit = 100.0 * cached / done
        parts.append("hit 100%" if cached == done else f"hit {hit:.0f}%")
    if total and elapsed > 0 and done and done < total:
        rate = done / elapsed
        parts.append(f"ETA {(total - done) / rate:.0f}s")
    if deltas:
        top = sorted(deltas.items(), key=lambda kv: -abs(kv[1]))[:TOP_DELTAS]
        parts.append(" ".join(
            f"{name} +{value:g}" for name, value in top
        ))
    return "[heartbeat] " + " · ".join(parts)


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Summed-over-labels counter deltas between two registry snapshots.

    A delta holds only series that moved, and counters only grow, so
    every total is positive.
    """
    return {
        name: sum(entry["values"].values())
        for name, entry in diff_snapshots(before, after).items()
    }


class HeartbeatSink:
    """Periodic progress pulse on stderr; composes with file sinks.

    Parameters
    ----------
    interval:
        Minimum seconds between beats (default 5).
    total:
        Expected row count when known (enables the ETA and the
        ``done/total`` fraction); ``None`` for open-ended sweeps.
    stream:
        Where beats go (default ``sys.stderr`` — **not** stdout, so
        piped sweep output stays clean).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        interval: float = 5.0,
        *,
        total: int | None = None,
        stream=None,
        clock=time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be > 0 seconds")
        self.interval = float(interval)
        self.total = total
        self.stream = stream
        self.clock = clock
        self.done = 0
        self.cached = 0
        self._start = 0.0
        self._last_beat = 0.0
        self._last_snapshot: dict = {}

    # -- ResultSink protocol -------------------------------------------

    def open(self, fieldnames) -> None:
        self._start = self._last_beat = self.clock()
        self._last_snapshot = REGISTRY.snapshot()

    def write(self, row: dict) -> None:
        self.done += 1
        if row.get("cached"):
            self.cached += 1
        now = self.clock()
        if now - self._last_beat >= self.interval:
            self._beat(now)

    def close(self) -> None:
        # A final beat summarises the sweep; silent for empty sweeps.
        if self.done:
            self._beat(self.clock())

    # -- internals ------------------------------------------------------

    def _beat(self, now: float) -> None:
        snapshot = REGISTRY.snapshot()
        line = _format_beat(
            self.done,
            self.total,
            self.cached,
            now - self._start,
            _counter_deltas(self._last_snapshot, snapshot),
        )
        stream = self.stream if self.stream is not None else sys.stderr
        print(line, file=stream, flush=True)
        self._last_beat = now
        self._last_snapshot = snapshot
