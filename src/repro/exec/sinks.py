"""Streaming result sinks: rows land as points complete.

A sink receives one flat row per resolved sweep point as the sweep
progresses, each write flushed to disk — so results reach disk long
before the sweep ends, an interrupted run keeps every completed row,
and a tail process (``tail -f sweep.jsonl``) watches progress live.
Rows arrive in **expansion order** (the runner reorders unordered
worker completions, streaming the contiguous prefix immediately and
draining the remainder on close), so sink files are byte-identical
across executors and worker counts.

Sinks are deliberately tiny: ``open(fieldnames)`` once, ``write(row)``
per point, ``close()`` in a ``finally``.  The row schema is
:data:`ROW_FIELDS` (the same columns ``SweepResult.to_rows`` reports);
failed points carry an ``error`` message and empty timings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "ROW_FIELDS",
    "STATS_ROW_FIELDS",
    "row_fields",
    "ResultSink",
    "CsvSink",
    "JsonlSink",
    "CallbackSink",
    "sink_for",
]

#: Column order of streamed sweep rows (and of ``SweepResult.to_rows``).
ROW_FIELDS = [
    "cluster", "algorithm", "pattern", "placement", "n_processes", "msg_size",
    "seed", "reps", "mean_time", "std_time", "cached", "error",
]

#: Observability columns appended when ``REPRO_SIM_STATS`` is truthy:
#: which engine simulated the point and its simulation-effort counts —
#: the point's ``sim.*`` registry deltas (``sim_resolves`` is
#: ``sim.solves``), summed over reps.  Empty for cache hits and failed
#: points.
STATS_ROW_FIELDS = [
    "engine", "sim_resolves", "sim_epochs", "sim_events",
    "sim_losses", "sim_stalls",
]


def row_fields() -> list[str]:
    """The active row schema (stats columns appended when enabled)."""
    from ..simnet.stats import stats_enabled

    if stats_enabled():
        return ROW_FIELDS + STATS_ROW_FIELDS
    return list(ROW_FIELDS)


class ResultSink:
    """Base/no-op sink; subclass and override :meth:`write`."""

    def open(self, fieldnames: Sequence[str]) -> None:
        """Called once before the first row."""

    def write(self, row: dict[str, object]) -> None:
        """Called once per resolved point, in expansion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Called once after the last row (also on error paths)."""


class _FileSink(ResultSink):
    """Shared open/close plumbing for path-backed sinks."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None

    def _open_handle(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", newline="")
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CsvSink(_FileSink):
    """Incremental CSV: header on open, one flushed row per point."""

    def open(self, fieldnames: Sequence[str]) -> None:
        handle = self._open_handle()
        self._writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        self._writer.writeheader()
        handle.flush()

    def write(self, row: dict[str, object]) -> None:
        # None timings (failed points) serialise as empty CSV cells.
        self._writer.writerow(
            {k: ("" if v is None else v) for k, v in row.items()}
        )
        self._handle.flush()


class JsonlSink(_FileSink):
    """Incremental JSON lines: one flushed object per point."""

    def open(self, fieldnames: Sequence[str]) -> None:
        self._open_handle()

    def write(self, row: dict[str, object]) -> None:
        self._handle.write(json.dumps(row) + "\n")
        self._handle.flush()


class CallbackSink(ResultSink):
    """Adapter: forward each row to a plain callable."""

    def __init__(self, fn: Callable[[dict[str, object]], None]) -> None:
        self.fn = fn

    def write(self, row: dict[str, object]) -> None:
        self.fn(row)


def sink_for(path: str | Path) -> ResultSink:
    """Pick a file sink by extension: ``.csv`` or ``.jsonl``/``.ndjson``."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return CsvSink(path)
    if suffix in (".jsonl", ".ndjson"):
        return JsonlSink(path)
    raise ValueError(
        f"cannot infer a sink from {str(path)!r}: use a .csv or .jsonl extension"
    )
