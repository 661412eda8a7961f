"""Trace exporters: JSONL and Chrome trace-event JSON (Perfetto).

:class:`~repro.simnet.trace.Trace` records are ground truth for tests
but were write-only for humans.  These exporters turn a trace into

* **jsonl** — one JSON object per record, the loss-less archival form;
* **chrome** — the Chrome trace-event format (the ``traceEvents``
  array schema), loadable in Perfetto or ``chrome://tracing``:
  ``flow.inject``/``flow.complete`` pairs become duration ("X") slices
  on the *network* process (one track per source host), MPI protocol
  records become instants ("i") on the *ranks* process, and
  ``vector.epoch`` records become an active-flows counter ("C") track.

Timestamps are converted from simulated seconds to the format's
microseconds.  Export never mutates the trace and copes with partial
traces (an inject without a complete renders as an instant).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..simnet.trace import Trace

__all__ = [
    "EXPORT_FORMATS",
    "chrome_events",
    "to_chrome",
    "to_jsonl",
    "write_trace",
]

#: Process ids of the Chrome trace tracks.
_PID_FLOWS = 1
_PID_RANKS = 2
_PID_ENGINE = 3

#: Categories rendered as instants on the ranks process, keyed by the
#: payload field that names the track (falls back to 0).
_RANK_CATEGORIES = {
    "mpi.isend": "src",
    "mpi.irecv": "rank",
    "mpi.recv_complete": "rank",
    "mpi.local_copy": "rank",
    "mpi.phase": "rank",
}


def _coerce(value):
    """JSON fallback for NumPy scalars and other odd payload values."""
    try:
        return int(value)
    except (TypeError, ValueError):
        pass
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def _us(time: float) -> float:
    """Simulated seconds → trace-format microseconds."""
    return time * 1e6


def to_jsonl(trace: Trace) -> str:
    """One JSON object per record (time, category, payload)."""
    lines = [
        json.dumps(
            {"time": r.time, "category": r.category, **r.payload},
            default=_coerce,
        )
        for r in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_events(trace: Trace) -> list[dict]:
    """The ``traceEvents`` array for *trace* (list of event dicts)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in (
            (_PID_FLOWS, "network flows"),
            (_PID_RANKS, "mpi ranks"),
            (_PID_ENGINE, "engine"),
        )
    ]
    open_flows: dict[object, object] = {}
    for record in trace:
        category = record.category
        payload = record.payload
        if category == "flow.inject":
            open_flows[payload.get("fid")] = record
            continue
        if category == "flow.complete":
            fid = payload.get("fid")
            inject = open_flows.pop(fid, None)
            start = inject.time if inject is not None else record.time
            nbytes = (
                inject.payload.get("nbytes") if inject is not None else None
            )
            events.append(
                {
                    "name": f"flow {payload.get('src')}->{payload.get('dst')}",
                    "cat": "flow",
                    "ph": "X",
                    "ts": _us(start),
                    "dur": _us(max(record.time - start, 0.0)),
                    "pid": _PID_FLOWS,
                    "tid": int(payload.get("src", 0)),
                    "args": {
                        "fid": fid,
                        "nbytes": nbytes,
                        "losses": payload.get("losses", 0),
                        "label": payload.get("label", ""),
                    },
                }
            )
            continue
        if category == "vector.epoch":
            events.append(
                {
                    "name": "active flows",
                    "cat": "engine",
                    "ph": "C",
                    "ts": _us(record.time),
                    "pid": _PID_ENGINE,
                    "tid": 0,
                    "args": {"active": payload.get("active", 0)},
                }
            )
            continue
        if category in _RANK_CATEGORIES:
            tid_field = _RANK_CATEGORIES[category]
            events.append(
                {
                    "name": category,
                    "cat": "mpi",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(record.time),
                    "pid": _PID_RANKS,
                    "tid": int(payload.get(tid_field, 0)),
                    "args": dict(payload),
                }
            )
            continue
        # Everything else (losses, resumes, injects that never
        # completed are drained below) renders as a flow-track instant.
        events.append(
            {
                "name": category,
                "cat": "flow",
                "ph": "i",
                "s": "t",
                "ts": _us(record.time),
                "pid": _PID_FLOWS,
                "tid": int(payload.get("src", 0)),
                "args": dict(payload),
            }
        )
    for record in open_flows.values():
        events.append(
            {
                "name": "flow.inject (incomplete)",
                "cat": "flow",
                "ph": "i",
                "s": "t",
                "ts": _us(record.time),
                "pid": _PID_FLOWS,
                "tid": int(record.payload.get("src", 0)),
                "args": dict(record.payload),
            }
        )
    return events


def to_chrome(trace: Trace) -> str:
    """Chrome trace-event JSON document (Perfetto-loadable)."""
    document = {
        "traceEvents": chrome_events(trace),
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, default=_coerce)


#: Export format registry: name → ``fn(trace) -> str``.
EXPORT_FORMATS = {
    "chrome": to_chrome,
    "jsonl": to_jsonl,
}


def write_trace(trace: Trace, path: str | Path, fmt: str = "chrome") -> Path:
    """Serialise *trace* to *path* in *fmt*; returns the path."""
    if fmt not in EXPORT_FORMATS:
        known = ", ".join(sorted(EXPORT_FORMATS))
        raise ValueError(f"unknown trace format {fmt!r}; known: {known}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(EXPORT_FORMATS[fmt](trace))
    return path
