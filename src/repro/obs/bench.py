"""Benchmark-record schema and the regression gate.

The six ``benchmarks/bench_*.py`` pytest functions write their records
in this schema (via the thin :mod:`benchmarks.record` adapter); this
module also holds the comparison logic behind
``repro.cli bench ingest|report|compare``.

A **record** is one bench run::

    {
      "schema": "repro-bench/1",
      "bench": "engine_throughput",
      "fingerprint": {git sha, python, numpy, cpu_count, platform},
      "metrics": {
        "lossless_speedup_n64": {
          "value": 14.2, "unit": "x", "direction": "higher",
          "tolerance": 0.3
        },
        ...
      }
    }

``metrics`` is the *tracked* surface: every entry names which way is
better (``direction``) and how much noise to forgive (``tolerance``, a
relative fraction).  Tracked values are **machine-normalized** — ratios
against the fluid reference engine (speedups, overhead ratios) or
throughputs scaled by a fluid calibration unit — never absolute
seconds, so a committed baseline from one container gates runs on
another.

The **gate** (:func:`compare`) is min-of-N on both sides: each side's
best value per (bench, metric) — ``max`` for higher-is-better, ``min``
for lower-is-better — then a relative-threshold check.  A tracked
metric missing from the current side is itself a regression (a bench
silently dropping a metric must not pass).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "SCHEMA",
    "make_metric",
    "make_record",
    "load_records",
    "Finding",
    "compare",
    "render_findings",
    "render_trajectory",
]

#: Schema tag carried by every conforming record.
SCHEMA = "repro-bench/1"

#: Default relative noise tolerance when a metric does not set one.
DEFAULT_TOLERANCE = 0.25

_DIRECTIONS = ("higher", "lower")


def make_metric(
    value: float,
    *,
    direction: str = "higher",
    tolerance: float = DEFAULT_TOLERANCE,
    unit: str = "",
) -> dict:
    """One tracked metric cell (validated)."""
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"metric direction must be one of {_DIRECTIONS}, got {direction!r}"
        )
    if not (0 <= tolerance < 1):
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    return {
        "value": float(value),
        "direction": direction,
        "tolerance": float(tolerance),
        "unit": unit,
    }


def make_record(
    bench: str, metrics: dict[str, dict], extra: dict | None = None
) -> dict:
    """Assemble one schema-conforming record.

    *extra* fields (the e2e harness's ``seed``) ride at the top level;
    the schema fields win on a collision.
    """
    from .ledger import environment_fingerprint

    for name, cell in metrics.items():
        for field in ("value", "direction", "tolerance"):
            if field not in cell:
                raise ValueError(f"metric {name!r} is missing {field!r}")
    record = dict(extra or {})
    record["schema"] = SCHEMA
    record["bench"] = bench
    record["fingerprint"] = environment_fingerprint()
    record["metrics"] = metrics
    return record


def load_records(paths) -> list[dict]:
    """Load records from files and/or directories of ``*.json``.

    Directories are scanned non-recursively for ``*.json``; files that
    do not carry the schema tag are skipped (pre-schema artifacts), a
    missing path is an error.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        elif path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such bench record: {path}")
    records = []
    for path in files:
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if isinstance(payload, dict) and payload.get("schema") == SCHEMA:
            records.append(payload)
    return records


# ----------------------------------------------------------------------
# The gate.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One (bench, metric) comparison verdict."""

    bench: str
    metric: str
    status: str  # "ok" | "regression" | "missing" | "new"
    baseline: float | None
    current: float | None
    direction: str = "higher"
    tolerance: float = DEFAULT_TOLERANCE
    unit: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "new")

    @property
    def ratio(self) -> float | None:
        """current / baseline (None when either side is absent/zero)."""
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline


def _best(values: list[float], direction: str) -> float:
    """Min-of-N noise reduction: each side's best value by direction."""
    return max(values) if direction == "higher" else min(values)


def _collect(records: list[dict]) -> dict[tuple[str, str], dict]:
    """(bench, metric) → {values: [...], direction, tolerance, unit}."""
    out: dict[tuple[str, str], dict] = {}
    for record in records:
        bench = record.get("bench", "?")
        for name, cell in (record.get("metrics") or {}).items():
            key = (bench, name)
            slot = out.setdefault(
                key,
                {
                    "values": [],
                    "direction": cell.get("direction", "higher"),
                    "tolerance": cell.get("tolerance", DEFAULT_TOLERANCE),
                    "unit": cell.get("unit", ""),
                },
            )
            slot["values"].append(float(cell["value"]))
    return out


def compare(baseline: list[dict], current: list[dict]) -> list[Finding]:
    """Gate *current* records against *baseline* records.

    Returns one :class:`Finding` per tracked (bench, metric).  The
    baseline side's direction/tolerance are authoritative (the
    committed reference decides the bar).  Benches absent from the
    current side are not judged — CI may gate one artifact at a time —
    but a current record missing a *metric* its baseline tracks fails.
    """
    base = _collect(baseline)
    cur = _collect(current)
    current_benches = {bench for bench, _ in cur}
    findings: list[Finding] = []
    for (bench, metric), slot in sorted(base.items()):
        direction = slot["direction"]
        tolerance = slot["tolerance"]
        base_best = _best(slot["values"], direction)
        if (bench, metric) not in cur:
            if bench in current_benches:
                findings.append(Finding(
                    bench, metric, "missing", base_best, None,
                    direction, tolerance, slot["unit"],
                ))
            continue
        cur_best = _best(cur[bench, metric]["values"], direction)
        if direction == "higher":
            regressed = cur_best < base_best * (1.0 - tolerance)
        else:
            regressed = cur_best > base_best * (1.0 + tolerance)
        findings.append(Finding(
            bench, metric, "regression" if regressed else "ok",
            base_best, cur_best, direction, tolerance, slot["unit"],
        ))
    for (bench, metric), slot in sorted(cur.items()):
        if (bench, metric) not in base:
            findings.append(Finding(
                bench, metric, "new", None,
                _best(slot["values"], slot["direction"]),
                slot["direction"], slot["tolerance"], slot["unit"],
            ))
    return findings


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def render_findings(findings: list[Finding]) -> str:
    """Fixed-width comparison table, one row per (bench, metric)."""
    header = (
        f"{'bench':<20} {'metric':<28} {'baseline':>10} {'current':>10} "
        f"{'ratio':>7} {'tol':>5}  status"
    )
    lines = [header, "-" * len(header)]
    for f in findings:
        ratio = f.ratio
        lines.append(
            f"{f.bench:<20} {f.metric:<28} {_fmt(f.baseline):>10} "
            f"{_fmt(f.current):>10} "
            f"{'-' if ratio is None else f'{ratio:.2f}':>7} "
            f"{f.tolerance:>5.0%}  "
            + (f.status.upper() if not f.ok else f.status)
        )
    n_bad = sum(1 for f in findings if not f.ok)
    lines.append(
        f"{len(findings)} tracked metric(s), "
        + (f"{n_bad} REGRESSED" if n_bad else "all within tolerance")
    )
    return "\n".join(lines)


def render_trajectory(
    entries: list[dict],
    *,
    bench: str | None = None,
    metric: str | None = None,
) -> str:
    """Trajectory table per metric from ledger ``bench`` entries.

    *entries* are ledger entries (oldest first) whose ``record`` field
    holds a schema record; rows are grouped per (bench, metric) and
    printed in ledger order, so reading down a group is reading the
    metric's history.
    """
    rows: dict[tuple[str, str], list[tuple[str, str, float, str]]] = {}
    for entry in entries:
        record = entry.get("record") or {}
        if record.get("schema") != SCHEMA:
            continue
        b = record.get("bench", "?")
        if bench is not None and b != bench:
            continue
        sha = (record.get("fingerprint") or {}).get("git_sha") or "-"
        ts = entry.get("ts")
        when = "-" if ts is None else _iso(ts)
        for name, cell in (record.get("metrics") or {}).items():
            if metric is not None and name != metric:
                continue
            rows.setdefault((b, name), []).append(
                (when, str(sha)[:10], float(cell["value"]),
                 cell.get("unit", ""))
            )
    if not rows:
        return "no tracked bench metrics in the ledger"
    lines = []
    for (b, name), series in sorted(rows.items()):
        lines.append(f"{b} · {name}")
        for when, sha, value, unit in series:
            suffix = f" {unit}" if unit else ""
            lines.append(f"  {when}  {sha:<10}  {value:.6g}{suffix}")
    return "\n".join(lines)


def _iso(ts: float) -> str:
    import datetime

    return datetime.datetime.fromtimestamp(
        ts, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M")
