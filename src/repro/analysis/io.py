"""CSV/JSONL persistence for experiment results (figure data files)."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "write_csv",
    "read_csv",
    "read_rows",
    "read_sweep_rows",
    "coerce_value",
    "rows_from_series",
    "SWEEP_SCHEMA",
]

#: Explicit converters for every column the sweep sinks emit
#: (:data:`repro.exec.sinks.ROW_FIELDS` + the opt-in stats columns).
#: The point: label-like columns stay textual even when their values
#: look numeric — a pattern key, a ``placement`` cell like
#: ``explicit[1,0]`` or a cluster named ``2048`` must never come back
#: as a number.  :func:`read_sweep_rows` applies the applicable subset.
SWEEP_SCHEMA: dict[str, Callable[[str], object]] = {
    "cluster": str,
    "algorithm": str,
    "pattern": str,
    "placement": str,
    "n_processes": int,
    "msg_size": int,
    "seed": int,
    "reps": int,
    "mean_time": float,
    "std_time": float,
    "cached": int,
    "error": str,
    "engine": str,
    "sim_resolves": int,
    "sim_epochs": int,
    "sim_events": int,
    "sim_losses": int,
    "sim_stalls": int,
}


def write_csv(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, object]],
) -> Path:
    """Write dict rows to *path* (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def read_csv(path: str | Path) -> list[dict[str, str]]:
    """Read dict rows back (values as strings).

    Prefer :func:`read_rows` for anything numeric — CSV strings silently
    break arithmetic (``"2048" * 2`` concatenates).
    """
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def coerce_value(value: str) -> object:
    """One CSV cell → the most specific of ``None``/int/float/str.

    The inverse of :func:`write_csv`'s stringification for scalar rows:
    empty cells read back as ``None``, integral text as ``int``, numeric
    text as ``float``, everything else — including non-string oddities
    like the spill list ``csv.DictReader`` emits for a row with extra
    cells — passes through unchanged.
    """
    if value is None or value == "":
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        pass
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def _check_schema_columns(schema, fieldnames: set, rows) -> None:
    """Reject schema columns absent from a non-empty file (typo guard)."""
    if not schema or not rows:
        return
    unknown = sorted(set(schema) - fieldnames)
    if unknown:
        raise ValueError(
            f"schema column(s) {unknown} not in file; "
            f"columns: {', '.join(sorted(fieldnames))}"
        )


def read_rows(
    path: str | Path,
    *,
    schema: Mapping[str, Callable[[str], object]] | None = None,
) -> list[dict[str, object]]:
    """Read tabular rows back with **typed** values.

    Dispatches on the file extension: ``.jsonl`` parses JSON lines
    (already typed), anything else reads CSV.  CSV cells are coerced
    with :func:`coerce_value` (empty → ``None``, numeric text →
    int/float) so fitting code never does string math; *schema* maps
    column names to explicit converters, overriding the automatic
    coercion for those columns (e.g. ``{"seed": str}`` to keep a
    numeric-looking label textual).  Unknown schema columns are
    rejected — a typo'd column name must not silently fall back to
    auto-coercion.
    """
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        with path.open() as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        # Heterogeneous lines are legal JSONL: validate against the
        # union of keys, not just the first row's.
        _check_schema_columns(
            schema, {column for row in rows for column in row}, rows
        )
        if schema:
            for row in rows:
                for column, convert in schema.items():
                    if column in row and row[column] is not None:
                        row[column] = convert(row[column])
        return rows
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        raw = list(reader)
        # Validate against the header, not a data row: ragged rows add
        # DictReader's None restkey, which must not leak into messages.
        header = set(reader.fieldnames or ())
    _check_schema_columns(schema, header, raw)
    rows = []
    for record in raw:
        row: dict[str, object] = {}
        for column, value in record.items():
            if schema and column in schema:
                row[column] = None if value in (None, "") else schema[column](value)
            else:
                row[column] = coerce_value(value)
        rows.append(row)
    return rows


def read_sweep_rows(path: str | Path) -> list[dict[str, object]]:
    """Read sweep-sink rows back under :data:`SWEEP_SCHEMA` typing.

    Like :func:`read_rows`, but the known sweep columns get their
    canonical converters, restricted to the columns the file actually
    has — files from before a column existed (e.g. pre-placement
    sweeps) read back unchanged rather than failing the schema check.
    Extra user columns fall through to automatic coercion.
    """
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        with path.open() as handle:
            present = {
                column
                for line in handle
                if line.strip()
                for column in json.loads(line)
            }
    else:
        with path.open(newline="") as handle:
            present = set(csv.DictReader(handle).fieldnames or ())
    schema = {
        column: convert
        for column, convert in SWEEP_SCHEMA.items()
        if column in present
    }
    return read_rows(path, schema=schema or None)


def rows_from_series(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    x_name: str = "x",
) -> tuple[list[str], list[dict[str, object]]]:
    """Pivot named (x, y) series into joined rows keyed on x."""
    all_x: list[float] = sorted(
        {float(x) for xs, _ in series.values() for x in xs}
    )
    fieldnames = [x_name] + list(series)
    lookup = {
        name: {float(x): float(y) for x, y in zip(xs, ys)}
        for name, (xs, ys) in series.items()
    }
    rows = []
    for x in all_x:
        row: dict[str, object] = {x_name: x}
        for name in series:
            value = lookup[name].get(x)
            row[name] = "" if value is None else value
        rows.append(row)
    return fieldnames, rows
