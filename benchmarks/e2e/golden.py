"""Golden ``mean_time`` values per sweep row, and the rows checks.

Golden files hold, for seeds 0 and 1 of every workload, the
``mean_time`` of each row of the cold sweep's CSV, keyed by row order
(``golden/<workload>-seed<S>.json.gz``; regenerate with
``make_golden.py``).  A row *fails* when it carries an error, has no
finite positive time, or — where a golden file exists — differs from
its golden value by more than ``1e-9`` relative.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

__all__ = ["GOLDEN_DIR", "REL_TOL", "read_rows", "load", "save", "row_failures"]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Largest relative difference from a golden value that still matches.
REL_TOL = 1e-9


def read_rows(path: Path) -> list[dict[str, str]]:
    """The rows of a sweep CSV as written by ``--output rows.csv``."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}-seed{seed}.json.gz"


def load(workload: str, seed: int) -> list[float] | None:
    """Golden ``mean_time`` values in row order, or ``None`` if absent."""
    path = golden_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)["mean_time"]


def save(
    workload: str, seed: int, sweep_seeds: list[int], values: list[float]
) -> Path:
    """Write a golden file (the sweep seeds are kept for the reader)."""
    path = golden_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload, "seed": seed, "sweep_seeds": sweep_seeds,
        "mean_time": values,
    }
    # mtime=0 keeps regenerated files byte-identical when values are.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(json.dumps(document, indent=0).encode())
    return path


def _matches(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


def row_failures(
    rows: list[dict[str, str]], expected_rows: int,
    reference: list[float] | None = None,
) -> int:
    """How many of *expected_rows* rows failed.

    Missing rows, error rows and rows without a finite positive
    ``mean_time`` fail; with *reference* (golden or an earlier sweep's
    values, row order), so does every row differing from it by more
    than :data:`REL_TOL` relative.
    """
    failed = max(expected_rows - len(rows), 0)
    for index, row in enumerate(rows[:expected_rows]):
        try:
            value = float(row["mean_time"])
        except (KeyError, ValueError):
            failed += 1
            continue
        if row.get("error") or not (math.isfinite(value) and value > 0):
            failed += 1
        elif reference is not None and (
            index >= len(reference) or not _matches(value, reference[index])
        ):
            failed += 1
    return failed + max(len(rows) - expected_rows, 0)
