#!/usr/bin/env python3
"""Check that two benchmark result files agree within the metric bounds.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

*A* and *B* are result files written by ``run.py`` (``--out``).  Every
workload × metric present in both is printed with both values and its
bound; the exit code is 1 when any metric differs by more than its
bound.  Relative bounds (a share of A's value) come from
``BENCHMARK.json``; ``fail_ratio`` and ``signature_mape_pct`` must be
identical.  Metrics without a bound (per-layer ones) are shown, not
judged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics that must match exactly: (kind, bound).
EXACT = {"fail_ratio": ("abs", 0.0), "signature_mape_pct": ("abs", 0.0)}


def load_bounds(spec_path: Path = SPEC_PATH) -> dict[str, tuple[str, float]]:
    """``{metric: (kind, bound)}``; kind is ``rel`` or ``abs``."""
    spec = json.loads(Path(spec_path).read_text())
    bounds = {m["name"]: ("rel", float(m["bound"])) for m in spec["end_to_end"]}
    bounds.update(EXACT)
    return bounds


def within(a: float, b: float, kind: str, bound: float) -> bool:
    """Whether *b* differs from *a* by at most *bound* (share of |a| if rel)."""
    limit = bound * abs(a) if kind == "rel" else bound
    return abs(b - a) <= limit


def compare(a: dict, b: dict, bounds: dict) -> list[tuple]:
    """``(workload, metric, a, b, bound or None, ok)`` per shared metric."""
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for metric in [m for m in ma if m in mb]:
            va, vb = ma[metric]["value"], mb[metric]["value"]
            bound = bounds.get(metric)
            ok = bound is None or within(va, vb, *bound)
            rows.append((workload, metric, va, vb, bound, ok))
    return rows


def _bound_text(bound) -> str:
    if bound is None:
        return "-"
    kind, value = bound
    return f"{value:.0%}" if kind == "rel" else f"±{value:g}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, load_bounds())
    if not rows:
        print("no workload metric appears in both files", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<28} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}")
    for workload, metric, va, vb, bound, ok in rows:
        ratio = f"{vb / va:.3f}" if va else "-"
        verdict = "" if ok else "  DIFFERS"
        print(
            f"{workload:<16} {metric:<28} {va:>12.6g} {vb:>12.6g} {ratio:>7} "
            f"{_bound_text(bound):>6}{verdict}"
        )
    bad = sum(1 for *_, ok in rows if not ok)
    print(f"{len(rows)} metrics compared, {bad} outside their bound")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
