#!/usr/bin/env python3
"""Regenerate the golden rows under ``benchmarks/e2e/golden/``.

Usage::

    python3 benchmarks/e2e/make_golden.py [--workload NAME]

Runs one cold sweep per workload for benchmark seeds 0 and 1 (the
workload's own executor, in a fresh interpreter exactly as ``run.py``
does) and stores each row's ``mean_time`` in row order.  Regenerate
only when a change is *meant* to alter simulated times, and say so.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import golden
import run
from workloads import WORKLOADS, get_workload

GOLDEN_SEEDS = (0, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    args = parser.parse_args(argv)
    if not (run.SRC / "repro" / "cli.py").exists():
        print(f"cannot find the program's sources at {run.SRC}", file=sys.stderr)
        return 2
    selected = [get_workload(args.workload)] if args.workload else WORKLOADS
    for workload in selected:
        for seed in GOLDEN_SEEDS:
            deadline = time.perf_counter() + run.RUN_BUDGET_S
            workdir = run.fresh_workdir(workload, seed, traced=False)
            config = run.sweep_config(workload, seed, workdir, "golden")
            result = run.run_child("sweep", config, workdir, deadline)
            rows = golden.read_rows(Path(config["dir"]) / "rows.csv")
            failed = golden.row_failures(rows, workload.points)
            if result["exit"] != 0 or failed:
                print(
                    f"{workload.name} seed {seed}: exit {result['exit']}, "
                    f"{failed} bad rows; golden not written", file=sys.stderr,
                )
                return 1
            path = golden.save(
                workload.name, seed, workload.seeds(seed),
                [float(row["mean_time"]) for row in rows],
            )
            print(f"{path.relative_to(run.ROOT)}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
