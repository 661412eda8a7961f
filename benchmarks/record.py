"""Shared benchmark-record helpers for the six throughput benches.

Each ``bench_*.py`` pytest function measures its workload, hands a
``metrics`` dict of tracked, **machine-normalized** values to
:func:`finish`, and then makes its checks.  Speedups and overheads are
already ratios against the fluid reference engine; absolute
throughputs are scaled by :func:`fluid_unit_seconds`, one calibration
point measured on this machine, so the committed baselines in
``benchmarks/baselines/`` gate runs on any container speed.

The schema itself (and the regression gate reading it) lives in
:mod:`repro.obs.bench`; this module is the thin bridge the benches
import — they always run with ``repro`` importable.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from repro.obs.bench import SCHEMA, make_metric, make_record

__all__ = [
    "SCHEMA",
    "make_metric",
    "make_record",
    "fluid_unit_seconds",
    "finish",
]

#: Calibration point: fluid engine, lossless GigE, n=8, 4 KiB, one rep.
_CAL_N = 8
_CAL_MSG = 4_096
_CAL_ROUNDS = 3


@functools.lru_cache(maxsize=1)
def fluid_unit_seconds() -> float:
    """Best-of-3 wall seconds of one fluid reference simulation.

    The machine-speed yardstick: a throughput of ``X`` per second on
    this machine is ``X * fluid_unit_seconds()`` per *fluid unit* —
    a dimensionless rate two machines of different speeds agree on
    (both numerator and denominator scale with the machine).
    """
    from repro.clusters.profiles import get_cluster
    from repro.measure.alltoall import measure_alltoall

    cluster = get_cluster("gigabit-ethernet").with_overrides(loss=None)
    best = float("inf")
    for _ in range(_CAL_ROUNDS):
        start = time.perf_counter()
        measure_alltoall(
            cluster, _CAL_N, _CAL_MSG, reps=1, seed=0,
            algorithm="direct", engine="fluid",
        )
        best = min(best, time.perf_counter() - start)
    return best


def per_fluid_unit(rate_per_sec: float) -> float:
    """Normalize an absolute per-second rate into per-fluid-unit."""
    return rate_per_sec * fluid_unit_seconds()


def finish(bench: str, metrics: dict[str, dict], output_path: Path) -> dict:
    """Assemble the schema record, write it, and return it."""
    record = make_record(bench, metrics)
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(json.dumps(record, indent=2) + "\n")
    return record
