"""Bench: sweep-executor throughput (serial vs process, cold vs warm).

Runs one fixed 64-point multi-pattern grid three times through the
sweep engine with caching disabled — the simulation cost itself is the
measured workload:

* ``serial``        — the in-process executor (baseline);
* ``process_cold``  — the persistent-pool executor's **first**
  ``run_points`` on a fresh runner (includes pool spin-up);
* ``process_warm``  — a second ``run_points`` on the *same* runner,
  reusing the warm pool (the steady-state of consecutive sweeps).

The three runs must produce bit-identical rows (every point derives
its random streams by name from its own coordinates), so the bench
doubles as an executor-equivalence check.  The warm pool must beat
serial only where there are two or more CPUs to run on.

Run ``pytest benchmarks/bench_sweep.py -q -s``; it writes
``benchmarks/output/BENCH_sweep.json`` and honours
``REPRO_BENCH_WORKERS`` (default: all cores, max 8).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from record import finish, make_metric, per_fluid_unit

from repro.sweeps import SweepRunner, SweepSpec

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_sweep.json"

#: 4 patterns x 2 process counts x 4 sizes x 2 seeds = 64 points.
SPEC = dict(
    clusters=("gigabit-ethernet",),
    nprocs=(4, 6),
    sizes=(2_048, 8_192, 32_768, 131_072),
    algorithms=("direct",),
    patterns=(
        None,  # the regular All-to-All
        {"name": "hotspot", "params": {"targets": 2, "factor": 8.0}},
        {"name": "zipf", "params": {"exponent": 1.2}},
        {"name": "block-sparse", "params": {"block": 2}},
    ),
    seeds=(0, 1),
    reps=1,
)


def _bench_workers() -> int:
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return max(1, int(env))
    return max(2, min(os.cpu_count() or 1, 8))


def _timed_run(runner: SweepRunner, points) -> tuple[float, list[dict]]:
    """One uncached pass over *points*: (elapsed seconds, result rows)."""
    start = time.perf_counter()
    result = runner.run_points(points)
    elapsed = time.perf_counter() - start
    _, rows = result.to_rows()
    return elapsed, rows


def test_bench_sweep():
    """All three legs complete and agree, and warm reuse pays."""
    spec = SweepSpec(**SPEC)
    points = spec.points()
    assert spec.n_points == 64, spec.describe()
    workers = _bench_workers()

    serial = SweepRunner(workers=1, cache=None, executor="serial")
    serial_s, serial_rows = _timed_run(serial, points)

    with SweepRunner(workers=workers, cache=None, executor="process") as pooled:
        cold_s, cold_rows = _timed_run(pooled, points)      # pool spin-up
        assert pooled.executor.warm
        warm_s, warm_rows = _timed_run(pooled, points)      # pool reuse

    identical = serial_rows == cold_rows == warm_rows
    # Tracked metrics: executor-equivalence (hard invariant), warm-pool
    # reuse vs cold spin-up (a same-machine ratio), and the serial
    # pipeline's throughput in fluid units (machine-normalized).
    metrics = {
        "identical_rows": make_metric(
            1.0 if identical else 0.0, direction="higher", tolerance=0.0
        ),
        "warm_vs_cold": make_metric(
            round(warm_s / cold_s, 3), direction="lower", tolerance=0.50,
            unit="x",
        ),
        "serial_points_per_fluid_unit": make_metric(
            round(per_fluid_unit(len(points) / serial_s), 3),
            direction="higher", tolerance=0.50,
        ),
    }
    record = finish("sweep_executor_throughput", metrics, OUTPUT_PATH)
    assert json.loads(OUTPUT_PATH.read_text()) == record

    assert identical
    for elapsed in (serial_s, cold_s, warm_s):
        assert round(len(points) / elapsed, 2) > 0, elapsed
    # Warm-pool reuse must at least not regress vs cold start.
    assert round(warm_s, 4) <= round(cold_s, 4) * 1.5, (warm_s, cold_s)
    speedup_warm = round(serial_s / warm_s, 2)
    if (os.cpu_count() or 1) >= 2:
        # With real parallel hardware the pooled executor must win.
        assert speedup_warm > 1.0, (serial_s, warm_s)
    print(
        f"\nsweep bench: serial {len(points) / serial_s:.2f} pt/s, "
        f"process warm {len(points) / warm_s:.2f} pt/s "
        f"({speedup_warm}x, {workers} workers)"
    )
