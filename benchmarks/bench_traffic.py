"""Bench: traffic-pattern sweep throughput (points/sec).

Runs a fixed 64-point irregular-pattern grid (4 patterns x 2 process
counts x 4 sizes x 2 seeds) through the sweep engine with caching
disabled — the simulation cost itself is the measured workload — so
the perf trajectory tracks the pattern pipeline.

Run ``pytest benchmarks/bench_traffic.py -q -s``; it writes
``benchmarks/output/BENCH_traffic.json`` and honours
``REPRO_BENCH_WORKERS``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from record import finish, make_metric, per_fluid_unit

from repro.sweeps import SweepRunner, SweepSpec

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_traffic.json"

SPEC = dict(
    clusters=("gigabit-ethernet",),
    nprocs=(4, 6),
    sizes=(1_024, 2_048, 8_192, 32_768),
    algorithms=("direct",),
    patterns=(
        {"name": "hotspot", "params": {"targets": 2, "factor": 8.0}},
        {"name": "zipf", "params": {"exponent": 1.2}},
        {"name": "permutation"},
        {"name": "random-sparse", "params": {"density": 0.5}},
    ),
    seeds=(0, 1),
    reps=1,
)


def test_bench_traffic():
    """The 64-point pattern sweep completes and its record lands."""
    spec = SweepSpec(**SPEC)
    assert spec.n_points == 64, spec.describe()
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    runner = SweepRunner(workers=workers, cache=None)
    start = time.perf_counter()
    result = runner.run(spec)
    elapsed = time.perf_counter() - start
    # The absolute points/sec is container-speed-dependent; the tracked
    # value is scaled into fluid units so baselines travel.
    metrics = {
        "points_per_fluid_unit": make_metric(
            round(per_fluid_unit(result.n_points / elapsed), 3),
            direction="higher", tolerance=0.50,
        ),
    }
    record = finish("traffic_pattern_sweep", metrics, OUTPUT_PATH)
    assert json.loads(OUTPUT_PATH.read_text()) == record

    points_per_sec = round(result.n_points / elapsed, 2)
    assert result.n_points == 64
    assert points_per_sec > 0
    print(f"\ntraffic bench: {points_per_sec} points/sec")
