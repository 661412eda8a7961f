"""Benchmark harness support.

Each bench runs one paper experiment once (simulations are themselves
the measured workload), prints the same series/rows the paper's figure
reports, and persists the rendered figure + CSV under
``benchmarks/output/``.

The experiment grids route through the sweep engine
(:mod:`repro.sweeps`), so the harness honours:

* ``REPRO_BENCH_WORKERS`` — fan sweep points out over N worker
  processes (results are bit-identical to serial runs);
* ``REPRO_BENCH_EXECUTOR`` — execution backend (``serial`` /
  ``process``); the default pool persists across figures, so later
  grids start on warm workers;
* ``REPRO_BENCH_CACHE`` — serve repeated points from an on-disk result
  cache at the given directory.  Leave unset when the *simulation cost
  itself* is what you are benchmarking.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.registry import run_experiment
from repro.sweeps import configure_default_runner

OUTPUT_DIR = Path(__file__).parent / "output"

#: scale used by the benchmark harness (default-size grids, 1 repetition).
BENCH_SCALE = "bench"


@pytest.fixture(scope="session", autouse=True)
def sweep_engine():
    """Configure the process-wide sweep runner from the bench env vars."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    runner = configure_default_runner(
        workers=workers,
        cache_dir=cache_dir,
        enable_cache=cache_dir is not None,
        executor=os.environ.get("REPRO_BENCH_EXECUTOR") or None,
    )
    yield runner
    if runner.cache is not None:
        print(
            f"\nsweep cache: {runner.cache.root} "
            f"(hits={runner.cache.hits}, misses={runner.cache.misses})"
        )


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def run_figure(benchmark, output_dir):
    """Run a registered experiment under pytest-benchmark and report it."""

    def _run(exp_id: str, *, seed: int = 0, scale: str = BENCH_SCALE):
        result = benchmark.pedantic(
            run_experiment,
            args=(exp_id,),
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        rendered = result.render()
        print()
        print(rendered)
        (output_dir / f"{exp_id}.txt").write_text(rendered + "\n")
        result.save_csv(output_dir / f"{exp_id}.csv")
        for key in ("gamma", "delta", "threshold"):
            if key in result.params:
                benchmark.extra_info[key] = result.params[key]
        return result

    return _run
