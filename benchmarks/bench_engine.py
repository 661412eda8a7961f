"""Bench: simulation-engine throughput (fluid vs vector).

Three ladders, one record (``benchmarks/output/BENCH_engine.json``):

* **lossless** — the same All-to-All point with both engines on a
  lossless Gigabit Ethernet fabric (the configuration where the engines
  are provably equivalent): the vector ÷ fluid speedup at n=64, and
  whether the measured times agree within 1e-6 relative on every n
  both ran.  The n=256 rung runs on the vector engine only.
* **lossy** — the paper's headline configurations: the *stock* gige and
  fast-ethernet profiles with the TCP loss overlay enabled.  Lossy runs
  are statistically (not bit-) equivalent, so these legs are held to a
  speedup only: >= 2.5x at n=64 on both clusters.
* **scale** — one n=1024 lossless vector point with jitter and start
  skew disabled (desynchronized completions would make the epoch count
  quadratic; with them off the whole grid collapses to a handful of
  epochs and the cost is per-message protocol work), held to a
  wall-clock budget.

The fluid engine's event loop is O(flows x epochs) in pure Python, so
it is only run up to n=64 (n=256 would take tens of minutes); the
vector engine runs the full ladder, which is the point of the exercise:
the batched epoch loop is what makes n=256..1024 grids tractable.

Run ``pytest benchmarks/bench_engine.py -q -s`` (a few minutes).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

from record import finish, make_metric

from repro.clusters.profiles import get_cluster
from repro.measure.alltoall import measure_alltoall

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_engine.json"

MSG_SIZE = 4_096
NPROCS = (16, 64, 256)
#: Largest n the pure-Python fluid loop is asked to simulate here.
FLUID_MAX_N = 64
#: Relative tolerance of the cross-engine equivalence check (lossless).
REL_TOL = 1e-6
#: The lossless acceptance bar: vector >= 5x fluid at n=64.  Both bars
#: sit at about half the measured speedups (~10-11x lossless, ~4-8x
#: lossy on a 2-vCPU x86 host), which are ratios to the fluid engine
#: and move whenever the fluid engine gets faster.
REQUIRED_SPEEDUP_N64 = 5.0
#: The lossy acceptance bar: vector >= 2.5x fluid at n=64 on the stock
#: (loss-enabled) gige and fast-ethernet profiles.
REQUIRED_LOSSY_SPEEDUP_N64 = 2.5
#: Lossy ladder: paper clusters with the loss overlay left ON.
LOSSY_CLUSTERS = ("gigabit-ethernet", "fast-ethernet")
LOSSY_NPROCS = (16, 64)
#: Thousand-rank rung: n and its wall-clock ceiling.
SCALE_N = 1_024
SCALE_BUDGET_S = 420.0
#: Timing rounds per leg; the minimum is reported (the standard
#: noise-resistant estimator — shared CI runners jitter badly).  Legs
#: above FLUID_MAX_N run once (no fluid baseline to race).
ROUNDS = {"fluid": 2, "vector": 3}
LOSSY_ROUNDS = {"fluid": 1, "vector": 2}


def _bench_cluster():
    """Gigabit Ethernet without the loss overlay, capped high enough
    for the n=256 leg (the stock profile models a 216-port fabric).
    Jitter and start skew stay on: their desynchronized completions are
    exactly the workload that makes the fluid event loop expensive, and
    both engines replay the same RNG streams, so equivalence holds
    regardless.
    """
    cluster = get_cluster("gigabit-ethernet")
    return cluster.with_overrides(loss=None, max_hosts=1024)


def _lossy_cluster(name: str):
    """Stock paper profile (loss overlay ON), capped for the ladder."""
    return get_cluster(name).with_overrides(max_hosts=1024)


def _scale_cluster():
    """n=1024 rung: lossless gige with jitter and start skew disabled.

    With synchronized starts the ~1M flows inject at one timestamp and
    the grid resolves in a handful of epochs; with jitter on, every
    completion lands at a distinct time and the epoch count grows
    quadratically — intractable at this n on any engine.
    """
    cluster = get_cluster("gigabit-ethernet")
    transport = dataclasses.replace(cluster.transport, jitter_scale=0.0)
    return cluster.with_overrides(
        loss=None, max_hosts=2048, transport=transport,
        start_skew_scale=0.0,
    )


def _timed_point(cluster, engine: str, n: int, *, rounds_table=ROUNDS):
    """(best-of-rounds elapsed seconds, measured time)."""
    rounds = 1 if n > FLUID_MAX_N else rounds_table[engine]
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        sample = measure_alltoall(
            cluster, n, MSG_SIZE, reps=1, seed=0,
            algorithm="direct", engine=engine,
        )
        best = min(best, time.perf_counter() - start)
    return best, sample.mean_time


def _lossless_ladder() -> tuple[dict[int, float], dict[int, float], bool]:
    """Best-of-rounds seconds per n on each engine, and whether the
    measured times agree on every n both engines ran."""
    cluster = _bench_cluster()
    fluid: dict[int, float] = {}
    vector: dict[int, float] = {}
    equivalent = True
    for n in NPROCS:
        if n <= FLUID_MAX_N:
            fluid[n], fluid_t = _timed_point(cluster, "fluid", n)
        vector[n], vector_t = _timed_point(cluster, "vector", n)
        if n in fluid and abs(vector_t - fluid_t) > REL_TOL * abs(fluid_t):
            equivalent = False
    return fluid, vector, equivalent


def _lossy_speedups() -> dict[str, dict[int, float]]:
    """Fluid ÷ vector seconds per stock lossy cluster and n."""
    speedups: dict[str, dict[int, float]] = {}
    for name in LOSSY_CLUSTERS:
        cluster = _lossy_cluster(name)
        assert cluster.loss is not None and cluster.loss.enabled
        speedups[name] = {}
        for n in LOSSY_NPROCS:
            fluid_s, _ = _timed_point(
                cluster, "fluid", n, rounds_table=LOSSY_ROUNDS
            )
            vector_s, _ = _timed_point(
                cluster, "vector", n, rounds_table=LOSSY_ROUNDS
            )
            speedups[name][n] = round(fluid_s / vector_s, 2)
    return speedups


def _scale_seconds() -> float:
    """Wall seconds of the n=1024 vector rung."""
    cluster = _scale_cluster()
    start = time.perf_counter()
    measure_alltoall(
        cluster, SCALE_N, MSG_SIZE, reps=1, seed=0,
        algorithm="direct", engine="vector",
    )
    return time.perf_counter() - start


def test_bench_engine():
    """Equivalence, the 5x lossless and 2.5x lossy floors, and the
    thousand-rank rung inside its wall-clock budget."""
    fluid, vector, equivalent = _lossless_ladder()
    lossy = _lossy_speedups()
    scale_s = _scale_seconds()
    speedup_n64 = round(fluid[64] / vector[64], 2)
    # Tracked, machine-normalized metrics: every value is a ratio
    # against the fluid reference engine on this same machine, so a
    # committed baseline gates runs on any container speed.  Tolerances
    # mirror the floors below (5x/2.5x vs ~10x/~4-8x typical).  The
    # scale ratio divides seconds kept to 10 ms and 0.1 ms.
    metrics = {
        "lossless_speedup_n64": make_metric(
            speedup_n64, direction="higher", tolerance=0.30, unit="x"
        ),
        "lossy_speedup_gige_n64": make_metric(
            lossy["gigabit-ethernet"][64],
            direction="higher", tolerance=0.40, unit="x",
        ),
        "lossy_speedup_fast_ethernet_n64": make_metric(
            lossy["fast-ethernet"][64],
            direction="higher", tolerance=0.40, unit="x",
        ),
        "scale_n1024_vs_fluid_n64": make_metric(
            round(round(scale_s, 2) / round(fluid[64], 4), 3),
            direction="lower", tolerance=0.60, unit="x",
        ),
        "equivalent": make_metric(
            1.0 if equivalent else 0.0, direction="higher", tolerance=0.0
        ),
    }
    record = finish("engine_throughput", metrics, OUTPUT_PATH)
    assert json.loads(OUTPUT_PATH.read_text()) == record

    assert equivalent
    assert speedup_n64 >= REQUIRED_SPEEDUP_N64, speedup_n64
    # The n=256 leg exists at all only because of the vector engine.
    assert round(1.0 / vector[256], 3) > 0, vector
    for name in LOSSY_CLUSTERS:
        assert lossy[name][64] >= REQUIRED_LOSSY_SPEEDUP_N64, (name, lossy[name])
    assert scale_s <= SCALE_BUDGET_S, scale_s
    print(
        f"\nengine bench: n=64 lossless {speedup_n64}x, lossy "
        + ", ".join(f"{name} {lossy[name][64]}x" for name in LOSSY_CLUSTERS)
        + f"; n={SCALE_N} in {scale_s:.2f}s"
    )
