"""Bench: simulation-engine throughput (fluid vs vector).

Three ladders, all written to ``benchmarks/output/BENCH_engine.json``:

* **lossless** — the same All-to-All point with both engines on a
  lossless Gigabit Ethernet fabric (the configuration where the engines
  are provably equivalent): one leg per (engine, n) with wall-clock and
  points/sec, ``speedup`` per n, and ``equivalent`` (measured times
  within 1e-6 relative on every n both ran).
* **lossy** — the paper's headline configurations: the *stock* gige and
  fast-ethernet profiles with the TCP loss overlay enabled.  Lossy runs
  are statistically (not bit-) equivalent, so these legs record each
  engine's measured time and loss count alongside the speedup; the
  acceptance bar is >= 2.5x points/sec at n=64 on both clusters.
* **scale** — one n=1024 lossless vector point with jitter and start
  skew disabled (desynchronized completions would make the epoch count
  quadratic; with them off the whole grid collapses to a handful of
  epochs and the cost is per-message protocol work).  Records the
  wall-clock so CI can hold it to a budget.

The fluid engine's event loop is O(flows x epochs) in pure Python, so
it is only run up to n=64 (n=256 would take tens of minutes); the
vector engine runs the full ladder, which is the point of the exercise:
the batched epoch loop is what makes n=256..1024 grids tractable.

Runs standalone (``python benchmarks/bench_engine.py``) or under
pytest.
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
#: Thousand-rank rung: n and the wall-clock ceiling CI enforces.
SCALE_N = 1_024
SCALE_BUDGET_S = 420.0
#: Timing rounds per leg; the minimum is reported (the standard
#: noise-resistant estimator — shared CI runners jitter badly).  The
#: fluid n=64 legs cost ~15 s per round, so they get one; legs above
#: FLUID_MAX_N run once (minutes long, no fluid baseline to race).
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
    """(best-of-rounds elapsed seconds, measured time, total losses).

    Loss counts ride on the ``REPRO_SIM_STATS`` counters (plain ints —
    they do not perturb the timing the way a recording trace would);
    when the flag is off the loss count reads 0.
    """
    rounds = 1 if n > FLUID_MAX_N else rounds_table[engine]
    best = math.inf
    sample = None
    for _ in range(rounds):
        start = time.perf_counter()
        sample = measure_alltoall(
            cluster, n, MSG_SIZE, reps=1, seed=0,
            algorithm="direct", engine=engine,
        )
        best = min(best, time.perf_counter() - start)
    stats = getattr(sample, "sim_stats", None)
    losses = 0 if stats is None else stats.losses
    return best, sample.mean_time, losses


def _lossless_ladder() -> tuple[dict, dict, bool]:
    cluster = _bench_cluster()
    legs: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    equivalent = True
    for n in NPROCS:
        fluid_s = fluid_t = None
        if n <= FLUID_MAX_N:
            fluid_s, fluid_t, _ = _timed_point(cluster, "fluid", n)
        vector_s, vector_t, _ = _timed_point(cluster, "vector", n)
        leg: dict[str, object] = {
            "vector": {
                "elapsed_s": round(vector_s, 4),
                "points_per_sec": round(1.0 / vector_s, 3),
            },
        }
        if fluid_s is not None:
            leg["fluid"] = {
                "elapsed_s": round(fluid_s, 4),
                "points_per_sec": round(1.0 / fluid_s, 3),
            }
            speedups[str(n)] = round(fluid_s / vector_s, 2)
            if abs(vector_t - fluid_t) > REL_TOL * abs(fluid_t):
                equivalent = False
        legs[str(n)] = leg
    return legs, speedups, equivalent


def _lossy_ladder() -> dict:
    import os

    out: dict[str, dict] = {}
    prev = os.environ.get("REPRO_SIM_STATS")
    os.environ["REPRO_SIM_STATS"] = "1"
    try:
        out.update(_lossy_ladder_inner())
    finally:
        if prev is None:
            os.environ.pop("REPRO_SIM_STATS", None)
        else:
            os.environ["REPRO_SIM_STATS"] = prev
    return out


def _lossy_ladder_inner() -> dict:
    out: dict[str, dict] = {}
    for name in LOSSY_CLUSTERS:
        cluster = _lossy_cluster(name)
        assert cluster.loss is not None and cluster.loss.enabled
        legs: dict[str, dict] = {}
        speedups: dict[str, float] = {}
        for n in LOSSY_NPROCS:
            fluid_s, fluid_t, fluid_losses = _timed_point(
                cluster, "fluid", n, rounds_table=LOSSY_ROUNDS
            )
            vector_s, vector_t, vector_losses = _timed_point(
                cluster, "vector", n, rounds_table=LOSSY_ROUNDS
            )
            legs[str(n)] = {
                "fluid": {
                    "elapsed_s": round(fluid_s, 4),
                    "points_per_sec": round(1.0 / fluid_s, 3),
                    "mean_time": round(fluid_t, 6),
                    "losses": fluid_losses,
                },
                "vector": {
                    "elapsed_s": round(vector_s, 4),
                    "points_per_sec": round(1.0 / vector_s, 3),
                    "mean_time": round(vector_t, 6),
                    "losses": vector_losses,
                },
            }
            speedups[str(n)] = round(fluid_s / vector_s, 2)
        out[name] = {"legs": legs, "speedup": speedups}
    return out


def _scale_rung() -> dict:
    cluster = _scale_cluster()
    start = time.perf_counter()
    sample = measure_alltoall(
        cluster, SCALE_N, MSG_SIZE, reps=1, seed=0,
        algorithm="direct", engine="vector",
    )
    elapsed = time.perf_counter() - start
    return {
        "n": SCALE_N,
        "engine": "vector",
        "jitter": "disabled",
        "elapsed_s": round(elapsed, 2),
        "budget_s": SCALE_BUDGET_S,
        "within_budget": elapsed <= SCALE_BUDGET_S,
        "mean_time": round(float(sample.mean_time), 6),
    }


def run_engine_bench(output_path: Path = OUTPUT_PATH) -> dict:
    """Run all three ladders; write and return the schema record."""
    legs, speedups, equivalent = _lossless_ladder()
    lossy = _lossy_ladder()
    scale = _scale_rung()
    entry = {
        "bench": "engine_throughput",
        "cluster": "gigabit-ethernet (loss=None)",
        "algorithm": "direct",
        "msg_size": MSG_SIZE,
        "nprocs": list(NPROCS),
        "fluid_max_n": FLUID_MAX_N,
        "rounds": dict(ROUNDS),
        "legs": legs,
        "speedup": speedups,
        "equivalent": equivalent,
        "lossy": lossy,
        "scale": scale,
    }
    # Tracked, machine-normalized metrics: every value is a ratio
    # against the fluid reference engine on this same machine, so a
    # committed baseline gates runs on any container speed.  Tolerances
    # mirror the existing CI bars (5x/2.5x floors vs ~10x/~4-8x typical).
    fluid_64_s = legs[str(FLUID_MAX_N)]["fluid"]["elapsed_s"]
    metrics = {
        "lossless_speedup_n64": make_metric(
            speedups["64"], direction="higher", tolerance=0.30, unit="x"
        ),
        "lossy_speedup_gige_n64": make_metric(
            lossy["gigabit-ethernet"]["speedup"]["64"],
            direction="higher", tolerance=0.40, unit="x",
        ),
        "lossy_speedup_fast_ethernet_n64": make_metric(
            lossy["fast-ethernet"]["speedup"]["64"],
            direction="higher", tolerance=0.40, unit="x",
        ),
        "scale_n1024_vs_fluid_n64": make_metric(
            round(scale["elapsed_s"] / fluid_64_s, 3),
            direction="lower", tolerance=0.60, unit="x",
        ),
        "equivalent": make_metric(
            1.0 if equivalent else 0.0, direction="higher", tolerance=0.0
        ),
    }
    return finish("engine_throughput", metrics, entry, output_path)


def test_bench_engine():
    """Pytest entry: equivalence, the 5x lossless and 2.5x lossy bars,
    and the thousand-rank rung inside its wall-clock budget."""
    entry = run_engine_bench()
    assert entry["equivalent"] is True
    assert entry["speedup"]["64"] >= REQUIRED_SPEEDUP_N64, entry["speedup"]
    # The n=256 leg exists at all only because of the vector engine.
    assert entry["legs"]["256"]["vector"]["points_per_sec"] > 0
    for name in LOSSY_CLUSTERS:
        lossy = entry["lossy"][name]
        assert (
            lossy["speedup"]["64"] >= REQUIRED_LOSSY_SPEEDUP_N64
        ), (name, lossy["speedup"])
    assert entry["scale"]["within_budget"], entry["scale"]
    assert json.loads(OUTPUT_PATH.read_text()) == entry
    print(
        f"\nengine bench: n=64 lossless "
        f"{entry['speedup']['64']}x, lossy "
        + ", ".join(
            f"{name} {entry['lossy'][name]['speedup']['64']}x"
            for name in LOSSY_CLUSTERS
        )
        + f"; n={SCALE_N} in {entry['scale']['elapsed_s']}s"
    )


if __name__ == "__main__":
    print(json.dumps(run_engine_bench(), indent=2))
