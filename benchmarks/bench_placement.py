"""Bench: placement-optimizer throughput and predicted-MED improvement.

Runs both registered placement optimizers (greedy swap descent,
simulated annealing) on the edge-core GigE stress fabric under the
cross-switch ``shift`` workload at n = 16 and n = 64, measuring per
(optimizer, n) leg:

* evaluations/sec (the search is pure objective arithmetic — no
  simulation — so this is the cost of the MED matrix-permutation
  inner loop);
* the predicted-MED improvement ratio (identity / optimized).

Every leg must end at or below the identity objective — the built-in
optimizers cannot regress past their identity start by construction,
and this bench is the regression net for that invariant.  At n=16
greedy must win more than 3x and annealing more than 1.5x.

Run ``pytest benchmarks/bench_placement.py -q -s``; it writes
``benchmarks/output/BENCH_placement.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from record import finish, make_metric, per_fluid_unit

from repro.experiments.table_placement import SHIFT_OFFSET, stress_scenario
from repro.placement import optimize_placement

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_placement.json"

MSG_SIZE = 524_288
NPROCS = (16, 64)
OPTIMIZERS = ("greedy", "anneal")
#: Annealing budget: enough to reach the n=16 optimum, bounded so the
#: n=64 leg stays a few seconds of pure numpy.
ANNEAL_ITERATIONS = 4_000


def test_bench_placement():
    """Optimized <= identity everywhere, real wins at n=16."""
    profile = stress_scenario().profile
    pattern = {"name": "shift", "params": {"offset": SHIFT_OFFSET}}
    evals_per_sec, improvement, regressed = {}, {}, []
    for n in NPROCS:
        for optimizer in OPTIMIZERS:
            params = (
                {"iterations": ANNEAL_ITERATIONS}
                if optimizer == "anneal" else None
            )
            start = time.perf_counter()
            result = optimize_placement(
                profile, n, MSG_SIZE,
                pattern=pattern, optimizer=optimizer, seed=0, params=params,
            )
            elapsed = time.perf_counter() - start
            leg = f"{optimizer}/{n}"
            if result.objective > result.identity_objective:
                regressed.append(leg)  # pragma: no cover - invariant net
            evals_per_sec[leg] = round(result.evaluations / elapsed, 1)
            improvement[leg] = round(result.ratio, 3)
    # Tracked: the no-regression invariant, both optimizers' predicted
    # improvement ratios at n=16 (pure model arithmetic — already
    # machine-independent), and greedy search throughput in fluid units.
    metrics = {
        "never_regressed": make_metric(
            0.0 if regressed else 1.0, direction="higher", tolerance=0.0,
        ),
        "greedy_improvement_n16": make_metric(
            improvement["greedy/16"],
            direction="higher", tolerance=0.25, unit="x",
        ),
        "anneal_improvement_n16": make_metric(
            improvement["anneal/16"],
            direction="higher", tolerance=0.25, unit="x",
        ),
        "greedy_evals_per_fluid_unit": make_metric(
            round(per_fluid_unit(evals_per_sec["greedy/16"]), 1),
            direction="higher", tolerance=0.60,
        ),
    }
    record = finish("placement_optimizers", metrics, OUTPUT_PATH)
    assert json.loads(OUTPUT_PATH.read_text()) == record

    # Optimized <= identity on every leg.
    assert not regressed, regressed
    assert all(rate > 0 for rate in evals_per_sec.values()), evals_per_sec
    # The cross-switch shift workload has real avoidable contention:
    # both optimizers must find a much better mapping at n=16.
    assert improvement["greedy/16"] > 3.0, improvement
    assert improvement["anneal/16"] > 1.5, improvement
    print(
        f"\nplacement bench: greedy n=16 {evals_per_sec['greedy/16']} "
        f"eval/s, {improvement['greedy/16']}x predicted improvement"
    )
