"""Ablation: δ parenthesisation — per-round vs global (:mod:`repro.core.signature`).

Eq. 5 of the paper is typographically ambiguous about whether δ is paid
once or once per round.  This bench fits both variants on the same
Gigabit Ethernet samples and shows the per-round reading generalises
across n while the global reading cannot (its single offset is tied to
the sample size).
"""

import numpy as np

from repro.clusters.profiles import gigabit_ethernet
from repro.core.errors import relative_error_percent
from repro.experiments.common import SCALES, reference_signature
from repro.measure.alltoall import measure_alltoall


def test_ablation_delta_mode(benchmark):
    scale = SCALES["bench"]
    cluster = gigabit_ethernet()

    def ablation():
        per_round = reference_signature(
            cluster, 40, scale, seed=0, delta_mode="per_round"
        )
        global_delta = reference_signature(
            cluster, 40, scale, seed=0, delta_mode="global"
        )
        probes = [(10, 524_288), (20, 524_288), (30, 262_144)]
        rows = []
        for n, m in probes:
            sample = measure_alltoall(cluster, n, m, reps=1, seed=11)
            rows.append(
                (
                    n,
                    m,
                    relative_error_percent(sample.mean_time, per_round.predict(n, m)),
                    relative_error_percent(sample.mean_time, global_delta.predict(n, m)),
                )
            )
        return per_round, global_delta, rows

    per_round, global_delta, rows = benchmark.pedantic(
        ablation, rounds=1, iterations=1
    )
    print("\n[ablation] delta parenthesisation (per-round vs global)")
    print(f"  per-round: {per_round}")
    print(f"  global   : {global_delta}")
    print(f"  {'n':>4} {'m':>9} {'err per-round %':>16} {'err global %':>14}")
    for n, m, err_pr, err_gl in rows:
        print(f"  {n:>4} {m:>9} {err_pr:>16.1f} {err_gl:>14.1f}")
    # Both fit the sample size by construction; the question is off-n
    # generalisation. The per-round reading should not be catastrophically
    # worse anywhere.
    per_round_mape = np.mean([abs(r[2]) for r in rows])
    assert per_round_mape < 100.0
