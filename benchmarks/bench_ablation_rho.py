"""Ablation: the ρ blend of the §6 two-β model (paper fixes ρ = 0.5).

"Supposing that at most one of each two connections will be delayed due
to contention" motivates ρ = 0.5; this bench sweeps ρ and reports the
prediction error at 40 processes, showing the §6 model's sensitivity to
its one free parameter (a weakness the §7 signature model removes).
"""

import numpy as np

from repro.clusters.profiles import gigabit_ethernet
from repro.core.errors import mean_absolute_percentage_error
from repro.core.throughput import extract_two_beta
from repro.experiments.common import SCALES, reference_hockney
from repro.measure.alltoall import sweep_grid
from repro.measure.stress import run_stress


def test_ablation_rho(benchmark):
    scale = SCALES["bench"]
    cluster = gigabit_ethernet()
    sizes = [262_144, 524_288, 1_048_576]

    def ablation():
        hockney = reference_hockney(cluster, scale, seed=0)
        unloaded = run_stress(cluster, 1, 32 * 1024 * 1024, seed=31)
        saturated = run_stress(cluster, 40, 32 * 1024 * 1024, seed=32)
        times = np.concatenate([unloaded.times, saturated.times])
        samples = sweep_grid(cluster, [40], sizes, reps=1, seed=33)
        measured = np.array([s.mean_time for s in samples])
        mapes = {}
        for rho in (0.25, 0.5, 0.75):
            model = extract_two_beta(
                32 * 1024 * 1024, times, alpha=hockney.alpha, rho=rho
            )
            predicted = model.predict(40, np.array(sizes, dtype=float))
            mapes[rho] = mean_absolute_percentage_error(measured, predicted)
        return mapes

    mapes = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print("\n[ablation] two-beta rho blend, GigE, 40 procs")
    for rho, mape in mapes.items():
        print(f"  rho={rho:<5} MAPE={mape:.1f}%")
    assert min(mapes.values()) < 80.0
