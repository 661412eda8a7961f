"""Ablation: regression method (OLS vs GLS/FGLS) for signature fitting.

The paper prescribes Generalized Least Squares; this bench quantifies
how much the method matters for signature stability on noisy samples.
"""

import numpy as np

from repro.clusters.profiles import gigabit_ethernet
from repro.core.signature import fit_signature
from repro.experiments.common import SCALES, reference_hockney, sample_sizes_for
from repro.measure.alltoall import sweep_grid


def test_ablation_regression_method(benchmark):
    scale = SCALES["bench"]
    cluster = gigabit_ethernet()

    def ablation():
        hockney = reference_hockney(cluster, scale, seed=0)
        samples = sweep_grid(
            cluster, [40], sample_sizes_for(scale), reps=2, seed=21
        )
        fits = {}
        for method in ("ols", "gls", "fgls"):
            fits[method] = fit_signature(
                samples, hockney, method=method
            ).signature
        return fits

    fits = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print("\n[ablation] regression method for (gamma, delta)")
    for method, sig in fits.items():
        print(f"  {method:<5} gamma={sig.gamma:.4f} delta={sig.delta * 1e3:.2f} ms M={sig.threshold}")
    gammas = np.array([sig.gamma for sig in fits.values()])
    # All methods must agree on the contention regime (same gamma within
    # a factor well under 2); GLS is the paper's choice, not a necessity.
    assert gammas.max() / gammas.min() < 1.75
