"""Fig. 4 — the §6 two-β ("throughput under contention") prediction.

β_F and β_C are extracted from the Fig. 3 stress data, blended with
ρ = 0.5 (eq. 3), and plugged into Proposition 1.  The figure compares,
for 40 processes on Gigabit Ethernet: the measured Direct Exchange, the
synthetic-parameter prediction, and the contention-free lower bound —
showing the synthetic β tracks large messages but misses small ones
(the motivation for the §7 signature model).
"""

from __future__ import annotations

import numpy as np

from ..clusters.profiles import gigabit_ethernet
from ..core.throughput import two_beta_from_states
from ..core.bounds import alltoall_lower_bound
from ..measure.alltoall import sweep_grid
from ..measure.stress import run_stress
from .common import ExperimentResult, reference_hockney, resolve_scale, sample_sizes_for

__all__ = ["run"]


def run(scale="default", *, seed: int = 0, rho: float = 0.5) -> ExperimentResult:
    """Measure, derive the two-β model, and return the Fig. 4 series."""
    scale = resolve_scale(scale)
    cluster = gigabit_ethernet()
    nprocs = 8 if scale.name == "smoke" else 40
    hockney = reference_hockney(cluster, scale, seed=seed)

    # β extraction from the Fig. 3 data: the contention-free state from
    # an unloaded transfer, the contended state from the slow tail of a
    # saturating flood.  The paper reads both states off the same figure
    # (whose x axis spans unloaded through saturated connection counts).
    stress_k = 8 if scale.name == "smoke" else 40
    transfer = 4 * 1024 * 1024 if scale.name == "smoke" else 32 * 1024 * 1024
    unloaded = run_stress(cluster, 1, transfer, seed=seed)
    saturated = run_stress(cluster, stress_k, transfer, seed=seed + 1)
    model = two_beta_from_states(
        transfer, unloaded.times, saturated.times,
        alpha=hockney.alpha, rho=rho,
    )

    sizes = sample_sizes_for(scale)
    samples = sweep_grid(
        cluster, [nprocs], sizes, reps=scale.reps, seed=seed + 2
    )
    m = np.array(sizes, dtype=np.float64)
    measured = np.array([s.mean_time for s in samples])
    predicted = model.predict(nprocs, m)
    bound = alltoall_lower_bound(nprocs, m, hockney)

    result = ExperimentResult(
        exp_id="fig04",
        title=f"Two-beta prediction, MPI_Alltoall, {nprocs} processes, GigE",
        paper_ref="Fig. 4",
        kind="lines",
        xlabel="message size (bytes)",
        ylabel="completion time (s)",
        series={
            "Direct Exchange": (m, measured),
            "Prediction (synthetic beta)": (m, predicted),
            "Lower bound": (m, bound),
        },
        params={
            "cluster": cluster.name,
            "nprocs": nprocs,
            "rho": rho,
            "beta_free": model.beta_free,
            "beta_contended": model.beta_contended,
            "beta_synthetic": model.beta_synthetic,
            "scale": scale.name,
            "seed": seed,
        },
    )
    result.notes.append(
        f"beta_F={model.beta_free:.3e} s/B, beta_C={model.beta_contended:.3e} s/B, "
        f"synthetic beta={model.beta_synthetic:.3e} s/B "
        "(paper: 8.502e-9 / 8.498e-8 / 4.674e-8)"
    )
    result.notes.append(
        "prediction should sit between lower bound and measurement for "
        "large m; the paper's point is its small-m inaccuracy"
    )
    return result
