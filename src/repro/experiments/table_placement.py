"""Table P — contention avoided by rank placement on the edge-core fabric.

The paper models the contention an All-to-All *incurs* on a given
fabric; this table quantifies how much of it is an artefact of the
rank→host mapping.  On the oversubscribed edge-core GigE stress
scenario (4-node edge switches behind 120 MB/s trunks), a ``shift``
workload with ``offset = hosts_per_edge`` sends every byte across the
trunks under the identity mapping, while a contention-aware placement
(found by :func:`repro.placement.optimize_placement` against the
predicted MED objective — no simulation) keeps each shift cycle inside
one edge switch and the exchange NIC-bound.

For each process count the table reports the predicted bottleneck
(identity vs optimized, from the placed traffic matrix's MED routed
over the fabric) and the *simulated* completion time of both mappings
under the batched vector engine — the avoided-vs-incurred contention,
confirmed end to end.  Losses are disabled: the predicted objective
models bandwidth only, and lossless vector runs match the fluid oracle
to roundoff, where lossy ones match only in distribution.
"""

from __future__ import annotations

import numpy as np

from ..api import Scenario
from .common import ExperimentResult, resolve_scale

__all__ = ["run", "stress_scenario", "SHIFT_OFFSET"]

#: One full edge switch per shift step: the worst identity mapping.
SHIFT_OFFSET = 4

#: The PR 2 edge-core GigE stress fabric (lossless so the vector
#: engine — and the bandwidth-only objective — apply exactly).
_STRESS_SPEC = {
    "name": "edge-core-gige-placed",
    "description": "edge-core GigE stress fabric under a cross-switch "
                   "shift workload (lossless, vector engine)",
    "base": "gigabit-ethernet",
    "algorithm": "direct",
    "max_hosts": 64,
    "engine": "vector",
    "topology": {
        "factory": "edge-core",
        "params": {
            "nic_bandwidth": 117.6e6,
            "hosts_per_edge": 4,
            "trunk_bandwidth": 120e6,
            "core_backplane": 2000e6,
        },
    },
    "transport": {"mux_overhead": 6.0e-3},
    "loss": {"enabled": False},
    "workload": {
        "pattern": {"name": "shift", "params": {"offset": SHIFT_OFFSET}},
        "nprocs": [8, 16],
        "sizes": ["128kB", "512kB"],
        "seeds": [0],
        "reps": 1,
    },
}


def stress_scenario() -> Scenario:
    """The lossless edge-core stress scenario this table measures."""
    return Scenario.from_dict(_STRESS_SPEC)


def _grid_for(scale) -> tuple[tuple[int, ...], int]:
    """(process counts, message size) per scale."""
    if scale.name == "smoke":
        return (8,), 131_072
    if scale.name == "full":
        return (8, 16, 32), 524_288
    return (8, 16), 524_288


def run(scale="default", *, seed: int = 0) -> ExperimentResult:
    """Tabulate identity-vs-optimized contention, predicted and simulated."""
    scale = resolve_scale(scale)
    nprocs, msg_size = _grid_for(scale)
    scenario = stress_scenario()
    rows = []
    pred_identity, pred_opt = [], []
    sim_identity, sim_opt = [], []
    for n in nprocs:
        search = scenario.optimize_placement(
            n, msg_size, optimizer="greedy", seed=seed
        )
        identity = scenario.measure(
            n, msg_size, reps=scale.reps, seed=seed
        )
        placed = scenario.measure(
            n, msg_size, reps=scale.reps, seed=seed,
            placement=search.placement,
        )
        pred_identity.append(search.identity_objective)
        pred_opt.append(search.objective)
        sim_identity.append(identity.mean_time)
        sim_opt.append(placed.mean_time)
        rows.append(
            {
                "n_processes": n,
                "msg_size": msg_size,
                "predicted_identity": search.identity_objective,
                "predicted_optimized": search.objective,
                "predicted_ratio": search.ratio,
                "simulated_identity": identity.mean_time,
                "simulated_optimized": placed.mean_time,
                "simulated_ratio": identity.mean_time / placed.mean_time,
                "optimizer_evaluations": search.evaluations,
                "permutation": list(search.permutation),
            }
        )

    x = np.asarray(nprocs, dtype=np.float64)
    result = ExperimentResult(
        exp_id="tableP",
        title="Rank placement: avoided vs incurred contention (edge-core GigE)",
        paper_ref="§4 analysis",
        kind="lines",
        xlabel="processes",
        ylabel="completion time (s)",
        series={
            "predicted identity": (x, np.asarray(pred_identity)),
            "predicted optimized": (x, np.asarray(pred_opt)),
            "simulated identity": (x, np.asarray(sim_identity)),
            "simulated optimized": (x, np.asarray(sim_opt)),
        },
        params={
            "scale": scale.name,
            "seed": seed,
            "msg_size": msg_size,
            "shift_offset": SHIFT_OFFSET,
            "scenario": scenario.spec.to_dict(),
            "rows": rows,
        },
    )
    for row in rows:
        result.notes.append(
            f"n={row['n_processes']}: predicted "
            f"{row['predicted_identity'] * 1e3:.2f} -> "
            f"{row['predicted_optimized'] * 1e3:.2f} ms "
            f"({row['predicted_ratio']:.2f}x), simulated "
            f"{row['simulated_identity'] * 1e3:.2f} -> "
            f"{row['simulated_optimized'] * 1e3:.2f} ms "
            f"({row['simulated_ratio']:.2f}x)"
        )
    wins = sum(
        1 for row in rows
        if row["predicted_optimized"] < row["predicted_identity"]
        and row["simulated_optimized"] < row["simulated_identity"]
    )
    result.notes.append(
        f"optimized placement wins (predicted and simulated) on "
        f"{wins}/{len(rows)} process counts — contention the identity "
        "mapping incurs is avoidable, not intrinsic to the fabric"
    )
    return result
