"""Table M — cost-model shootout across the paper's three clusters.

The paper's headline claim is that the contention signature predicts
All-to-All completion times where the contention-blind Hockney model
(eq. 1) fails by the contention ratio γ.  This experiment makes that
claim a ranked table: every registered built-in cost model is fitted on
the *same* (n, m) grid per cluster and scored by cross-validated MAPE
(:mod:`repro.models.selection`), reproducing the Hockney-vs-signature
error gap — ~(γ-1)·100 % on the saturated grids — and placing the
related-work models (LogGP, max-rate, saturation-knee) in between.
"""

from __future__ import annotations

import numpy as np

from ..clusters.profiles import get_cluster
from ..measure.alltoall import sweep_grid
from ..models import DEFAULT_MODELS, compare_models
from ..sweeps.runner import default_runner
from .common import ExperimentResult, reference_hockney, resolve_scale
from .validation import TESTBEDS

__all__ = ["run", "SHOOTOUT_CLUSTERS"]

#: The paper's three testbeds, in its presentation order.
SHOOTOUT_CLUSTERS = tuple(row.cluster for row in TESTBEDS)


def _grid_for(scale) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(nprocs, sizes) ladders per scale (>= 3 n so the knee is fittable)."""
    if scale.name == "smoke":
        return (4, 6, 8), (2_048, 32_768, 262_144)
    if scale.name == "full":
        return (4, 8, 12, 16, 24, 32), (
            2_048, 8_192, 32_768, 131_072, 524_288, 1_048_576,
        )
    return (4, 8, 12, 16), (2_048, 32_768, 131_072, 524_288)


def run(scale="default", *, seed: int = 0) -> ExperimentResult:
    """Fit the model zoo per cluster and tabulate the ranked error gaps."""
    scale = resolve_scale(scale)
    nprocs, sizes = _grid_for(scale)
    rows = []
    tables: list[str] = []
    mape_by_model: dict[str, list[float]] = {m: [] for m in DEFAULT_MODELS}
    signature_wins = 0
    for name in SHOOTOUT_CLUSTERS:
        cluster = get_cluster(name)
        hockney = reference_hockney(cluster, scale, seed=seed)
        samples = sweep_grid(
            cluster, nprocs, sizes,
            reps=scale.reps, seed=seed + 1, runner=default_runner(),
        )
        comparison = compare_models(
            samples, DEFAULT_MODELS, hockney=hockney, cluster=cluster
        )
        comparison.cluster = name
        tables.append(f"{name}:")
        tables.extend(comparison.render().splitlines())
        ranking = comparison.ranking
        if ranking.index("signature") < ranking.index("hockney"):
            signature_wins += 1
        for report in comparison.reports:
            mape_by_model[report.model].append(
                comparison.rank_metric_of(report) if report.ok else float("nan")
            )
            rows.append(
                {
                    "cluster": name,
                    "model": report.model,
                    "rank": ranking.index(report.model) + 1,
                    "ranked_by": comparison.ranked_by,
                    "mape": None if report.score is None else report.score.mape,
                    "cv_mape": report.cv_mape,
                    "lono_mape": report.lono_mape,
                    "rmse": None if report.score is None else report.score.rmse,
                    "error": report.error,
                }
            )

    x = np.arange(len(SHOOTOUT_CLUSTERS), dtype=np.float64)
    result = ExperimentResult(
        exp_id="tableM",
        title="Cost-model shootout: cross-validated MAPE per cluster",
        paper_ref="§8 claim",
        kind="lines",
        xlabel="cluster index",
        # Each cluster's comparison ranks by cv-mape, falling back to
        # in-sample mape when some model cannot cross-validate; the
        # per-row `ranked_by` field records which was plotted.
        ylabel="rank mape % (cv when available)",
        series={
            model: (x, np.asarray(values, dtype=np.float64))
            for model, values in mape_by_model.items()
        },
        params={
            "scale": scale.name,
            "seed": seed,
            "nprocs": list(nprocs),
            "sizes": list(sizes),
            "clusters": list(SHOOTOUT_CLUSTERS),
            "rows": rows,
        },
    )
    result.notes.extend(tables)
    result.notes.append(
        f"signature ranks above hockney on {signature_wins}/"
        f"{len(SHOOTOUT_CLUSTERS)} clusters (the paper's claim: "
        "contention-aware beats contention-blind everywhere gamma > 1)"
    )
    return result
