"""The §8 validation: one table of testbeds and three figure functions.

The paper validates its signature the same way on each of its three
networks: a *fit* at the sample size n′ (measured vs lower bound vs
prediction), a *prediction surface* over (n, m), and an *error curve*
vs n for four message sizes.  :data:`TESTBEDS` holds one row per
network, in the paper's order; the experiment registry binds each row
to the three functions, and Tables S and M read the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clusters.profiles import get_cluster
from ..core.bounds import alltoall_lower_bound
from ..core.errors import relative_error_percent
from ..measure.alltoall import sweep_grid
from .common import (
    ExperimentResult,
    Scale,
    reference_fit,
    reference_hockney,
    reference_signature,
    resolve_scale,
)

__all__ = [
    "Testbed",
    "TESTBEDS",
    "fit_figure",
    "surface_figure",
    "error_figure",
    "ERROR_MESSAGE_SIZES",
]

#: figures 8/11/14 plot these four sizes (binary KiB, as the paper's
#: "128 kB".."1024 kB" labels).
ERROR_MESSAGE_SIZES = (131_072, 262_144, 524_288, 1_048_576)


@dataclass(frozen=True)
class Testbed:
    """One §8 network: its cluster, its sample size and its three figures.

    ``n_prime`` is the process count the (γ, δ, M) regression samples;
    ``max_n`` bounds the surface and error figures; ``fit_fig`` numbers
    the fit figure, and the surface and error figures follow it.
    ``fit_hosts`` and ``fitted`` complete the fit figure's description.
    """

    cluster: str
    label: str
    n_prime: int
    max_n: int
    fit_fig: int
    fit_hosts: str
    fitted: str

    def fit_nprocs(self, scale: Scale) -> int:
        """n′ at *scale*: smoke runs fit at 6 processes."""
        return 6 if scale.name == "smoke" else self.n_prime


TESTBEDS: tuple[Testbed, ...] = (
    # Retransmission delays barely matter on the slow wire (γ ≈ 1); δ is
    # the affine start-up above M that the Hockney model misses.
    Testbed(
        "fast-ethernet", "Fast Ethernet", n_prime=24, max_n=40, fit_fig=6,
        fit_hosts="machines", fitted="gamma/delta",
    ),
    # Retransmissions in a high-rate fabric open a wide gap over the
    # lower bound.  The signature over-predicts unsaturated n by about
    # 1/γ − 1 (≈ −77%) and fits once the network saturates, the model's
    # domain.
    Testbed(
        "gigabit-ethernet", "Gigabit Ethernet", n_prime=40, max_n=50, fit_fig=9,
        fit_hosts="machines", fitted="gamma/delta",
    ),
    # Contention acts as on Ethernet though the start-up cost is almost
    # nil (δ below 1 us, dropped).  Myrinet saturates only above about
    # 40 processes, so n′ = 24 under-samples it: the paper blames the
    # sample, not the model, for the small-n errors (see the sample-size
    # ablation bench).
    Testbed(
        "myrinet", "Myrinet", n_prime=24, max_n=50, fit_fig=12,
        fit_hosts="processes", fitted="gamma only",
    ),
)


def fit_figure(
    exp_id: str,
    paper_ref: str,
    row: Testbed,
    scale: str | Scale,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """Measured vs lower bound vs fitted prediction at n′ (Figs. 6/9/12)."""
    scale = resolve_scale(scale)
    cluster = get_cluster(row.cluster)
    nprocs = row.fit_nprocs(scale)
    hockney = reference_hockney(cluster, scale, seed=seed)
    fit = reference_fit(cluster, nprocs, scale, seed=seed)
    signature = fit.signature
    m = np.array([s.msg_size for s in fit.samples], dtype=np.float64)
    measured = np.array([s.mean_time for s in fit.samples])
    bound = alltoall_lower_bound(nprocs, m, hockney)
    predicted = signature.predict(nprocs, m)

    result = ExperimentResult(
        exp_id=exp_id,
        title=f"MPI_Alltoall fit, {cluster.name}, {nprocs} {row.fit_hosts}",
        paper_ref=paper_ref,
        kind="lines",
        xlabel="message size (bytes)",
        ylabel="completion time (s)",
        series={
            "Direct Exchange": (m, measured),
            "Lower bound": (m, bound),
            "Prediction": (m, predicted),
        },
        params={
            "cluster": cluster.name,
            "nprocs": nprocs,
            "gamma": signature.gamma,
            "delta": signature.delta,
            "threshold": signature.threshold,
            "alpha": hockney.alpha,
            "beta": hockney.beta,
            "scale": scale.name,
            "seed": seed,
        },
    )
    paper = cluster.paper
    if paper is not None:
        result.notes.append(
            f"fitted gamma={signature.gamma:.4f} delta={signature.delta * 1e3:.2f} ms "
            f"M={signature.threshold} B "
            f"(paper: gamma={paper.gamma} delta={paper.delta * 1e3:.2f} ms "
            f"M={paper.threshold} B)"
        )
    fit_err = relative_error_percent(measured, predicted)
    result.notes.append(
        f"fit residual error range: [{np.min(fit_err):+.1f}%, {np.max(fit_err):+.1f}%]"
    )
    return result


def _surface_grid(scale: Scale, max_n: int) -> tuple[list[int], list[int]]:
    if scale.name == "smoke":
        return [4, 8], [262_144, 1_048_576]
    if scale.name == "full":
        ns = list(range(4, 51, 4))
    else:  # default / bench
        ns = [5, 10, 20, 30, 40]
    ns = [n for n in ns if n <= max_n]
    ms = [131_072, 262_144, 524_288, 786_432, 1_048_576]
    return ns, ms


def surface_figure(
    exp_id: str,
    paper_ref: str,
    row: Testbed,
    scale: str | Scale,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """Measured + predicted (n, m) surfaces (Figs. 7/10/13)."""
    scale = resolve_scale(scale)
    cluster = get_cluster(row.cluster)
    fit_n = row.fit_nprocs(scale)
    signature = reference_signature(cluster, fit_n, scale, seed=seed)
    n_values, m_values = _surface_grid(scale, row.max_n)
    # One engine-routed grid sweep (n-major order matches the reshape);
    # per-point streams are named, so values are identical to the old
    # point-by-point loop.
    samples = sweep_grid(
        cluster, n_values, m_values, reps=scale.reps, seed=seed + 3
    )
    measured = np.array([s.mean_time for s in samples]).reshape(
        len(n_values), len(m_values)
    )
    predicted = signature.predict(
        np.asarray(n_values, dtype=np.float64)[:, None],
        np.asarray(m_values, dtype=np.float64)[None, :],
    )
    result = ExperimentResult(
        exp_id=exp_id,
        title=f"All-to-All prediction surface, {cluster.name}",
        paper_ref=paper_ref,
        kind="surface",
        surfaces={"Direct Exchange": measured, "Prediction": predicted},
        n_values=np.asarray(n_values),
        m_values=np.asarray(m_values),
        params={
            "cluster": cluster.name,
            "fit_nprocs": fit_n,
            "gamma": signature.gamma,
            "delta": signature.delta,
            "scale": scale.name,
            "seed": seed,
        },
    )
    err = relative_error_percent(measured, predicted)
    result.notes.append(
        f"surface error: median {np.median(np.abs(err)):.1f}%, "
        f"worst {np.max(np.abs(err)):.1f}% "
        "(largest at small n where the network is unsaturated)"
    )
    return result


def error_figure(
    exp_id: str,
    paper_ref: str,
    row: Testbed,
    scale: str | Scale,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """Relative error vs process count for four sizes (Figs. 8/11/14)."""
    scale = resolve_scale(scale)
    cluster = get_cluster(row.cluster)
    fit_n = row.fit_nprocs(scale)
    signature = reference_signature(cluster, fit_n, scale, seed=seed)
    if scale.name == "smoke":
        ns = [4, 8]
        sizes = ERROR_MESSAGE_SIZES[:2]
    elif scale.name == "full":
        ns = list(range(4, 51, 3))
        sizes = ERROR_MESSAGE_SIZES
    else:  # default / bench
        ns = [5, 10, 20, 30, 40]
        sizes = ERROR_MESSAGE_SIZES
    ns = [n for n in ns if n <= row.max_n]

    grid = sweep_grid(cluster, ns, sizes, reps=scale.reps, seed=seed + 4)
    by_point = {(s.n_processes, s.msg_size): s for s in grid}
    series = {}
    saturated_errors = []
    for m in sizes:
        errors = []
        for n in ns:
            sample = by_point[(n, int(m))]
            estimated = signature.predict(n, int(m))
            err = relative_error_percent(sample.mean_time, estimated)
            errors.append(err)
            if n >= fit_n:
                saturated_errors.append(err)
        label = f"{m // 1024} kB messages"
        series[label] = (np.asarray(ns, dtype=np.float64), np.asarray(errors))

    result = ExperimentResult(
        exp_id=exp_id,
        title=f"Estimation error vs processes, {cluster.name}",
        paper_ref=paper_ref,
        kind="lines",
        xlabel="processes",
        ylabel="(measured/estimated - 1) x100%",
        series=series,
        params={
            "cluster": cluster.name,
            "fit_nprocs": fit_n,
            "gamma": signature.gamma,
            "delta": signature.delta,
            "scale": scale.name,
            "seed": seed,
        },
    )
    if saturated_errors:
        result.notes.append(
            f"median |error| at n >= n'={fit_n}: "
            f"{np.median(np.abs(saturated_errors)):.1f}% "
            "(paper: 'usually smaller than 10% when there are enough "
            "processes to saturate the network')"
        )
    return result
