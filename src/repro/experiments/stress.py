"""Figs. 2 and 3 — the Gigabit Ethernet stress floods (§3).

"We evaluate the average bandwidth through the opening of several
point-to-point connections in a Gigabit Ethernet network ... during the
transmission of large data files (32 MB), gradually increasing the
number of simultaneous point-to-point connections to saturate the
network."  Both figures plot the same floods:

* Fig. 2, the average per-connection bandwidth vs connections: ~full
  NIC bandwidth for few connections, hyperbolic decay once the fabric
  saturates (paper: ~110 MB/s down to ~20 MB/s at 60 connections);
* Fig. 3, every connection's transmission time: "most connections
  finish their transmission in a reasonable time ..., but some
  point-to-point connections require almost six times longer" — the
  TCP RTO heavy tail that motivates the whole contention analysis.
"""

from __future__ import annotations

import numpy as np

from ..clusters.profiles import gigabit_ethernet
from ..measure.stress import StressSweep, stress_sweep
from .common import ExperimentResult, Scale, resolve_scale

__all__ = [
    "bandwidth_figure",
    "transmission_figure",
    "connection_counts",
    "TRANSFER_BYTES",
]

TRANSFER_BYTES = 32 * 1024 * 1024  # the paper's 32 MB files


def connection_counts(scale_name: str) -> list[int]:
    """Connection-count ladder per scale."""
    if scale_name == "smoke":
        return [1, 4, 8]
    if scale_name == "full":
        return list(range(1, 61, 2))
    return [1, 5, 10, 15, 20, 30, 40, 50, 60]


def _floods(scale: Scale, seed: int) -> tuple[StressSweep, dict]:
    """The stress sweep both figures plot, and the params they report."""
    cluster = gigabit_ethernet()
    transfer = TRANSFER_BYTES if scale.name != "smoke" else 4 * 1024 * 1024
    sweep = stress_sweep(
        cluster,
        connection_counts(scale.name),
        transfer,
        reps=scale.reps,
        seed=seed,
    )
    params = {
        "cluster": cluster.name,
        "transfer_bytes": transfer,
        "scale": scale.name,
        "seed": seed,
    }
    return sweep, params


def bandwidth_figure(scale="default", *, seed: int = 0) -> ExperimentResult:
    """Fig. 2: average bandwidth vs simultaneous connections."""
    scale = resolve_scale(scale)
    sweep, params = _floods(scale, seed)
    ks, mean_bw = sweep.mean_throughput_curve()
    result = ExperimentResult(
        exp_id="fig02",
        title="Average bandwidth, Gigabit Ethernet stress",
        paper_ref="Fig. 2",
        kind="lines",
        xlabel="connections",
        ylabel="throughput (MB/s)",
        series={"Average bandwidth": (ks, mean_bw / 1e6)},
        params=params,
    )
    result.notes.append(
        f"single-connection bandwidth {mean_bw[0] / 1e6:.1f} MB/s, "
        f"at k={int(ks[-1])}: {mean_bw[-1] / 1e6:.1f} MB/s "
        f"(paper: ~110 down to ~20 MB/s)"
    )
    if len(ks) > 2 and not np.all(np.diff(mean_bw) <= 1e-9):
        decays = mean_bw[-1] < mean_bw[0]
        result.notes.append(
            "bandwidth decays with connection count"
            if decays
            else "WARNING: no bandwidth decay observed"
        )
    return result


def transmission_figure(scale="default", *, seed: int = 0) -> ExperimentResult:
    """Fig. 3: each connection's transmission time, plus the average."""
    scale = resolve_scale(scale)
    sweep, params = _floods(scale, seed)
    xs, ys = sweep.scatter_times()
    avg_k, avg_t = sweep.average_time_curve()
    saturated = sweep.saturated_times()
    tail_ratio = float(np.max(saturated) / np.percentile(saturated, 10))
    result = ExperimentResult(
        exp_id="fig03",
        title="Transmission time of individual connections, GigE stress",
        paper_ref="Fig. 3",
        kind="scatter",
        xlabel="connections",
        ylabel="transmission time (s)",
        scatter_xy=(xs, ys),
        series={"average": (avg_k, avg_t)},
        params=params,
    )
    result.notes.append(
        f"slowest/fast-decile ratio at k={int(avg_k[-1])}: {tail_ratio:.1f}x "
        "(paper: some connections ~6x slower than the pack)"
    )
    return result
