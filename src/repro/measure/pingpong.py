"""Point-to-point ping-pong measurement (Hockney α/β acquisition).

The paper's lower bound uses "parameters α and β obtained from a simple
point-to-point measure" (§8).  We measure round-trip times between two
hosts of the cluster for a ladder of message sizes, halve them, and fit:

* α from the smallest-size sample (latency-dominated),
* β from the slope over the sizes at or above the linear regime
  (the paper notes transmission "becoming linear only when messages are
  larger than 64 KB", so the slope is taken over the large sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ..clusters.profiles import ClusterProfile
from ..core.hockney import HockneyFit, HockneyParams, fit_hockney
from ..exceptions import MeasurementError
from ..simnet.rng import RngFactory
from ..simmpi.lowering import RankContext

__all__ = ["PingPongResult", "measure_pingpong", "hockney_from_pingpong"]

DEFAULT_SIZES = (
    1,
    1_024,
    8_192,
    65_536,
    131_072,
    262_144,
    524_288,
    1_048_576,
)


def _pingpong_program(
    ctx: RankContext, msg_size: int
) -> Generator[Any, None, None]:
    """Round trip: rank 0 sends, rank 1 echoes."""
    if ctx.rank == 0:
        send_req = ctx.isend(1, msg_size, tag=1)
        yield send_req
        yield ctx.irecv(1, tag=2)
    elif ctx.rank == 1:
        yield ctx.irecv(0, tag=1)
        yield ctx.isend(0, msg_size, tag=2)


@dataclass(frozen=True)
class PingPongResult:
    """One-way times (mean over reps) per message size."""

    cluster: str
    sizes: np.ndarray
    one_way_times: np.ndarray
    std_times: np.ndarray
    reps: int

    def gap_per_byte(self) -> np.ndarray:
        """Observed per-byte gap t/m (diagnostic)."""
        return self.one_way_times / np.maximum(self.sizes, 1)


def measure_pingpong(
    cluster: ClusterProfile,
    sizes=DEFAULT_SIZES,
    *,
    reps: int = 5,
    seed: int = 0,
) -> PingPongResult:
    """Measure one-way times on *cluster* between hosts 0 and 1."""
    sizes = np.asarray(sorted(int(s) for s in sizes), dtype=np.int64)
    if sizes.size < 2:
        raise MeasurementError("need at least two sizes for a Hockney fit")
    if reps < 1:
        raise MeasurementError("reps must be >= 1")
    factory = RngFactory(seed)
    means = np.empty(sizes.size)
    stds = np.empty(sizes.size)
    for idx, size in enumerate(sizes):
        times = []
        for rep in range(reps):
            rep_seed = factory.child(f"pingpong/{size}/{rep}").seed
            # Skew-free: a ping-pong loop amortises job start skew.
            runtime = cluster.runtime(2, seed=rep_seed, start_skew_scale=0.0)
            result = runtime.run(_pingpong_program, int(size))
            times.append(result.duration / 2.0)
        arr = np.asarray(times)
        means[idx] = arr.mean()
        stds[idx] = arr.std(ddof=1) if len(arr) > 1 else 0.0
    return PingPongResult(
        cluster=cluster.name,
        sizes=sizes,
        one_way_times=means,
        std_times=stds,
        reps=reps,
    )


def hockney_from_pingpong(
    result: PingPongResult,
    *,
    linear_from: int = 65_536,
    method: str = "ols",
) -> HockneyFit:
    """Fit Hockney parameters from a ping-pong ladder.

    β is the regression slope over sizes >= *linear_from*; α is the
    measured time of the smallest size (clamped against the regression
    intercept so α + mβ never exceeds the measured small-message times
    by construction of the paper's model).
    """
    mask = result.sizes >= linear_from
    if mask.sum() >= 2:
        fit = fit_hockney(
            result.sizes[mask], result.one_way_times[mask], method=method
        )
    else:
        fit = fit_hockney(result.sizes, result.one_way_times, method=method)
    alpha = max(float(result.one_way_times[0]), 0.0)
    params = HockneyParams(alpha=alpha, beta=fit.params.beta)
    return HockneyFit(
        params=params,
        fit=fit.fit,
        sizes=result.sizes,
        times=result.one_way_times,
    )
