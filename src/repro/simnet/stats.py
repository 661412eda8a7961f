"""Summary statistics helpers and the sweep-row cost-column flag.

:class:`Summary` condenses samples of durations/throughputs.  What one
simulation *cost* (allocation solves, advance epochs, engine events,
losses, stalls) comes back as plain :class:`~repro.simmpi.RunResult`
fields and is counted in the ``sim.*`` counters of
:data:`repro.obs.metrics.REGISTRY`.  *Surfacing* a point's counts as
sweep-row columns is gated behind the ``REPRO_SIM_STATS`` environment
flag (see :func:`stats_enabled`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize", "stats_enabled"]

#: Environment flag gating the sim_* columns on measurement rows.
STATS_ENV = "REPRO_SIM_STATS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def stats_enabled() -> bool:
    """Whether ``REPRO_SIM_STATS`` asks for per-simulation cost columns."""
    raw = os.environ.get(STATS_ENV, "")
    return raw.strip().lower() in _TRUTHY


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample of durations/throughputs."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.6g} std={self.std:.6g} "
            f"min={self.minimum:.6g} p50={self.p50:.6g} "
            f"p95={self.p95:.6g} max={self.maximum:.6g}"
        )


def summarize(values) -> Summary:
    """Compute a :class:`Summary` of a non-empty sequence."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
    )
