"""Lower bounds for the total exchange problem (paper §5.1).

Implements Claims 1–3 and Proposition 1 under the 1-port full-duplex
model:

* Claim 1 — start-ups:  at least ``max(Δs, Δr)``;
* Claim 2 — bandwidth:  at least ``max(ts, tr)`` with
  ``ts = max_i Σ_j w_ij β`` and ``tr = max_j Σ_i w_ij β``;
* Claim 3 — combined:   ``max(Δs, Δr)·α + max(ts, tr)``;
* Proposition 1 — regular All-to-All on a homogeneous network:
  ``(n-1)·α + (n-1)·m·β``.
"""

from __future__ import annotations

import numpy as np

from .hockney import HockneyParams
from .med import MED

__all__ = [
    "min_startups",
    "bandwidth_lower_bound",
    "combined_lower_bound",
    "alltoall_lower_bound",
    "delta_eligible_rounds",
    "naive_model",
]


def min_startups(med: MED) -> int:
    """Claim 1: minimum number of start-ups without forwarding."""
    return max(med.max_out_degree, med.max_in_degree)


def bandwidth_lower_bound(med: MED, params: HockneyParams) -> float:
    """Claim 2: ``max(ts, tr)`` in seconds."""
    ts = med.max_send_bytes * params.beta
    tr = med.max_recv_bytes * params.beta
    return max(ts, tr)


def combined_lower_bound(med: MED, params: HockneyParams) -> float:
    """Claim 3: start-up and bandwidth bounds combined."""
    return min_startups(med) * params.alpha + bandwidth_lower_bound(med, params)


def delta_eligible_rounds(med: MED, threshold: int) -> int:
    """Per-node maximum count of arcs carrying at least *threshold* bytes.

    The MED generalisation of the ``(n-1)`` factor multiplying δ in the
    per-round signature model: δ charges the serialized receiver
    demultiplexing once per large message on the bottleneck node, so
    the count is ``max_p max(|out arcs ≥ M|, |in arcs ≥ M|)``.  On the
    regular All-to-All this is ``n-1`` when ``m ≥ M`` and 0 otherwise,
    recovering the paper's formula exactly.
    """
    eligible = med.arcs & (med.to_matrix() >= threshold)
    return int(max(eligible.sum(axis=1).max(), eligible.sum(axis=0).max()))


def alltoall_lower_bound(n_processes, msg_size, params: HockneyParams):
    """Proposition 1: ``(n-1)·α + (n-1)·m·β`` (vectorised over inputs).

    This is also the "traditional" contention-free model of Christara
    and Pjesivac-Grbovic (paper eq. 1), which the contention signature
    multiplies.
    """
    n = np.asarray(n_processes, dtype=np.float64)
    m = np.asarray(msg_size, dtype=np.float64)
    if np.any(n < 1):
        raise ValueError("n_processes must be >= 1")
    if np.any(m < 0):
        raise ValueError("msg_size must be >= 0")
    result = (n - 1.0) * (params.alpha + m * params.beta)
    if np.isscalar(n_processes) and np.isscalar(msg_size):
        return float(result)
    return result


def naive_model(n_processes, msg_size, params: HockneyParams):
    """Alias of Proposition 1 under its 'related work' name (eq. 1).

    ``T = (n-1)(α + βm)`` — the contention-blind baseline every
    evaluation figure compares against.
    """
    return alltoall_lower_bound(n_processes, msg_size, params)
