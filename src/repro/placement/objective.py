"""Predicted-contention objective for placement search.

No simulation: the objective scores a candidate rank→host permutation
from the paper's §5 message-exchange digraph (MED) of the *placed*
traffic matrix and the fabric's static routes.  For each directed link
the placed byte load is the sum of the host-pair traffic routed over
it; the score is the bottleneck transfer time

    max_l  load_l / capacity_l        (seconds)

plus a vanishingly small total-utilisation term that breaks ties toward
mappings that also keep aggregate network work low.  This is the
saturated fluid bound: the time the most loaded link alone needs to
drain, which is exactly the contention the fluid/vector engines
converge to when that link saturates.

Evaluation is vectorised: :class:`PlacementObjective` reads the
fabric's route table
(:meth:`~repro.simnet.topology.Topology.route_table`) for every host
pair once, after which each candidate costs one gather of the placed
matrix and one weighted ``np.bincount`` over the table's entries
(sub-millisecond at n=64), cheap enough for thousands of optimizer
iterations.  No (n², n_links) incidence matrix is held: at
the Gigabit Ethernet profile's n=216 it would be 162 MB.
"""

from __future__ import annotations

import numpy as np

from ..core.med import MED
from ..traffic import as_pattern
from .spec import PlacementSpec, as_placement

__all__ = [
    "route_incidence",
    "traffic_matrix",
    "placed_matrix",
    "PlacementObjective",
    "contention_objective",
]

#: Weight of the total-utilisation tiebreak relative to the bottleneck.
TIEBREAK = 1e-9


def _all_pair_routes(topology, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Route table of every host pair of ``range(n)``, row ``src*n + dst``
    (diagonal rows are empty)."""
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    return topology.route_table(src, dst)


def route_incidence(topology, n: int | None = None) -> np.ndarray:
    """(n², n_links) 0/1 matrix: row ``src*n + dst`` marks the links a
    flow from host *src* to host *dst* crosses (diagonal rows are zero).
    """
    n = topology.n_hosts if n is None else int(n)
    indptr, links = _all_pair_routes(topology, n)
    R = np.zeros((n * n, topology.n_links), dtype=np.float64)
    R[np.repeat(np.arange(n * n), np.diff(indptr)), links] = 1.0
    return R


def traffic_matrix(n_processes: int, msg_size: int, pattern=None, *, seed: int = 0) -> np.ndarray:
    """The (n, n) byte matrix of a workload, canonicalised through the MED.

    ``pattern=None`` is the regular All-to-All; otherwise anything
    :func:`~repro.traffic.spec.as_pattern` accepts (a
    :class:`~repro.traffic.spec.PatternSpec`, a name, a dict), whose
    matrix is taken at this coordinate.  Round-tripping through
    :class:`~repro.core.med.MED` zeroes the diagonal and integerises —
    the same digraph the signature models and the rank programs lower
    from.
    """
    pattern = as_pattern(pattern)
    if pattern is None:
        med = MED.alltoall(int(n_processes), int(msg_size))
    else:
        med = pattern.med(int(n_processes), int(msg_size), seed=seed)
    return med.to_matrix()


def placed_matrix(W: np.ndarray, perm) -> np.ndarray:
    """Host-pair byte matrix under a rank→host permutation.

    Rank *i* sits on host ``perm[i]``, so host pair (a, b) carries the
    bytes of rank pair (perm⁻¹(a), perm⁻¹(b)).
    """
    W = np.asarray(W)
    n = W.shape[0]
    inv = np.empty(n, dtype=np.intp)
    inv[np.asarray(perm, dtype=np.intp)] = np.arange(n)
    # Two takes: a fraction of the per-call cost of one np.ix_ index.
    return W.take(inv, axis=0).take(inv, axis=1)


class PlacementObjective:
    """Reusable evaluator: permutation → predicted contention (seconds).

    Binds one (topology, traffic matrix) pair; call it with any
    permutation of ``range(n)`` (or ``None`` for identity).
    """

    def __init__(self, topology, W) -> None:
        W = np.asarray(W, dtype=np.float64)
        n = W.shape[0]
        if W.shape != (n, n):
            raise ValueError(f"traffic matrix must be square, got {W.shape}")
        if n > topology.n_hosts:
            raise ValueError(
                f"traffic for {n} ranks exceeds {topology.n_hosts} hosts"
            )
        self.n = n
        self.W = W.copy()
        np.fill_diagonal(self.W, 0.0)
        # Route-table entries: the host pair (row ``src*n + dst``) each
        # entry belongs to, and the link it crosses.
        indptr, self._entry_links = _all_pair_routes(topology, n)
        self._entry_pairs = np.repeat(np.arange(n * n), np.diff(indptr))
        self.capacities = np.asarray(topology.capacities(), dtype=np.float64)

    def link_loads(self, perm=None) -> np.ndarray:
        """Per-link byte loads of the placed matrix.

        Each route-table entry adds its host pair's bytes to its link.
        """
        H = self.W if perm is None else placed_matrix(self.W, perm)
        loads = np.bincount(
            self._entry_links,
            weights=H.ravel()[self._entry_pairs],
            minlength=len(self.capacities),
        )
        # A table with no entries (one rank) bins to int64 zeros.
        return loads.astype(np.float64, copy=False)

    def __call__(self, perm=None) -> float:
        util = self.link_loads(perm) / self.capacities
        return float(util.max() + TIEBREAK * util.sum())


def contention_objective(topology, W, placement=None) -> float:
    """One-shot convenience: objective of *placement* on (topology, W).

    *placement* may be ``None``/identity, a permutation sequence, or
    anything :func:`~repro.placement.spec.as_placement` accepts (a
    :class:`~repro.placement.spec.PlacementSpec`, name, or dict).
    """
    evaluate = PlacementObjective(topology, W)
    if placement is None or isinstance(placement, (PlacementSpec, str, dict)):
        spec = as_placement(placement)
        perm = None if spec is None else spec.permutation(evaluate.n)
        return evaluate(perm)
    return evaluate(placement)
