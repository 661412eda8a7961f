"""Applying a placement: a route-remapping view over a topology.

Every consumer of routes reads them with ranks as host indices, through
one of two entry points: ``topology.route(src, dst)`` for one pair (the
fluid network, once per flow) or the CSR route table of many pairs
(:meth:`~repro.simnet.topology.Topology.route_table`: the vector
engine at setup, the placement objective and the MED contention
prediction).  So
remapping ranks onto hosts needs exactly one interception per entry
point: :class:`PlacedTopology` shares the base topology's hosts,
switches and links — capacities, link kinds and fingerprint probes are
untouched — answers ``route(src, dst)`` with ``base.route(perm[src],
perm[dst])``, and permutes the pair columns of a route table before
the base gathers it.

:func:`apply_placement` lifts this to a
:class:`~repro.clusters.profiles.ClusterProfile`: it returns a profile
whose ``topology_factory`` wraps every built fabric in the placed view,
which reaches both engines (``runtime()`` and ``topology()`` go through
the factory).  RNG streams are keyed by rank, not host, so a placed run
and an identity run replay the *same* jitter/skew draws — placements
change routes, nothing else.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import RoutingError
from ..simnet.topology import _host_pairs
from .spec import PlacementSpec, _validate_permutation, as_placement

__all__ = ["PlacedTopology", "apply_placement"]


class PlacedTopology:
    """Read-only view of *base* with ranks permuted onto hosts.

    Rank *i*'s traffic enters and leaves the network at host
    ``perm[i]``; everything structural (hosts, switches, links,
    capacities) is the base object itself, shared, not copied.
    """

    __slots__ = ("base", "perm", "_hosts")

    def __init__(self, base, perm) -> None:
        perm = _validate_permutation(perm)
        if len(perm) != base.n_hosts:
            raise ValueError(
                f"placement permutes {len(perm)} ranks but the fabric "
                f"has {base.n_hosts} hosts"
            )
        self.base = base
        self.perm = perm
        self._hosts = np.array(perm, dtype=np.int64)

    # -- structural delegation (shared with the base) -------------------

    @property
    def hosts(self):
        return self.base.hosts

    @property
    def switches(self):
        return self.base.switches

    @property
    def links(self):
        return self.base.links

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def n_hosts(self) -> int:
        return self.base.n_hosts

    @property
    def n_links(self) -> int:
        return self.base.n_links

    def capacities(self):
        return self.base.capacities()

    # -- the behavioural overrides: both route entry points --------------

    def route(self, src: int, dst: int):
        """Route of rank *src* → rank *dst* through their placed hosts."""
        n_ranks = len(self.perm)
        if not (0 <= src < n_ranks and 0 <= dst < n_ranks):
            raise RoutingError(f"no such host pair ({src}, {dst})")
        return self.base.route(self.perm[src], self.perm[dst])

    def route_table(self, src, dst):
        """Routes of the rank pairs ``(src[k], dst[k])`` as one CSR.

        The base gathers the routes of the placed host pairs; see
        :meth:`~repro.simnet.topology.Topology.route_table`.
        """
        src, dst = _host_pairs(src, dst, len(self._hosts))
        return self.base.route_table(self._hosts[src], self._hosts[dst])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlacedTopology({self.base!r}, perm={self.perm})"


def apply_placement(cluster, placement):
    """Profile with *placement* baked into its topology factory.

    *placement* is anything :func:`~repro.placement.spec.as_placement`
    accepts; identity (or ``None``) returns *cluster* unchanged — the
    exact object, so the no-placement path is bit-identical.  The
    permutation is produced per built size via
    :meth:`PlacementSpec.permutation`, so one placed profile serves a
    whole sweep of n values (explicit permutations still pin their n).
    """
    spec: PlacementSpec | None = as_placement(placement)
    if spec is None:
        return cluster
    base_factory = cluster.topology_factory

    def placed_factory(n_hosts: int) -> PlacedTopology:
        return PlacedTopology(base_factory(n_hosts), spec.permutation(n_hosts))

    return cluster.with_overrides(topology_factory=placed_factory)
