"""Cluster topologies and routing.

Provides the :class:`Topology` container plus builders for the two shapes
used in the paper's evaluation:

* :func:`single_switch` — all hosts on one switch (GdX Gigabit Ethernet,
  icluster2 Myrinet M3-E128), optionally with a finite backplane;
* :func:`edge_core` — several edge switches star-connected to one core
  switch (icluster2 Fast Ethernet: 5 FE edge switches, 20 nodes each,
  interconnected by a Gigabit core).

Routes are computed once at build time: :meth:`Topology.finalize` runs a
breadth-first search over the switch trunks and keeps, for every
reachable switch pair, the link segment between the two NICs.  The two
builders above also exercise that code path so custom topologies behave
identically.

A route has three parts: the source's TX link, the segment of its
(source switch, destination switch) pair, and the destination's RX
link.  :meth:`Topology.route` returns one route as a tuple;
:meth:`Topology.route_table` returns the routes of many host pairs as
one CSR, gathered array-wide from per-host link arrays and the padded
segment table, with no per-pair Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import RoutingError
from ..registry import register_topology
from .entities import Host, Link, LinkKind, Switch

__all__ = ["Topology", "single_switch", "edge_core"]


def _host_pairs(src, dst, n_hosts: int) -> tuple[np.ndarray, np.ndarray]:
    """*src* and *dst* as int64 columns of ids below *n_hosts*.

    Raises :class:`~repro.exceptions.RoutingError` naming the first pair
    with an id outside ``range(n_hosts)``, as :meth:`Topology.route`
    does.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError(
            f"host pairs need two 1-D columns of one length, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    if len(src) and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_hosts
    ):
        bad = (src < 0) | (src >= n_hosts) | (dst < 0) | (dst >= n_hosts)
        k = int(np.argmax(bad))
        raise RoutingError(f"no such host pair ({src[k]}, {dst[k]})")
    return src, dst


@dataclass
class Topology:
    """A routed cluster network.

    Use :func:`single_switch` / :func:`edge_core` (or build hosts,
    switches and links by hand) and then call :meth:`finalize` to compute
    routes.  After finalisation the fabric cannot grow: its builders
    raise :class:`~repro.exceptions.RoutingError`.
    """

    hosts: list[Host] = field(default_factory=list)
    switches: list[Switch] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    name: str = "topology"
    _segments: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )
    _finalized: bool = field(default=False, repr=False)
    _gather: tuple | None = field(default=None, repr=False, compare=False)

    # -- construction -------------------------------------------------

    def _check_open(self) -> None:
        if self._finalized:
            raise RoutingError(f"topology {self.name!r} is finalized; it cannot grow")

    def add_link(self, capacity: float, kind: LinkKind, name: str) -> int:
        """Append a directed link; returns its dense index."""
        self._check_open()
        link = Link(len(self.links), capacity, kind, name)
        self.links.append(link)
        return link.index

    def add_switch(self, *, backplane_capacity: float | None = None) -> int:
        """Append a switch, optionally with a finite backplane."""
        self._check_open()
        idx = len(self.switches)
        backplane = -1
        if backplane_capacity is not None:
            backplane = self.add_link(
                backplane_capacity, LinkKind.BACKPLANE, f"switch{idx}.backplane"
            )
        self.switches.append(Switch(idx, backplane_link=backplane))
        return idx

    def add_host(self, switch: int, *, nic_bandwidth: float) -> int:
        """Append a host cabled to *switch* with a full-duplex NIC."""
        if not 0 <= switch < len(self.switches):
            raise ValueError(f"no such switch: {switch}")
        idx = len(self.hosts)
        tx = self.add_link(nic_bandwidth, LinkKind.HOST_TX, f"host{idx}.tx")
        rx = self.add_link(nic_bandwidth, LinkKind.HOST_RX, f"host{idx}.rx")
        self.hosts.append(Host(idx, switch, tx_link=tx, rx_link=rx))
        return idx

    def connect_switches(self, a: int, b: int, *, bandwidth: float) -> None:
        """Cable two switches with a full-duplex trunk."""
        ab = self.add_link(bandwidth, LinkKind.TRUNK, f"trunk{a}->{b}")
        ba = self.add_link(bandwidth, LinkKind.TRUNK, f"trunk{b}->{a}")
        self.switches[a].trunks[b] = ab
        self.switches[b].trunks[a] = ba

    def finalize(self) -> "Topology":
        """Compute inter-switch routes; must be called before routing.

        A breadth-first search from every switch over the trunks finds
        the shortest switch paths.  Each switch visits its neighbours in
        the order their first trunk appears, walking the switches by
        index and each ``trunks`` mapping in cabling order, which fixes
        how ties break on cyclic fabrics.  A path's segment is the
        backplane of every switch on it (when finite) and the trunks
        between consecutive switches.
        """
        neighbours: list[dict[int, None]] = [{} for _ in self.switches]
        for sw in self.switches:
            for other in sw.trunks:
                neighbours[sw.index][other] = None
                neighbours[other][sw.index] = None
        backplane = [
            (sw.backplane_link,) if sw.has_backplane else ()
            for sw in self.switches
        ]
        segments: dict[tuple[int, int], tuple[int, ...]] = {}
        for src in range(len(self.switches)):
            reached = {src: backplane[src]}
            frontier = [src]
            for here in frontier:  # grows while it is walked: FIFO order
                trunks = self.switches[here].trunks
                for there in neighbours[here]:
                    if there not in reached and there in trunks:
                        reached[there] = (
                            *reached[here], trunks[there], *backplane[there]
                        )
                        frontier.append(there)
            for dst, segment in reached.items():
                segments[(src, dst)] = segment
        self._segments = segments
        self._gather = None
        self._finalized = True
        return self

    # -- queries -------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        """Number of hosts."""
        return len(self.hosts)

    @property
    def n_links(self) -> int:
        """Number of directed links (fluid solver dimension)."""
        return len(self.links)

    def capacities(self) -> list[float]:
        """Capacity vector aligned with link indices."""
        return [link.capacity for link in self.links]

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Directed link indices crossed by a flow from host *src* to *dst*.

        The route is: source TX NIC, then for every switch on the switch
        path its backplane (when finite), the trunks between consecutive
        switches, and finally the destination RX NIC.  Same-host routes
        are empty (local copies never enter the network).
        """
        if not self._finalized:
            raise RoutingError("topology not finalized; call finalize() first")
        n_hosts = len(self.hosts)
        if not (0 <= src < n_hosts and 0 <= dst < n_hosts):
            raise RoutingError(f"no such host pair ({src}, {dst})")
        if src == dst:
            return ()
        h_src, h_dst = self.hosts[src], self.hosts[dst]
        segment = self._segments.get((h_src.switch, h_dst.switch))
        if segment is None:
            raise RoutingError(
                f"no switch path between {h_src.name} and {h_dst.name}"
            )
        return (h_src.tx_link, *segment, h_dst.rx_link)

    def route_table(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """Routes of the host pairs ``(src[k], dst[k])`` as one CSR.

        Returns ``(indptr, links)``: row *k* is ``links[indptr[k]:indptr[k
        + 1]]`` and equals ``route(src[k], dst[k])``, with the same
        :class:`~repro.exceptions.RoutingError` for an id out of range
        or an unreachable switch pair.  One gather builds every row:
        lengths from the segment table, then the TX links, each segment
        column and the RX links, each written array-wide.  It takes pair
        columns, not all n² pairs, because that table would hold about
        400 MB at n=4096.
        """
        if not self._finalized:
            raise RoutingError("topology not finalized; call finalize() first")
        n_switches, host_switch, host_tx, host_rx, segment_lens, segment_links = (
            self._gather_sources()
        )
        src, dst = _host_pairs(src, dst, len(host_tx))
        cell = host_switch[src] * n_switches + host_switch[dst]
        segment_len = segment_lens[cell]
        remote = src != dst
        missing = remote & (segment_len < 0)
        if missing.any():
            k = int(np.argmax(missing))
            raise RoutingError(
                f"no switch path between {self.hosts[src[k]].name} and "
                f"{self.hosts[dst[k]].name}"
            )
        lengths = np.where(remote, segment_len + 2, 0)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        links = np.empty(int(indptr[-1]), dtype=np.int64)
        rows = np.flatnonzero(remote)
        links[indptr[rows]] = host_tx[src[rows]]
        links[indptr[rows + 1] - 1] = host_rx[dst[rows]]
        for column in range(segment_links.shape[1]):
            rows = rows[segment_len[rows] > column]
            links[indptr[rows] + 1 + column] = segment_links[cell[rows], column]
        return indptr, links

    def _gather_sources(self) -> tuple:
        """The switch count S and the arrays :meth:`route_table` gathers from.

        Per host its switch, TX link and RX link; per switch pair (row
        ``a * S + b``) its segment length (-1 when unreachable) and
        links, padded to one width.  Built on the first call after
        :meth:`finalize`, so a fabric that is only fingerprinted or
        routed pair by pair never pays for them.
        """
        if self._gather is None:
            n_switches = len(self.switches)
            width = max(map(len, self._segments.values()), default=0)
            segment_lens = np.full(n_switches * n_switches, -1, dtype=np.int64)
            segment_links = np.zeros(
                (n_switches * n_switches, width), dtype=np.int64
            )
            for (a, b), segment in self._segments.items():
                segment_lens[a * n_switches + b] = len(segment)
                segment_links[a * n_switches + b, : len(segment)] = segment
            host_columns = np.array(
                [(h.switch, h.tx_link, h.rx_link) for h in self.hosts],
                dtype=np.int64,
            ).reshape(-1, 3)
            self._gather = (
                n_switches, *host_columns.T.copy(), segment_lens, segment_links
            )
        return self._gather

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, hosts={len(self.hosts)}, "
            f"switches={len(self.switches)}, links={len(self.links)})"
        )


@register_topology("single-switch", aliases=("star",))
def single_switch(
    n_hosts: int,
    *,
    nic_bandwidth: float,
    backplane_capacity: float | None = None,
    name: str = "single-switch",
) -> Topology:
    """All *n_hosts* on one switch (GdX GigE / icluster2 Myrinet shape)."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    topo = Topology(name=name)
    sw = topo.add_switch(backplane_capacity=backplane_capacity)
    for _ in range(n_hosts):
        topo.add_host(sw, nic_bandwidth=nic_bandwidth)
    return topo.finalize()


@register_topology("edge-core", aliases=("tree",))
def edge_core(
    n_hosts: int,
    *,
    nic_bandwidth: float,
    hosts_per_edge: int,
    trunk_bandwidth: float,
    edge_backplane: float | None = None,
    core_backplane: float | None = None,
    name: str = "edge-core",
) -> Topology:
    """Edge switches star-connected to a core (icluster2 FE shape).

    Hosts fill edge switches in blocks of *hosts_per_edge* (matching
    "5 Fast Ethernet switches - 20 nodes per switch - interconnected by
    1 Gigabit Ethernet switch").
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if hosts_per_edge < 1:
        raise ValueError("hosts_per_edge must be >= 1")
    topo = Topology(name=name)
    core = topo.add_switch(backplane_capacity=core_backplane)
    n_edges = -(-n_hosts // hosts_per_edge)  # ceil division
    for _ in range(n_edges):
        edge = topo.add_switch(backplane_capacity=edge_backplane)
        topo.connect_switches(edge, core, bandwidth=trunk_bandwidth)
    for h in range(n_hosts):
        edge_switch = 1 + h // hosts_per_edge
        topo.add_host(edge_switch, nic_bandwidth=nic_bandwidth)
    return topo.finalize()
