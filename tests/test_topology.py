"""Unit tests for topologies, routing and entities."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.exceptions import RoutingError
from repro.placement import PlacedTopology
from repro.simnet.entities import Link, LinkKind
from repro.simnet.topology import Topology, edge_core, single_switch


class TestEntities:
    def test_link_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            Link(0, 0.0, LinkKind.TRUNK, "bad")

    def test_link_is_frozen(self):
        link = Link(0, 10.0, LinkKind.HOST_TX, "l")
        with pytest.raises(AttributeError):
            link.capacity = 5.0


class TestSingleSwitch:
    def test_counts(self):
        topo = single_switch(4, nic_bandwidth=1e8)
        assert topo.n_hosts == 4
        assert len(topo.switches) == 1
        # 2 NIC directions per host, no backplane.
        assert topo.n_links == 8

    def test_backplane_adds_shared_link(self):
        topo = single_switch(4, nic_bandwidth=1e8, backplane_capacity=1e9)
        assert topo.n_links == 9
        assert topo.switches[0].has_backplane

    def test_route_without_backplane(self):
        topo = single_switch(3, nic_bandwidth=1e8)
        route = topo.route(0, 2)
        assert route == (topo.hosts[0].tx_link, topo.hosts[2].rx_link)

    def test_route_with_backplane(self):
        topo = single_switch(3, nic_bandwidth=1e8, backplane_capacity=1e9)
        route = topo.route(0, 2)
        assert len(route) == 3
        assert topo.links[route[1]].kind is LinkKind.BACKPLANE

    def test_self_route_is_empty(self):
        topo = single_switch(3, nic_bandwidth=1e8)
        assert topo.route(1, 1) == ()

    # Negative ids must not wrap to the last hosts, and the same-host
    # shortcut must not answer for a host that is absent.
    @pytest.mark.parametrize(
        "src, dst", [(0, 99), (-1, 0), (0, -3), (-1, -1), (3, 3)]
    )
    def test_invalid_host_raises(self, src, dst):
        topo = single_switch(3, nic_bandwidth=1e8)
        with pytest.raises(RoutingError, match="no such host pair"):
            topo.route(src, dst)

    def test_capacities_align_with_links(self):
        topo = single_switch(2, nic_bandwidth=5e7)
        caps = topo.capacities()
        assert len(caps) == topo.n_links
        assert all(c == 5e7 for c in caps)

    def test_needs_at_least_one_host(self):
        with pytest.raises(ValueError):
            single_switch(0, nic_bandwidth=1e8)


class TestEdgeCore:
    def test_host_placement_in_blocks(self):
        topo = edge_core(
            24, nic_bandwidth=12.5e6, hosts_per_edge=20,
            trunk_bandwidth=125e6,
        )
        # 24 hosts, 20 per edge -> 2 edge switches + core.
        assert len(topo.switches) == 3
        assert topo.hosts[0].switch == 1
        assert topo.hosts[19].switch == 1
        assert topo.hosts[20].switch == 2

    def test_same_edge_route_stays_local(self):
        topo = edge_core(
            24, nic_bandwidth=12.5e6, hosts_per_edge=20,
            trunk_bandwidth=125e6,
        )
        route = topo.route(0, 1)
        kinds = [topo.links[l].kind for l in route]
        assert LinkKind.TRUNK not in kinds

    def test_cross_edge_route_uses_two_trunks(self):
        topo = edge_core(
            24, nic_bandwidth=12.5e6, hosts_per_edge=20,
            trunk_bandwidth=125e6,
        )
        route = topo.route(0, 23)
        kinds = [topo.links[l].kind for l in route]
        assert kinds.count(LinkKind.TRUNK) == 2

    def test_core_backplane_on_cross_edge_path(self):
        topo = edge_core(
            24, nic_bandwidth=12.5e6, hosts_per_edge=20,
            trunk_bandwidth=125e6, core_backplane=2e9,
        )
        route = topo.route(0, 23)
        kinds = [topo.links[l].kind for l in route]
        assert LinkKind.BACKPLANE in kinds

    def test_route_symmetry_of_length(self):
        topo = edge_core(
            30, nic_bandwidth=12.5e6, hosts_per_edge=10,
            trunk_bandwidth=125e6,
        )
        assert len(topo.route(0, 25)) == len(topo.route(25, 0))


class TestManualConstruction:
    def test_unfinalized_route_raises(self):
        topo = Topology()
        sw = topo.add_switch()
        topo.add_host(sw, nic_bandwidth=1e6)
        topo.add_host(sw, nic_bandwidth=1e6)
        with pytest.raises(RoutingError, match="finalize"):
            topo.route(0, 1)

    def test_disconnected_switches_raise_on_route(self):
        topo = Topology()
        a = topo.add_switch()
        b = topo.add_switch()
        topo.add_host(a, nic_bandwidth=1e6)
        topo.add_host(b, nic_bandwidth=1e6)
        topo.finalize()
        with pytest.raises(RoutingError, match="no switch path"):
            topo.route(0, 1)

    def test_adding_host_to_missing_switch_raises(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_host(0, nic_bandwidth=1e6)

    def test_multi_hop_switch_chain(self):
        topo = Topology()
        switches = [topo.add_switch() for _ in range(3)]
        topo.connect_switches(switches[0], switches[1], bandwidth=1e9)
        topo.connect_switches(switches[1], switches[2], bandwidth=1e9)
        topo.add_host(switches[0], nic_bandwidth=1e8)
        topo.add_host(switches[2], nic_bandwidth=1e8)
        topo.finalize()
        route = topo.route(0, 1)
        kinds = [topo.links[l].kind for l in route]
        assert kinds.count(LinkKind.TRUNK) == 2


def _ring(cables) -> Topology:
    """Six switches cabled in *cables* order, host *i* on switch *i*."""
    topo = Topology()
    for _ in range(6):
        topo.add_switch()
    for a, b in cables:
        topo.connect_switches(a, b, bandwidth=1e9)
    for sw in range(6):
        topo.add_host(sw, nic_bandwidth=1e8)
    return topo.finalize()


def _host_route(topo, switch_path) -> tuple[int, ...]:
    """The route between the hosts on the ends of *switch_path*."""
    trunks = [
        topo.switches[a].trunks[b] for a, b in zip(switch_path, switch_path[1:])
    ]
    src, dst = switch_path[0], switch_path[-1]
    return (topo.hosts[src].tx_link, *trunks, topo.hosts[dst].rx_link)


class TestSwitchPaths:
    RING = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]

    def test_ring_ties_follow_cabling_order(self):
        # Both ways round the ring are three hops from switch 0 to 3.
        # Each switch visits its neighbours in the order their first
        # trunk appears (switches by index, trunks by cabling order).
        forward = _ring(self.RING)
        reverse = _ring(self.RING[::-1])
        assert forward.route(0, 3) == _host_route(forward, (0, 1, 2, 3))
        assert reverse.route(0, 3) == _host_route(reverse, (0, 5, 4, 3))
        for topo in (forward, reverse):
            assert topo.route(3, 0) == _host_route(topo, (3, 2, 1, 0))

    @given(data=st.data())
    def test_routes_are_shortest_cabled_paths(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8), label="switches")
        switch = st.integers(min_value=0, max_value=n - 1)
        cable = st.tuples(switch, switch).filter(lambda c: c[0] != c[1])
        cables = data.draw(
            st.lists(cable, unique_by=frozenset, max_size=2 * n)
            if n > 1 else st.just([]),
            label="cables",
        )
        backplanes = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="backplanes"
        )
        topo = Topology()
        for finite in backplanes:
            topo.add_switch(backplane_capacity=1e9 if finite else None)
        for a, b in cables:
            topo.connect_switches(a, b, bandwidth=1e9)
        for sw in range(n):
            topo.add_host(sw, nic_bandwidth=1e8)
        topo.finalize()

        # Floyd–Warshall hop counts over the cabled switch graph.
        inf = float("inf")
        hops = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for a, b in cables:
            hops[a][b] = hops[b][a] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    hops[i][j] = min(hops[i][j], hops[i][k] + hops[k][j])

        trunk_ends = {
            link: (sw.index, other)
            for sw in topo.switches
            for other, link in sw.trunks.items()
        }
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                if hops[src][dst] == inf:
                    with pytest.raises(RoutingError, match="no switch path"):
                        topo.route(src, dst)
                    continue
                route = topo.route(src, dst)
                assert route[0] == topo.hosts[src].tx_link
                assert route[-1] == topo.hosts[dst].rx_link
                # Walk the middle: each switch's backplane (when
                # finite), then a cabled trunk out of it.
                here, n_trunks = src, 0
                links = list(route[1:-1])
                while True:
                    switch = topo.switches[here]
                    if switch.has_backplane:
                        assert links.pop(0) == switch.backplane_link
                    if not links:
                        break
                    ends = trunk_ends[links.pop(0)]
                    assert ends[0] == here
                    here = ends[1]
                    n_trunks += 1
                assert here == dst
                assert n_trunks == hops[src][dst]


def _rows(indptr, links) -> list[tuple[int, ...]]:
    return [
        tuple(links[indptr[k]:indptr[k + 1]].tolist())
        for k in range(len(indptr) - 1)
    ]


def _routes_or_none(view, src, dst) -> list:
    """``view.route`` of each pair, or None where it raises."""
    routes = []
    for s, d in zip(src.tolist(), dst.tolist()):
        try:
            routes.append(view.route(s, d))
        except RoutingError as error:
            assert "no switch path" in str(error)
            routes.append(None)
    return routes


class TestRouteTable:
    @given(data=st.data())
    def test_rows_equal_route_on_every_view(self, draw_fabric, data):
        topo = draw_fabric(data)
        n = topo.n_hosts
        placed = PlacedTopology(
            topo, data.draw(st.permutations(range(n)), label="perm")
        )
        src, dst = np.divmod(np.arange(n * n), n)
        for view in (topo, placed):
            routes = _routes_or_none(view, src, dst)
            routed = np.array([r is not None for r in routes])
            if not routed.all():
                with pytest.raises(RoutingError, match="no switch path"):
                    view.route_table(src, dst)
            # Every routable pair, in a random order with repeats.
            picks = data.draw(
                st.lists(st.sampled_from(np.flatnonzero(routed).tolist())),
                label="pairs",
            )
            picks = np.array(picks, dtype=np.int64)
            indptr, links = view.route_table(src[picks], dst[picks])
            assert indptr.dtype == links.dtype == np.int64
            assert indptr[0] == 0 and len(indptr) == len(picks) + 1
            assert _rows(indptr, links) == [routes[k] for k in picks]

    @given(data=st.data())
    def test_bad_ids_raise_on_both_paths(self, draw_fabric, data):
        topo = draw_fabric(data, connected=True)
        n = topo.n_hosts
        placed = PlacedTopology(
            topo, data.draw(st.permutations(range(n)), label="perm")
        )
        ids = st.integers(min_value=-3, max_value=n + 2)
        bad = data.draw(
            st.tuples(ids, ids).filter(
                lambda p: not (0 <= p[0] < n and 0 <= p[1] < n)
            ),
            label="bad pair",
        )
        good = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            label="good pairs",
        )
        at = data.draw(st.integers(0, len(good)), label="position")
        pairs = good[:at] + [bad] + good[at:]
        src, dst = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        for view in (topo, placed):
            with pytest.raises(RoutingError, match="no such host pair"):
                view.route(*bad)
            with pytest.raises(RoutingError, match="no such host pair"):
                view.route_table(src, dst)
            assert _rows(*view.route_table(src[:at], dst[:at])) == [
                view.route(s, d) for s, d in good[:at]
            ]

    def test_unfinalized_table_raises(self):
        topo = Topology()
        sw = topo.add_switch()
        topo.add_host(sw, nic_bandwidth=1e6)
        with pytest.raises(RoutingError, match="finalize"):
            topo.route_table([0], [0])

    def test_columns_of_unequal_shape_raise(self):
        topo = single_switch(3, nic_bandwidth=1e8)
        with pytest.raises(ValueError, match="1-D columns"):
            topo.route_table([0, 1], [1])

    def test_a_finalized_fabric_cannot_grow(self):
        topo = Topology()
        a, b = topo.add_switch(), topo.add_switch(backplane_capacity=5e9)
        topo.connect_switches(a, b, bandwidth=1e9)
        for switch in (a, b, b):
            topo.add_host(switch, nic_bandwidth=1e8)
        topo.finalize()
        n = topo.n_hosts
        src, dst = np.divmod(np.arange(n * n), n)
        table = _rows(*topo.route_table(src, dst))
        for grow in (
            lambda: topo.add_link(1e9, LinkKind.TRUNK, "spare"),
            lambda: topo.add_switch(),
            lambda: topo.add_switch(backplane_capacity=5e9),
            lambda: topo.add_host(a, nic_bandwidth=1e8),
            lambda: topo.connect_switches(a, b, bandwidth=1e9),
        ):
            with pytest.raises(RoutingError, match="finalized"):
                grow()
        assert (n, len(topo.switches), topo.n_links) == (3, 2, 9)
        assert _rows(*topo.route_table(src, dst)) == table
        assert table == _routes_or_none(topo, src, dst)

    def test_empty_columns_give_an_empty_table(self):
        topo = single_switch(3, nic_bandwidth=1e8)
        indptr, links = topo.route_table([], [])
        assert indptr.tolist() == [0] and links.size == 0


def test_cli_import_leaves_networkx_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    script = "import sys, repro.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    assert result.stdout.strip() == "False"
