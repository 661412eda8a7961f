"""The rank-placement subsystem: specs, strategies, placed topologies,
the MED contention objective, optimizers, cache-key identity, the sweep
axis / row columns, typed readback, and the CLI surface."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import api
from repro.analysis.io import read_sweep_rows, write_csv
from repro.cli import main
from repro.clusters.profiles import get_cluster
from repro.core.med import MED
from repro.exceptions import MeasurementError, ScenarioError
from repro.measure.alltoall import measure_alltoall
from repro.models import samples_from_rows
from repro.obs import predicted_concurrency
from repro.placement import (
    PlacedTopology,
    PlacementObjective,
    PlacementSpec,
    apply_placement,
    as_placement,
    contention_objective,
    optimize_placement,
    placed_matrix,
    route_incidence,
    traffic_matrix,
)
from repro.registry import ALGORITHMS, PLACEMENT_OPTIMIZERS, PLACEMENTS
from repro.scenario import ScenarioSpec
from repro.simmpi.lowering import lower_program
from repro.simnet.topology import Topology, edge_core, single_switch
from repro.simnet.vector import VectorSimulator
from repro.sweeps.cache import point_key, profile_fingerprint
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepPoint, SweepSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The PR 2 stress fabric: 4-node edges behind oversubscribed trunks.
EDGE_CORE_KW = dict(
    nic_bandwidth=117.6e6, hosts_per_edge=4,
    trunk_bandwidth=120e6, core_backplane=2000e6,
)

#: Cross-switch shift: every identity flow crosses two trunks.
SHIFT = {"name": "shift", "params": {"offset": 4}}


def _stress_cluster():
    return get_cluster("gigabit-ethernet").with_overrides(
        topology_factory=lambda n: edge_core(n, **EDGE_CORE_KW),
    )


class TestPlacementSpec:
    def test_registries_expose_builtins(self):
        assert api.list_placements() == [
            "block", "identity", "random", "round-robin",
        ]
        assert api.list_placement_optimizers() == ["anneal", "greedy"]

    def test_param_canonicalization(self):
        a = PlacementSpec("round-robin", {"groups": 4})
        b = PlacementSpec("rr", {"groups": 4.0})
        assert a == b
        assert a.key() == "round-robin(groups=4)"
        assert hash(a) == hash(b)

    def test_param_order_is_canonical(self):
        a = PlacementSpec("block", {"size": 4, "shift": 2})
        b = PlacementSpec("block", {"shift": 2, "size": 4})
        assert a == b and a.key() == "block(shift=2,size=4)"

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown placement"):
            PlacementSpec("nosuch")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ScenarioError, match="unknown param"):
            PlacementSpec("round-robin", {"grops": 4})

    def test_missing_param_rejected_at_construction(self):
        with pytest.raises(ScenarioError) as excinfo:
            PlacementSpec("round-robin")
        assert str(excinfo.value) == (
            "missing param(s) ['groups'] for placement 'round-robin'"
        )

    def test_dict_round_trip(self):
        spec = PlacementSpec("block", {"size": 4, "shift": 2})
        assert PlacementSpec.from_dict(spec.to_dict()) == spec

    def test_explicit_perm_round_trip(self):
        spec = PlacementSpec(perm=(2, 0, 1))
        assert spec.is_explicit and spec.name == "explicit"
        assert spec.key() == "explicit[2,0,1]"
        assert PlacementSpec.from_dict(spec.to_dict()) == spec
        assert spec.permutation(3) == (2, 0, 1)

    def test_explicit_perm_validated(self):
        with pytest.raises(ScenarioError, match="rearrange"):
            PlacementSpec(perm=(0, 0, 2))
        with pytest.raises(ScenarioError, match="n=3"):
            PlacementSpec(perm=(2, 0, 1)).permutation(4)

    def test_as_placement_collapses_identity(self):
        assert as_placement(None) is None
        assert as_placement("identity") is None
        assert as_placement("none") is None
        assert as_placement({"name": "identity"}) is None
        assert as_placement([0, 1, 2, 3]) is None  # explicit identity
        assert as_placement("random") is not None
        assert as_placement([1, 0]).is_explicit

    def test_divisibility_failures_surface_as_scenario_errors(self):
        with pytest.raises(ScenarioError, match="divide"):
            PlacementSpec("round-robin", {"groups": 3}).permutation(8)
        with pytest.raises(ScenarioError, match="divide"):
            PlacementSpec("block", {"size": 3}).permutation(8)


class TestStrategies:
    @pytest.mark.parametrize("name,params,n", [
        ("block", {"size": 4}, 16),
        ("block", {"size": 4, "shift": 2}, 16),
        ("round-robin", {"groups": 4}, 16),
        ("random", {}, 16),
        ("random", {"seed": 7}, 16),
    ])
    def test_strategies_emit_permutations(self, name, params, n):
        perm = PlacementSpec(name, params).permutation(n)
        assert sorted(perm) == list(range(n))

    def test_round_robin_groups_shift_cycles_onto_one_edge(self):
        # Shift cycles {i, i+4, i+8, i+12} map into one 4-host block.
        perm = PlacementSpec("round-robin", {"groups": 4}).permutation(16)
        for rank in range(16):
            assert perm[rank] // 4 == perm[(rank + 4) % 16] // 4

    def test_random_is_seed_deterministic(self):
        a = PLACEMENTS.get("random")(16, seed=3)
        b = PLACEMENTS.get("random")(16, seed=3)
        c = PLACEMENTS.get("random")(16, seed=4)
        assert tuple(a) == tuple(b)
        assert tuple(a) != tuple(c)

    def test_aliases(self):
        assert PLACEMENTS.canonical("rr") == "round-robin"
        assert PLACEMENTS.canonical("cyclic") == "round-robin"
        assert PLACEMENTS.canonical("shuffle") == "random"
        assert PLACEMENT_OPTIMIZERS.canonical("sa") == "anneal"
        assert PLACEMENT_OPTIMIZERS.canonical("swap") == "greedy"


class TestPlacedTopology:
    def test_routes_remap_through_the_permutation(self):
        base = edge_core(8, **EDGE_CORE_KW)
        perm = (4, 5, 6, 7, 0, 1, 2, 3)
        placed = PlacedTopology(base, perm)
        assert placed.route(0, 1) == base.route(4, 5)
        assert placed.route(3, 4) == base.route(7, 0)
        assert placed.route(2, 2) == base.route(6, 6)

    def test_structure_is_delegated_not_copied(self):
        base = edge_core(8, **EDGE_CORE_KW)
        placed = PlacedTopology(base, tuple(range(7, -1, -1)))
        assert placed.n_hosts == base.n_hosts
        assert placed.n_links == base.n_links
        assert placed.links is base.links
        np.testing.assert_array_equal(placed.capacities(), base.capacities())

    @pytest.mark.parametrize("n_hosts, perm, match", [
        (8, (1, 0), "8 hosts"),
        (4, (0, 0, 1, 2), "exactly once each"),
    ], ids=["short", "repeated-host"])
    def test_non_permutation_rejected(self, n_hosts, perm, match):
        with pytest.raises(ValueError, match=match):
            PlacedTopology(edge_core(n_hosts, **EDGE_CORE_KW), perm)

    def test_apply_identity_returns_profile_unchanged(self):
        cluster = _stress_cluster()
        assert apply_placement(cluster, None) is cluster
        assert apply_placement(cluster, "identity") is cluster

    def test_apply_placement_wraps_factory(self):
        cluster = _stress_cluster()
        placed = apply_placement(cluster, {"name": "round-robin",
                                           "params": {"groups": 4}})
        topo = placed.topology(16)
        assert isinstance(topo, PlacedTopology)
        assert sorted(topo.perm) == list(range(16))


class TestObjective:
    def test_single_switch_is_placement_invariant(self):
        topo = single_switch(8, nic_bandwidth=1e8)
        W = traffic_matrix(8, 65536, SHIFT)
        base = contention_objective(topo, W)
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = tuple(rng.permutation(8))
            assert contention_objective(topo, W, perm) == pytest.approx(base)

    def test_uniform_alltoall_is_permutation_invariant(self):
        topo = edge_core(16, **EDGE_CORE_KW)
        W = traffic_matrix(16, 65536)
        base = contention_objective(topo, W)
        perm = tuple(np.random.default_rng(1).permutation(16))
        assert contention_objective(topo, W, perm) == pytest.approx(base)

    @given(data=st.data())
    def test_placed_matrix_conserves_the_med(self, data):
        # A permutation relabels hosts; it must conserve total bytes, the
        # multisets of per-endpoint sums and the arcs (the MED itself).
        n = data.draw(st.integers(1, 16), label="n")
        W = data.draw(
            arrays(np.int64, (n, n), elements=st.integers(0, 1 << 20), fill=st.just(0)),
            label="W",
        )
        p = np.array(data.draw(st.permutations(range(n)), label="p"), dtype=np.intp)
        q = np.array(data.draw(st.permutations(range(n)), label="q"), dtype=np.intp)
        H = placed_matrix(W, p)
        assert H.sum() == W.sum()
        assert sorted(H.sum(axis=1)) == sorted(W.sum(axis=1))
        assert sorted(H.sum(axis=0)) == sorted(W.sum(axis=0))
        # Rank pair (i, j) traffic lands on host pair (p[i], p[j]), and
        # nothing else does.
        src, dst = np.nonzero(W)
        np.testing.assert_array_equal(H[p[src], p[dst]], W[src, dst])
        assert np.count_nonzero(H) == len(src)
        med, placed = MED.from_matrix(W), MED.from_matrix(H)
        np.testing.assert_array_equal(placed.arcs[np.ix_(p, p)], med.arcs)
        # Placing twice is placing once by the composition; the inverse
        # permutation undoes a placement.
        np.testing.assert_array_equal(placed_matrix(H, q), placed_matrix(W, q[p]))
        np.testing.assert_array_equal(placed_matrix(H, np.argsort(p)), W)

    def test_round_robin_beats_identity_on_cross_switch_shift(self):
        topo = edge_core(16, **EDGE_CORE_KW)
        W = traffic_matrix(16, 524288, SHIFT)
        identity = contention_objective(topo, W)
        placed = contention_objective(
            topo, W, {"name": "round-robin", "params": {"groups": 4}}
        )
        # Trunk-bound (4 x 512 kB over 120 MB/s) vs NIC-bound.
        assert identity == pytest.approx(4 * 524288 / 120e6, rel=1e-3)
        assert placed == pytest.approx(524288 / 117.6e6, rel=1e-3)


def _dense_incidence(topology, n: int) -> np.ndarray:
    """The (n², links) route-incidence matrix, one ``route`` per pair."""
    R = np.zeros((n * n, topology.n_links), dtype=np.float64)
    for src in range(n):
        for dst in range(n):
            if src != dst:
                R[src * n + dst, list(topology.route(src, dst))] = 1.0
    return R


def _matrix(data, n: int, high: int) -> np.ndarray:
    entries = data.draw(
        st.lists(st.integers(0, high), min_size=n * n, max_size=n * n),
        label="matrix",
    )
    return np.array(entries, dtype=np.int64).reshape(n, n)


class TestRouteTableConsumers:
    """The placement objective, the MED contention prediction and the
    vector engine read routes from the route table, as the per-pair
    ``route`` loops they replace would have."""

    @given(data=st.data())
    def test_link_loads_equal_the_dense_matvec(self, draw_fabric, data):
        topo = draw_fabric(data, connected=True)
        n = data.draw(st.integers(1, topo.n_hosts), label="ranks")
        # Integer byte counts whose sums stay exact in float64.
        W = _matrix(data, n, 2**40)
        perm = data.draw(st.permutations(range(n)), label="perm")
        R = _dense_incidence(topo, n)
        np.testing.assert_array_equal(route_incidence(topo, n), R)
        objective = PlacementObjective(topo, W)
        for candidate in (None, perm):
            H = objective.W if candidate is None else placed_matrix(
                objective.W, candidate
            )
            expected = H.ravel() @ R
            loads = objective.link_loads(candidate)
            assert loads.dtype == expected.dtype
            assert loads.tobytes() == expected.tobytes()
            util = expected / objective.capacities
            assert objective(candidate) == float(
                util.max() + 1e-9 * util.sum()
            )

    @given(data=st.data())
    def test_predicted_concurrency_counts_each_arc(self, draw_fabric, data):
        topo = draw_fabric(data, connected=True)
        n = topo.n_hosts
        placed = PlacedTopology(
            topo, data.draw(st.permutations(range(n)), label="perm")
        )
        matrix = _matrix(data, n, 3)
        for view in (topo, placed):
            expected = np.zeros(topo.n_links, dtype=np.int64)
            for src, dst in zip(*np.nonzero(matrix)):
                if src != dst:
                    for link in view.route(int(src), int(dst)):
                        expected[link] += 1
            counts = predicted_concurrency(view, matrix)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, expected)

    @given(data=st.data())
    def test_vector_attach_never_calls_route(self, draw_fabric, data):
        topo = draw_fabric(data, connected=True)
        n = topo.n_hosts
        placed = PlacedTopology(
            topo, data.draw(st.permutations(range(n)), label="perm")
        )
        transport = get_cluster("gigabit-ethernet").transport
        lowered = lower_program(ALGORITHMS.get("direct"), n, 65536)

        def run(view):
            sim = VectorSimulator(view, transport, nprocs=n, seed=0)
            return sim.run(lowered)

        expected = [run(topo), run(placed)]

        def refuse(self, src, dst):
            raise AssertionError("per-pair route lookup")

        with mock.patch.object(Topology, "route", refuse), \
                mock.patch.object(PlacedTopology, "route", refuse):
            assert [run(topo), run(placed)] == expected


class TestOptimizers:
    def test_greedy_finds_the_nic_bound_optimum(self):
        result = optimize_placement(
            _stress_cluster(), 16, 524288, pattern=SHIFT, seed=0
        )
        assert result.objective < result.identity_objective
        assert result.ratio == pytest.approx(3.92, abs=0.01)
        assert result.evaluations > 0
        assert result.placement.is_explicit

    def test_bad_params_fail_before_the_fabric_is_built(self):
        class Unbuilt:
            def topology(self, n):
                raise AssertionError("fabric built before the params check")

        with pytest.raises(ScenarioError) as excinfo:
            optimize_placement(Unbuilt(), 8, 4096, params={"iterations": 10})
        assert str(excinfo.value) == (
            "unknown param(s) ['iterations'] for placement optimizer "
            "'greedy'; known: max_rounds"
        )

    @pytest.mark.parametrize("n, m, pattern, message", [
        (1, 1024, None,
         "a placement needs n >= 2 processes and m >= 1 byte, got n=1, m=1024"),
        (4, 0, None,
         "a placement needs n >= 2 processes and m >= 1 byte, got n=4, m=0"),
        (4, 1024, SHIFT,
         "pattern shift(offset=4) yields no network traffic at (n=4, m=1024, "
         "seed=0); nothing to place"),
    ], ids=["n1", "m0", "no-traffic"])
    def test_degenerate_workloads_fail_before_the_search(self, n, m, pattern, message):
        # Every mapping of no traffic scores 0, so there is no ratio to
        # report: the search refuses it instead of dividing by zero.
        with mock.patch.object(PlacementObjective, "__init__", side_effect=AssertionError):
            with pytest.raises(ValueError) as excinfo:
                optimize_placement(get_cluster("gigabit-ethernet"), n, m, pattern=pattern)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("optimizer", ["greedy", "anneal"])
    def test_optimized_never_exceeds_identity(self, optimizer):
        for n in (8, 16):
            result = optimize_placement(
                _stress_cluster(), n, 131072,
                pattern=SHIFT, optimizer=optimizer, seed=1,
            )
            assert result.objective <= result.identity_objective

    @pytest.mark.parametrize("optimizer", ["greedy", "anneal"])
    def test_same_seed_same_result_in_process(self, optimizer):
        runs = [
            optimize_placement(
                _stress_cluster(), 16, 131072,
                pattern=SHIFT, optimizer=optimizer, seed=5,
            )
            for _ in range(2)
        ]
        assert runs[0].permutation == runs[1].permutation
        assert runs[0].objective == runs[1].objective
        assert runs[0].evaluations == runs[1].evaluations

    def test_anneal_is_deterministic_across_processes(self):
        # PYTHONHASHSEED varies between interpreter runs; the search
        # (rng streams, param canonicalisation) must not notice.
        code = (
            "from repro.clusters.profiles import get_cluster\n"
            "from repro.simnet.topology import edge_core\n"
            "from repro.placement import optimize_placement\n"
            f"kw = dict({', '.join(f'{k}={v}' for k, v in EDGE_CORE_KW.items())})\n"
            "cluster = get_cluster('gigabit-ethernet').with_overrides(\n"
            "    topology_factory=lambda n: edge_core(n, **kw))\n"
            "r = optimize_placement(cluster, 16, 131072,\n"
            "    pattern={'name': 'shift', 'params': {'offset': 4}},\n"
            "    optimizer='anneal', seed=5)\n"
            "print(list(r.permutation), r.evaluations)\n"
        )
        outs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.add(proc.stdout.strip())
        assert len(outs) == 1
        local = optimize_placement(
            _stress_cluster(), 16, 131072,
            pattern=SHIFT, optimizer="anneal", seed=5,
        )
        assert outs.pop() == f"{list(local.permutation)} {local.evaluations}"

    def test_scenario_entry_point(self):
        scenario = api.Scenario.from_file(
            "examples/scenarios/placed_edge_core_stress.toml"
        )
        result = scenario.optimize_placement()
        assert result.ratio == pytest.approx(3.92, abs=0.01)


class TestCacheIdentity:
    """Identity placement must be byte-invisible; non-identity must miss."""

    #: Pinned in tests/test_engines.py since PR 5; placement threading
    #: must not move it.
    EXPECTED_GIGE = (
        "85b64bc1fb89a639f7835b46e012923c2e3e06f008fb844be02128ec9827ac94"
    )

    def _point(self, **overrides):
        kwargs = dict(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        kwargs.update(overrides)
        return SweepPoint(**kwargs)

    def test_identity_point_key_is_the_pre_placement_key(self):
        fingerprint = profile_fingerprint(get_cluster("gigabit-ethernet"))
        bare = self._point()
        placed = self._point(placement="identity")
        explicit = self._point(placement=list(range(8)))
        assert "placement" not in bare.key_payload()
        assert point_key(bare, fingerprint) == self.EXPECTED_GIGE
        assert point_key(placed, fingerprint) == self.EXPECTED_GIGE
        assert point_key(explicit, fingerprint) == self.EXPECTED_GIGE

    def test_non_identity_placement_changes_the_key(self):
        fingerprint = profile_fingerprint(get_cluster("gigabit-ethernet"))
        bare = self._point()
        placed = self._point(
            placement={"name": "round-robin", "params": {"groups": 4}}
        )
        assert placed.key_payload()["placement"] == {
            "name": "round-robin", "params": {"groups": 4},
        }
        assert point_key(bare, fingerprint) != point_key(placed, fingerprint)

    def test_identity_measure_is_bit_identical(self):
        cluster = _stress_cluster()
        bare = measure_alltoall(cluster, 8, 32768, reps=1, pattern=SHIFT)
        placed = measure_alltoall(
            cluster, 8, 32768, reps=1, pattern=SHIFT, placement="identity"
        )
        assert placed == bare

    def test_placed_measure_differs_and_wins_on_the_stress_fabric(self):
        cluster = _stress_cluster()
        identity = measure_alltoall(cluster, 16, 131072, reps=1, pattern=SHIFT)
        placed = measure_alltoall(
            cluster, 16, 131072, reps=1, pattern=SHIFT,
            placement={"name": "round-robin", "params": {"groups": 4}},
        )
        assert placed.mean_time < identity.mean_time / 2

    def test_placement_validated_before_simulation(self):
        cluster = _stress_cluster()
        with pytest.raises(MeasurementError, match="n=4"):
            measure_alltoall(cluster, 8, 4096, placement=[1, 0, 3, 2])
        with pytest.raises(MeasurementError, match="divide"):
            measure_alltoall(
                cluster, 8, 4096,
                placement={"name": "round-robin", "params": {"groups": 3}},
            )

    def test_scenario_cache_payload_omits_identity(self):
        base = ScenarioSpec(name="demo", base="gigabit-ethernet")
        placed = dataclasses.replace(base, placement="identity")
        assert placed.placement is None
        assert base.cache_payload() == placed.cache_payload()
        assert "placement" not in base.to_dict()
        rr = dataclasses.replace(
            base, placement={"name": "round-robin", "params": {"groups": 4}}
        )
        assert rr.cache_payload()["placement"] == {
            "name": "round-robin", "params": {"groups": 4},
        }

    def test_scenario_dict_round_trip_with_placement(self):
        spec = ScenarioSpec(
            name="demo", base="gigabit-ethernet",
            placement={"name": "block", "params": {"size": 4}},
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.placement == spec.placement
        assert "placement=block(size=4)" in api.Scenario(again).describe()

    def test_placed_example_scenario_loads(self):
        scenario = api.Scenario.from_file(
            "examples/scenarios/placed_edge_core_stress.toml"
        )
        assert scenario.spec.placement.key() == "round-robin(groups=4)"
        roundtrip = ScenarioSpec.from_toml(scenario.spec.to_toml())
        assert roundtrip.placement == scenario.spec.placement


class TestSweepAxis:
    def test_placements_axis_expands_and_collapses_identity(self):
        spec = SweepSpec(
            clusters=("gigabit-ethernet",), nprocs=(8,), sizes=(4096,),
            placements=("identity", {"name": "round-robin",
                                     "params": {"groups": 4}}),
            reps=1,
        )
        assert spec.n_points == 2
        assert "2 placements" in spec.describe()
        placements = [p.placement for p in spec.points()]
        assert placements[0] is None
        assert placements[1].key() == "round-robin(groups=4)"

    def test_bad_placement_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            SweepSpec(
                clusters=("gigabit-ethernet",), nprocs=(8,), sizes=(4096,),
                placements=("nosuch",),
            )

    def test_rows_carry_the_placement_column(self, tmp_path):
        spec = SweepSpec(
            clusters=("gigabit-ethernet",), nprocs=(8,), sizes=(2048,),
            patterns=(SHIFT,),
            placements=(None, {"name": "round-robin", "params": {"groups": 2}}),
            reps=1,
        )
        result = SweepRunner(cache=None).run(spec)
        rows = [r.to_row() for r in result.results]
        assert [row["placement"] for row in rows] == [
            "identity", "round-robin(groups=2)",
        ]

    def test_typed_readback_and_model_row_filtering(self, tmp_path):
        rows = [
            {
                "cluster": "gigabit-ethernet", "algorithm": "direct",
                "pattern": "", "placement": "identity", "n_processes": 8,
                "msg_size": 4096, "seed": 0, "reps": 1,
                "mean_time": 0.001, "std_time": 0.0, "cached": 0, "error": "",
            },
            {
                "cluster": "gigabit-ethernet", "algorithm": "direct",
                "pattern": "", "placement": "round-robin(groups=4)",
                "n_processes": 8, "msg_size": 4096, "seed": 0, "reps": 1,
                "mean_time": 0.0005, "std_time": 0.0, "cached": 0, "error": "",
            },
        ]
        path = tmp_path / "rows.csv"
        write_csv(path, list(rows[0]), rows)
        back = read_sweep_rows(path)
        assert back[0]["placement"] == "identity"
        assert isinstance(back[0]["n_processes"], int)
        assert isinstance(back[0]["mean_time"], float)
        # The placed row must not leak into model fitting samples.
        samples = samples_from_rows(back, cluster="gigabit-ethernet")
        assert len(samples) == 1
        assert samples[0].mean_time == pytest.approx(0.001)

    def test_pre_placement_files_still_read(self, tmp_path):
        legacy = [{
            "cluster": "gigabit-ethernet", "algorithm": "direct",
            "n_processes": 8, "msg_size": 4096, "seed": 0, "reps": 1,
            "mean_time": 0.001, "std_time": 0.0, "cached": 0, "error": "",
        }]
        path = tmp_path / "legacy.csv"
        write_csv(path, list(legacy[0]), legacy)
        back = read_sweep_rows(path)
        assert "placement" not in back[0]
        assert isinstance(back[0]["msg_size"], int)
        assert len(samples_from_rows(back, cluster="gigabit-ethernet")) == 1


class TestCli:
    def test_list_placements_sorted(self, capsys):
        assert main(["list", "placements"]) == 0
        names = [
            line.split()[0] for line in capsys.readouterr().out.splitlines()
        ]
        assert names == sorted(names)
        assert {"block", "identity", "random", "round-robin"} <= set(names)

    def test_list_all_sections_sorted_and_stable(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        sections = [
            line[:-1] for line in out.splitlines()
            if line.endswith(":") and not line.startswith(" ")
        ]
        assert sections == sorted(sections)
        assert "placements" in sections and "placement-optimizers" in sections

    def test_unknown_placement_exits_2(self, capsys):
        assert main([
            "sweep", "--clusters", "gigabit-ethernet", "--placement", "nosuch",
        ]) == 2
        assert "unknown placement" in capsys.readouterr().err

    def test_missing_placement_param_exits_2(self, capsys):
        assert main([
            "sweep", "--clusters", "gigabit-ethernet", "--placement", "round-robin",
        ]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid sweep spec: missing param(s) ['groups'] "
            "for placement 'round-robin'"
        ]

    def test_run_placement_requires_scenario(self, capsys):
        assert main(["run", "fig02", "--placement", "identity"]) == 2
        assert "--placement needs --scenario" in capsys.readouterr().err

    def test_optimize_placement_cli(self, capsys, tmp_path):
        out_json = tmp_path / "placement.json"
        code = main([
            "optimize-placement",
            "examples/scenarios/placed_edge_core_stress.toml",
            "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "identity" in out and "optimized" in out and "ratio" in out
        entry = json.loads(out_json.read_text())
        assert entry["objective"] < entry["identity_objective"]
        assert sorted(entry["placement"]["perm"]) == list(range(16))

    def test_optimize_placement_unknown_optimizer(self, capsys):
        assert main([
            "optimize-placement", "gigabit-ethernet", "--optimizer", "nosuch",
        ]) == 2
        assert "unknown placement optimizer" in capsys.readouterr().err

    def test_optimize_placement_bad_optimizer_param(self, capsys):
        assert main([
            "optimize-placement", "gigabit-ethernet",
            "--optimizer", "greedy:temperature=2",
        ]) == 2
        assert "invalid optimizer parameters" in capsys.readouterr().err

    def test_optimizer_params_checked_before_the_search(self, capsys):
        with mock.patch.object(PlacementObjective, "__init__", side_effect=AssertionError):
            assert main([
                "optimize-placement", "gigabit-ethernet",
                "--optimizer", "greedy:iterations=10",
            ]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid optimizer parameters: unknown param(s) ['iterations'] "
            "for placement optimizer 'greedy'; known: max_rounds"
        ]

    @pytest.mark.parametrize("pattern, message", [
        ("hotspot:victims=2",
         "unknown param(s) ['victims'] for pattern 'hotspot'; known: factor, targets"),
        ("hotspot:targets", "bad pattern parameter 'targets' (expected key=value)"),
    ], ids=["unknown", "malformed"])
    def test_pattern_params_checked_before_the_search(self, capsys, pattern, message):
        with mock.patch.object(PlacementObjective, "__init__", side_effect=AssertionError):
            assert main([
                "optimize-placement", "gigabit-ethernet", "--pattern", pattern,
            ]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid pattern parameters: {message}"
        ]

    def test_sweep_placement_axis_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--clusters", "gigabit-ethernet",
            "--nprocs", "4", "--sizes", "2kB", "--reps", "1",
            "--pattern", "shift:offset=2",
            "--placement", "identity", "--placement", "random:seed=3",
            "--cache-dir", str(tmp_path / "cache"), "--csv", str(csv_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 placements" in out
        assert "simulated : 2" in out
        # Placed cache keys are stable: the rerun simulates nothing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulated : 0" in out and "cached    : 2" in out
        rows = read_sweep_rows(csv_path)
        assert {row["placement"] for row in rows} == {
            "identity", "random(seed=3)",
        }

    def test_scenario_sweep_rejects_placement_flag(self, capsys):
        code = main([
            "sweep", "--scenario",
            "examples/scenarios/placed_edge_core_stress.toml",
            "--placement", "identity",
        ])
        assert code == 2
        assert "--placement" in capsys.readouterr().err
