"""Unit tests for the parallel sweep engine and its result cache."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.clusters.profiles import gigabit_ethernet, myrinet
from repro.core.signature import AlltoallSample
from repro.measure.alltoall import measure_alltoall, sweep_grid
from repro.sweeps import (
    CACHE_VERSION,
    ResultCache,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    configure_default_runner,
    point_key,
    profile_fingerprint,
)
import repro.exec.task as task_mod
import repro.sweeps.runner as runner_mod


def tiny_spec(**overrides):
    defaults = dict(
        clusters=("gigabit-ethernet",),
        nprocs=(4,),
        sizes=(2_048, 8_192),
        algorithms=("direct",),
        seeds=(0,),
        reps=1,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSpec:
    def test_expansion_order_is_deterministic(self):
        spec = tiny_spec(
            clusters=("gigabit-ethernet", "myrinet"),
            algorithms=("direct", "bruck"),
            seeds=(0, 1),
        )
        assert spec.n_points == 16
        points = spec.points()
        assert points == spec.points()
        assert len(points) == 16
        # clusters vary slowest, seeds fastest
        assert points[0].cluster == "gigabit-ethernet"
        assert points[0].seed == 0
        assert points[1].seed == 1
        assert points[-1].cluster == "myrinet"

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="axis"):
            tiny_spec(nprocs=())

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            tiny_spec(algorithms=("nope",))

    def test_rejects_invalid_point_values_eagerly(self):
        # Validated at spec level so the CLI reports them as bad specs
        # instead of crashing during lazy expansion.
        with pytest.raises(ValueError, match="nprocs"):
            tiny_spec(nprocs=(1,))
        with pytest.raises(ValueError, match="sizes"):
            tiny_spec(sizes=(0,))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            SweepPoint("x", 1, 1024, "direct", 0, 1)
        with pytest.raises(ValueError):
            SweepPoint("x", 4, 0, "direct", 0, 1)

    def test_describe_mentions_cardinality(self):
        assert "2 sizes" in tiny_spec().describe()


#: Other spellings of registered names: aliases plus case and
#: separator variants, all of which the registries resolve.
SPELLINGS = {
    "gigabit-ethernet": ("gige", "gdx", "Gigabit_Ethernet"),
    "myrinet": ("gm", "icluster2-myrinet", "MYRINET"),
    "direct": ("linear", "LINEAR", "Direct"),
    "rounds": ("pairwise", "PAIRWISE"),
    "fluid": ("reference", "event-driven", "Event_Driven"),
    "vector": ("batched", "VECTOR"),
    "hotspot": ("incast", "HotSpot"),
    "block": ("BLOCK",),
    "round-robin": ("rr", "cyclic", "Round_Robin"),
}

#: Spellings of the trivial pattern and placement, which key as ``None``.
UNIFORM = ("uniform", "alltoall", "regular", {"name": "Regular"},
           {"name": "uniform", "params": {}})
IDENTITY = ("identity", "none", {"name": "Identity"})


@st.composite
def spelled_points(draw):
    """``(canonical, spelled)`` constructor arguments of one point.

    The canonical side uses registry names, parameters in declaration
    order and ``None`` for the trivial pattern and placement; the
    spelled side draws any other spelling of each.
    """

    def spell(name):
        return draw(st.sampled_from((name, *SPELLINGS.get(name, ()))))

    def spec(choices, trivial):
        choice = draw(st.sampled_from((None, *choices)))
        if choice is None:
            return None, draw(st.sampled_from((None, *trivial)))
        name, params = choice
        items = list(params.items())
        if draw(st.booleans()):
            items.reverse()
        return (
            {"name": name, "params": params},
            {"name": spell(name), "params": dict(items)},
        )

    coords = dict(
        n_processes=draw(st.sampled_from((4, 8))),
        msg_size=draw(st.sampled_from((2_048, 65_536))),
        seed=draw(st.integers(0, 3)),
        reps=draw(st.integers(1, 3)),
    )
    canonical, spelled = dict(coords), dict(coords)
    for field, names in (
        ("cluster", ("gigabit-ethernet", "myrinet")),
        ("algorithm", ("direct", "rounds")),
        ("engine", ("fluid", "vector")),
    ):
        name = draw(st.sampled_from(names))
        canonical[field], spelled[field] = name, spell(name)
    canonical["pattern"], spelled["pattern"] = spec(
        [("hotspot", {"targets": t, "factor": f})
         for t in (1, 2) for f in (2.0, 4.0)],
        UNIFORM,
    )
    canonical["placement"], spelled["placement"] = spec(
        [("block", {"size": 2, "shift": 1}), ("round-robin", {"groups": 2})],
        IDENTITY,
    )
    return canonical, spelled


class TestCacheKey:
    POINT = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)

    @given(spelled_points())
    def test_every_spelling_shares_one_key(self, drawn):
        canonical, spelled = drawn
        fp = {"probe": "fixed"}
        key = point_key(SweepPoint(**canonical), fp)
        # Direct callers: cluster names stay free-form (scenario labels).
        direct = SweepPoint(**{**spelled, "cluster": canonical["cluster"]})
        assert point_key(direct, fp) == key
        # Through a spec, cluster aliases canonicalise too.
        spec = SweepSpec(
            clusters=(spelled["cluster"],),
            nprocs=(spelled["n_processes"],),
            sizes=(spelled["msg_size"],),
            algorithms=(spelled["algorithm"],),
            patterns=(spelled["pattern"],),
            placements=(spelled["placement"],),
            seeds=(spelled["seed"],),
            reps=spelled["reps"],
            engine=spelled["engine"],
        )
        assert point_key(spec.points()[0], fp) == key

    def test_key_is_stable(self):
        fp = profile_fingerprint(gigabit_ethernet())
        assert point_key(self.POINT, fp) == point_key(self.POINT, fp)

    def test_key_changes_with_point_coordinates(self):
        fp = profile_fingerprint(gigabit_ethernet())
        other = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 1, 1)
        assert point_key(self.POINT, fp) != point_key(other, fp)

    def test_key_changes_with_profile_params(self):
        base = gigabit_ethernet()
        tweaked = base.with_overrides(start_skew_scale=123e-6)
        assert point_key(self.POINT, profile_fingerprint(base)) != point_key(
            self.POINT, profile_fingerprint(tweaked)
        )

    def test_fingerprint_captures_topology(self):
        gige = profile_fingerprint(gigabit_ethernet())
        myri = profile_fingerprint(myrinet())
        assert gige["topology"] != myri["topology"]

    def test_fingerprint_is_jsonable(self):
        json.dumps(profile_fingerprint(gigabit_ethernet()))
        assert isinstance(CACHE_VERSION, int)


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        sample = AlltoallSample(
            n_processes=4, msg_size=2048, mean_time=0.5, std_time=0.1, reps=3
        )
        cache.put("ab" + "0" * 62, TestCacheKey.POINT, sample)
        loaded = cache.get("ab" + "0" * 62)
        assert loaded == sample
        assert cache.hits == 1
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("ab" + "0" * 62) is None

    @pytest.mark.parametrize(
        "content",
        [
            "{}",                                        # valid JSON, no sample
            '{"sample": {"n_processes": 4}}',            # missing fields
            '{"sample": {"n_processes": 1, "msg_size": 1, "mean_time": 1, "std_time": 0, "reps": 1}}',  # fails validation
            '{"sample": null}',
        ],
    )
    def test_wrong_shape_entry_is_a_miss(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        path = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        assert cache.get("ab" + "0" * 62) is None
        assert cache.hits == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        sample = AlltoallSample(
            n_processes=4, msg_size=2048, mean_time=0.5, reps=1
        )
        cache.put("cd" + "0" * 62, TestCacheKey.POINT, sample)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunner:
    def test_matches_direct_measurement(self):
        spec = tiny_spec()
        result = SweepRunner(workers=1).run(spec)
        cluster = gigabit_ethernet()
        for r in result.results:
            direct = measure_alltoall(
                cluster, r.point.n_processes, r.point.msg_size,
                reps=r.point.reps, seed=r.point.seed,
                algorithm=r.point.algorithm,
            )
            assert r.sample.mean_time == direct.mean_time

    def test_parallel_equals_serial(self):
        spec = tiny_spec(nprocs=(4, 5), algorithms=("direct", "bruck"))
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=2).run(spec)
        assert [s.mean_time for s in serial.samples] == [
            s.mean_time for s in parallel.samples
        ]

    def test_second_run_is_fully_cached_zero_simulations(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        first = SweepRunner(workers=1, cache=cache).run(spec)
        assert first.n_simulated == spec.n_points
        assert first.n_cached == 0

        # Second identical run must not simulate a single point: make any
        # simulation attempt blow up.  Every executor funnels through
        # repro.exec.task.run_task, so patching that module's
        # measure_alltoall intercepts all execution paths at once.
        def boom(*args, **kwargs):
            raise AssertionError("cache miss: a simulation was attempted")

        monkeypatch.setattr(task_mod, "measure_alltoall", boom)
        second = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(spec)
        assert second.n_simulated == 0
        assert second.n_cached == spec.n_points
        assert [s.mean_time for s in second.samples] == [
            s.mean_time for s in first.samples
        ]

    def test_profile_override_misses_registry_cache(self, tmp_path):
        # Same cluster name, different physics: keys must not collide.
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        point = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        runner.run_points([point])
        tweaked = gigabit_ethernet().with_overrides(start_skew_scale=5e-3)
        result = runner.run_points([point], profile=tweaked)
        assert result.n_simulated == 1  # not served from the registry entry

    def test_topology_override_misses_registry_cache(self, tmp_path):
        # Same cluster name, same transport, different fabric: the
        # per-point topology probe must separate the keys and forbid
        # the rebuild-by-name parallel fast path.
        from repro.simnet.topology import single_switch

        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        point = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        runner.run_points([point])
        slow_fabric = gigabit_ethernet().with_overrides(
            topology_factory=lambda n: single_switch(
                n, nic_bandwidth=50e6, name="gdx-gige"
            )
        )
        result = runner.run_points([point], profile=slow_fabric)
        assert result.n_simulated == 1  # fabric change invalidates the key
        assert SweepRunner._recipe([point], slow_fabric, None) is None
        assert SweepRunner._recipe([point], gigabit_ethernet(), None) == {}

    def test_profile_ships_only_to_points_of_its_own_cluster(self):
        # Workers rebuild each point's cluster by name: a GigE profile
        # on Myrinet-named points must stay in-process, or the pool
        # would simulate Myrinet where one worker simulates GigE.
        points = [SweepPoint("myrinet", n, 2_048, "direct", 0, 1) for n in (4, 5)]
        assert SweepRunner._recipe(points, gigabit_ethernet(), None) is None
        serial = SweepRunner(workers=1).run_points(points, profile=gigabit_ethernet())
        with SweepRunner(workers=2) as runner:
            pooled = runner.run_points(points, profile=gigabit_ethernet())
        assert pooled.samples == serial.samples

    def test_unknown_cluster_rejected(self):
        spec = tiny_spec(clusters=("no-such-cluster",))
        with pytest.raises(KeyError, match="unknown clusters"):
            SweepRunner().run(spec)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_rows_and_files(self, tmp_path):
        result = SweepRunner(workers=1).run(tiny_spec())
        fieldnames, rows = result.to_rows()
        assert fieldnames[0] == "cluster"
        assert len(rows) == 2
        csv_path = result.save_csv(tmp_path / "out" / "sweep.csv")
        jsonl_path = result.save_jsonl(tmp_path / "out" / "sweep.jsonl")
        assert csv_path.exists()
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["cluster"] == "gigabit-ethernet"


class TestSweepHelpersRouteThroughEngine:
    # A NumPy integer n must reach the cache key as a plain int.
    @pytest.mark.parametrize("n", [4, np.int64(4)], ids=["int", "np.int64"])
    def test_sweep_grid_accepts_runner_with_cache(self, tmp_path, n):
        cluster = gigabit_ethernet()
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        first = sweep_grid(cluster, [n], [2048, 8192], reps=1, seed=0, runner=runner)
        again = sweep_grid(cluster, [n], [2048, 8192], reps=1, seed=0, runner=runner)
        assert [s.mean_time for s in first] == [s.mean_time for s in again]
        assert runner.cache.hits == 2

    def test_sweep_grid_order_is_n_major(self):
        cluster = gigabit_ethernet()
        samples = sweep_grid(cluster, [4, 5], [2048, 8192], reps=1, seed=0)
        coords = [(s.n_processes, s.msg_size) for s in samples]
        assert coords == [(4, 2048), (4, 8192), (5, 2048), (5, 8192)]

    def test_default_runner_env_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        try:
            runner = configure_default_runner()
            assert runner.workers == 3
            assert runner.cache is not None
            assert runner.cache.root == tmp_path
        finally:
            # Restore a clean default for other tests even on failure.
            monkeypatch.delenv("REPRO_SWEEP_WORKERS")
            monkeypatch.delenv("REPRO_SWEEP_CACHE")
            configure_default_runner()


class TestCliSweep:
    ARGS = [
        "sweep",
        "--clusters", "gigabit-ethernet",
        "--nprocs", "4",
        "--sizes", "2kB,8kB",
        "--algorithms", "direct,bruck",
        "--reps", "1",
    ]

    def test_sweep_runs_and_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        jsonl_path = tmp_path / "sweep.jsonl"
        code = main(
            self.ARGS
            + [
                "--cache-dir", str(tmp_path / "cache"),
                "--csv", str(csv_path),
                "--jsonl", str(jsonl_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated : 4" in out
        assert csv_path.exists() and jsonl_path.exists()

    def test_second_cli_run_is_fully_cached(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "simulated : 0" in out
        assert "cached    : 4" in out

    def test_no_cache_flag(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache     : disabled" in out
        assert "slowest points:" in out

    def test_bad_workers_is_reported(self, capsys):
        assert main(self.ARGS + ["--no-cache", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_bad_spec_is_reported(self, capsys):
        assert main(self.ARGS[:1] + ["--algorithms", "nope", "--no-cache"]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_unknown_cluster_is_reported(self, capsys):
        assert (
            main(self.ARGS[:1] + ["--clusters", "nope", "--no-cache"]) == 2
        )
        assert "unknown clusters" in capsys.readouterr().err


class TestScenarioCacheKeys:
    """Satellite regression: scenario definitions feed the cache key."""

    def scenario(self, **overrides):
        from repro.scenario import ScenarioSpec

        base = {
            "name": "probe-equal",
            "base": "gigabit-ethernet",
            "topology": {
                "factory": "edge-core",
                "params": {
                    "nic_bandwidth": 117.6e6,
                    "hosts_per_edge": 8,
                    "trunk_bandwidth": 400e6,
                },
            },
            "workload": {"nprocs": [4], "sizes": [2_048], "reps": 1},
        }
        base.update(overrides)
        return ScenarioSpec.from_dict(base)

    def test_probe_equal_scenarios_get_distinct_keys(self):
        # Both fabrics build ONE edge switch at n=4 (hosts_per_edge 8 vs
        # 20 only diverges above 8 hosts), so the profile fingerprint
        # probed at the point's own n is identical — without the
        # scenario payload these two definitions would collide.
        a = self.scenario()
        b = self.scenario(
            topology={
                "factory": "edge-core",
                "params": {
                    "nic_bandwidth": 117.6e6,
                    "hosts_per_edge": 20,
                    "trunk_bandwidth": 400e6,
                },
            }
        )
        point = SweepPoint("probe-equal", 4, 2_048, "direct", 0, 1)
        fp_a = profile_fingerprint(a.build_profile(), probe_sizes=(4,))
        fp_b = profile_fingerprint(b.build_profile(), probe_sizes=(4,))
        assert fp_a == fp_b  # the probes really are indistinguishable
        assert point_key(point, fp_a, a.cache_payload()) != point_key(
            point, fp_b, b.cache_payload()
        )

    def test_no_scenario_leaves_keys_unchanged(self):
        point = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        fp = profile_fingerprint(gigabit_ethernet())
        assert point_key(point, fp) == point_key(point, fp, None)

    def test_runner_does_not_cross_scenarios(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        a = self.scenario()
        b = self.scenario(
            topology={
                "factory": "edge-core",
                "params": {
                    "nic_bandwidth": 117.6e6,
                    "hosts_per_edge": 20,
                    "trunk_bandwidth": 400e6,
                },
            }
        )
        points = [SweepPoint("probe-equal", 4, 2_048, "direct", 0, 1)]
        first = runner.run_points(points, scenario=a)
        assert first.n_simulated == 1
        # The second scenario shares the point coordinates and (at n=4)
        # the topology probe, but must not be served scenario a's entry.
        second = runner.run_points(points, scenario=b)
        assert second.n_simulated == 1
        # Re-running scenario a itself *is* a cache hit.
        third = runner.run_points(points, scenario=a)
        assert third.n_cached == 1
        assert third.samples[0] == first.samples[0]

    def test_scenario_parallel_execution_matches_serial(self):
        spec = self.scenario(
            workload={"nprocs": [4, 5], "sizes": [1_024, 4_096], "reps": 1}
        )
        points = [
            SweepPoint("probe-equal", n, m, "direct", 0, 1)
            for n in (4, 5)
            for m in (1_024, 4_096)
        ]
        serial = SweepRunner(workers=1).run_points(points, scenario=spec)
        parallel = SweepRunner(workers=2).run_points(points, scenario=spec)
        assert [s.mean_time for s in serial.samples] == [
            s.mean_time for s in parallel.samples
        ]


class TestSpawnSafety:
    """What a fresh worker rebuilds a batch from (``SweepRunner._recipe``):
    user-registered plugins are never rebuilt in spawn workers."""

    @staticmethod
    def _start_method(monkeypatch, method):
        monkeypatch.setattr(
            runner_mod.multiprocessing, "get_start_method", lambda: method
        )

    def _register_user_cluster(self):
        from repro.registry import CLUSTERS as REGISTRY, register_cluster

        @register_cluster("test-user-cluster")
        def factory():
            return gigabit_ethernet().with_overrides(name="test-user-cluster")

        return REGISTRY

    def test_user_cluster_profile_not_parallel_under_spawn(self, monkeypatch):
        registry = self._register_user_cluster()
        try:
            point = SweepPoint("test-user-cluster", 4, 2_048, "direct", 0, 1)
            profile = registry.get("test-user-cluster")()
            self._start_method(monkeypatch, "fork")
            assert SweepRunner._recipe([point], profile, None) == {}
            assert SweepRunner._recipe([point], None, None) == {}
            self._start_method(monkeypatch, "spawn")
            assert SweepRunner._recipe([point], profile, None) is None
            assert SweepRunner._recipe([point], None, None) is None
        finally:
            registry.unregister("test-user-cluster")

    def test_builtin_points_stay_parallel_under_spawn(self, monkeypatch):
        point = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        self._start_method(monkeypatch, "spawn")
        assert SweepRunner._recipe([point], None, None) == {}
        assert SweepRunner._recipe([point], gigabit_ethernet(), None) == {}

    def test_user_engine_stays_in_process_under_spawn(self, monkeypatch):
        from repro.engines import run_fluid
        from repro.registry import ENGINES

        def user_engine(*args, **kwargs):
            return run_fluid(*args, **kwargs)

        ENGINES.register("test-user-engine", user_engine)
        try:
            point = SweepPoint(
                "gigabit-ethernet", 4, 2_048, "direct", 0, 1,
                engine="test-user-engine",
            )
            self._start_method(monkeypatch, "fork")
            assert SweepRunner._recipe([point], None, None) == {}
            self._start_method(monkeypatch, "spawn")
            assert SweepRunner._recipe([point], None, None) is None
        finally:
            ENGINES.unregister("test-user-engine")

    def test_builtin_object_under_a_new_name_stays_in_process(self, monkeypatch):
        # A fresh worker's registry knows the built-in names, not the
        # objects: a new name or alias for a repro plugin is not built in.
        from repro.engines import run_fluid
        from repro.registry import ALGORITHMS, ENGINES
        from repro.simmpi.collectives import alltoall_direct

        ENGINES.register("test-renamed-fluid", run_fluid)
        ALGORITHMS.register("test-direct", alltoall_direct, aliases=("test-linear",))
        try:
            points = [
                SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1,
                           engine="test-renamed-fluid"),
                SweepPoint("gigabit-ethernet", 4, 2_048, "test-linear", 0, 1),
            ]
            self._start_method(monkeypatch, "spawn")
            for point in points:
                assert SweepRunner._recipe([point], None, None) is None
            self._start_method(monkeypatch, "fork")
            for point in points:
                assert SweepRunner._recipe([point], None, None) == {}
        finally:
            ENGINES.unregister("test-renamed-fluid")
            ALGORITHMS.unregister("test-direct")

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_scenario_recipe(self, monkeypatch, method):
        from repro.registry import TOPOLOGIES, register_topology
        from repro.scenario import ScenarioSpec
        from repro.simnet.topology import single_switch

        @register_topology("test-user-switch")
        def user_switch(n_hosts, **params):
            return single_switch(n_hosts, **params)

        def scenario(factory):
            return ScenarioSpec.from_dict({
                "name": "switch-scenario",
                "base": "gigabit-ethernet",
                "topology": {"factory": factory,
                             "params": {"nic_bandwidth": 1e8}},
            })

        try:
            builtin, user = scenario("single_switch"), scenario("test-user-switch")
            point = SweepPoint("switch-scenario", 4, 2_048, "direct", 0, 1)
            self._start_method(monkeypatch, method)
            assert SweepRunner._recipe([point], None, builtin) == {
                "scenario": builtin.to_dict()
            }
            assert SweepRunner._recipe([point], None, user) == (
                None if method == "spawn" else {"scenario": user.to_dict()}
            )
        finally:
            TOPOLOGIES.unregister("test-user-switch")

    @pytest.mark.parametrize("kind", ["pattern", "placement", "model"])
    def test_scenario_recipe_checks_the_spec_plugins(self, monkeypatch, kind):
        # A fit's points carry no pattern or placement, but a worker
        # re-validates the whole spec dict it is sent.
        from repro.registry import MODELS, PATTERNS, PLACEMENTS
        from repro.scenario import ScenarioSpec

        def user_plugin(*args, **kwargs):
            raise AssertionError("never called")

        registry = {"pattern": PATTERNS, "placement": PLACEMENTS, "model": MODELS}[kind]
        name = f"test-user-{kind}"
        registry.register(name, user_plugin)
        try:
            section = (
                {"workload": {"pattern": name}} if kind == "pattern" else {kind: name}
            )
            spec = ScenarioSpec.from_dict(
                {"name": "user-plugin-scenario", "base": "gigabit-ethernet", **section}
            )
            points = [
                SweepPoint("user-plugin-scenario", n, 2_048, "direct", 0, 1)
                for n in (4, 5)
            ]
            self._start_method(monkeypatch, "fork")
            assert SweepRunner._recipe(points, None, spec) == {"scenario": spec.to_dict()}
            self._start_method(monkeypatch, "spawn")
            assert SweepRunner._recipe(points, None, spec) is None
        finally:
            registry.unregister(name)

    def test_unknown_algorithm_point_is_an_error_row_under_spawn(self, monkeypatch):
        # The batch stays in-process, where the bad point fails alone.
        self._start_method(monkeypatch, "spawn")
        points = [
            SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1),
            SweepPoint("gigabit-ethernet", 4, 2_048, "no-such-algorithm", 0, 1),
        ]
        with SweepRunner(workers=2, on_error="keep") as runner:
            result = runner.run_points(points)
        assert [r.ok for r in result.results] == [True, False]
        assert "unknown algorithm 'no-such-algorithm'" in result.results[1].error


#: Run in a fresh interpreter under the start method named by argv[1]:
#: built-in flag and scenario grids reach the pool, a grid on a user
#: cluster or engine, or a scenario whose spec alone names a user
#: pattern, stays in this process, every grid equals serial, and an
#: unknown-algorithm point becomes an error row.
START_METHOD_SCRIPT = """
import multiprocessing
import sys

from repro.api import Scenario
from repro.clusters.profiles import gigabit_ethernet
from repro.engines import run_fluid
from repro.registry import ENGINES, register_cluster, register_pattern
from repro.scenario import ScenarioSpec
from repro.sweeps import SweepPoint, SweepRunner, SweepSpec


def check(run, pooled):
    serial = run(SweepRunner(workers=1))
    with SweepRunner(workers=2) as runner:
        samples = run(runner)
        assert runner.executor.warm is pooled, run
    assert samples == serial, run


def grid(cluster, engine=None):
    spec = SweepSpec(clusters=(cluster,), nprocs=(4, 5), sizes=(2048,),
                     algorithms=("direct",), seeds=(0,), reps=1, engine=engine)
    return lambda runner: runner.run(spec).samples


def user_engine(*args, **kwargs):
    return run_fluid(*args, **kwargs)


def user_pattern(n_processes, msg_size, *, rng=None):
    raise AssertionError("a fit's points carry no pattern")


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    check(grid("gigabit-ethernet"), True)
    scenario = ScenarioSpec.from_dict({
        "name": "switch-scenario", "base": "gigabit-ethernet",
        "topology": {"factory": "single_switch", "params": {"nic_bandwidth": 1e8}},
        "workload": {"nprocs": [4, 5], "sizes": [2048], "reps": 1},
    })
    points = [SweepPoint("switch-scenario", n, 2048, "direct", 0, 1) for n in (4, 5)]
    check(lambda runner: runner.run_points(points, scenario=scenario).samples, True)
    register_cluster("user-cluster")(
        lambda: gigabit_ethernet().with_overrides(name="user-cluster"))
    check(grid("user-cluster"), False)
    ENGINES.register("user-engine", user_engine)
    check(grid("gigabit-ethernet", engine="user-engine"), False)
    register_pattern("user-pattern")(user_pattern)
    fit = {"name": "fit-scenario", "base": "gigabit-ethernet",
           "workload": {"nprocs": [4, 5], "sizes": [2048], "reps": 1,
                        "pattern": "user-pattern"}}
    check(lambda runner: Scenario.from_dict(fit).grid_samples(runner=runner), False)
    bad = [SweepPoint("gigabit-ethernet", 4, 2048, name, 0, 1)
           for name in ("direct", "no-such-algorithm")]
    with SweepRunner(workers=2, on_error="keep") as runner:
        rows = runner.run_points(bad).results
    assert [row.ok for row in rows] == [True, False], rows
    print("ok")
"""


def _run_fresh(script, method):
    """Run *script* in a fresh interpreter under start method *method*."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    if method not in runner_mod.multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, method],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_real_start_method(method):
    """Shipped batches rebuild in a fresh interpreter; tier-1 runs under fork."""
    _run_fresh(START_METHOD_SCRIPT, method)


#: A built-in engine registered under a new name: a fresh worker's
#: ``import repro`` lacks the name, so the batch runs in this process.
RENAMED_PLUGIN_SCRIPT = """
import multiprocessing
import sys

from repro.engines import run_fluid
from repro.registry import ENGINES
from repro.sweeps import SweepPoint, SweepRunner

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    ENGINES.register("renamed-fluid", run_fluid)
    points = [SweepPoint("gigabit-ethernet", 4, m, "direct", 0, 1, engine="renamed-fluid")
              for m in (2048, 8192)]
    serial = SweepRunner(workers=1).run_points(points).samples
    with SweepRunner(workers=2, executor="process") as runner:
        assert runner.run_points(points).samples == serial
        assert not runner.executor.warm
    print("ok")
"""


def test_renamed_builtin_runs_in_process_under_spawn():
    _run_fresh(RENAMED_PLUGIN_SCRIPT, "spawn")
