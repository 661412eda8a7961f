"""The engine layer: registry, lowering, vector-vs-fluid equivalence,
cache-key stability, env/CLI plumbing and the stats columns."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import api
from repro.cli import main
from repro.clusters.profiles import get_cluster
from repro.engines import DEFAULT_ENGINE, ENGINE_ENV, default_engine
from repro.exceptions import (
    LoweringError,
    MeasurementError,
    ScenarioError,
    UnknownNameError,
)
from repro.measure.alltoall import measure_alltoall
from repro.obs import LinkTimeline
from repro.obs.metrics import REGISTRY, diff_snapshots
from repro.placement import PlacedTopology
from repro.registry import ALGORITHMS, ENGINES
from repro.scenario import ScenarioSpec
from repro.simmpi import RunResult
from repro.simmpi.lowering import lower_program
from repro.sweeps import ResultCache, SweepRunner
from repro.sweeps.cache import point_key, profile_fingerprint
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.traffic import as_pattern

REL_TOL = 1e-6

#: The three paper fabrics.  The bit-exact equivalence suite disables
#: the TCP loss overlay (lossy runs sample the same stochastic process
#: through different RNG streams, so they only match statistically —
#: see TestLossyVector).
PAPER_CLUSTERS = ("fast-ethernet", "gigabit-ethernet", "myrinet")

#: Scalar (regular All-to-All) algorithms — every registered name that
#: is not a matrix variant.
SCALAR_ALGORITHMS = tuple(
    name for name in api.list_algorithms() if not name.startswith("alltoallv-")
)


def _lossless(name: str):
    return get_cluster(name).with_overrides(loss=None)


def _mean(cluster, engine, **kwargs):
    kwargs.setdefault("reps", 1)
    kwargs.setdefault("seed", 0)
    sample = measure_alltoall(cluster, kwargs.pop("n", 6), kwargs.pop("m", 4096), engine=engine, **kwargs)
    return sample.mean_time


class TestRegistry:
    def test_builtins_registered(self):
        assert "fluid" in ENGINES and "vector" in ENGINES
        assert api.list_engines() == ["fluid", "vector"]

    def test_aliases_resolve(self):
        assert ENGINES.canonical("reference") == "fluid"
        assert ENGINES.canonical("batched") == "vector"

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownNameError):
            ENGINES.get("verlet")

    def test_observed_run_raises_the_programs_own_type_error(self):
        def yields_an_int(ctx, nbytes):
            yield 42

        ALGORITHMS.register("test-yields-an-int", yields_an_int)
        try:
            with pytest.raises(TypeError, match="must yield Request"):
                measure_alltoall(
                    get_cluster("gigabit-ethernet"), 4, 1024, reps=1,
                    algorithm="test-yields-an-int", observe=True,
                )
        finally:
            ALGORITHMS.unregister("test-yields-an-int")

    def test_engine_without_observation_keywords_is_refused(self):
        calls = []

        def unobservable(cluster, n_processes, program, run_arg, seed):
            calls.append(seed)

        ENGINES.register("test-unobservable", unobservable)
        try:
            with pytest.raises(MeasurementError, match="does not support observation"):
                measure_alltoall(
                    get_cluster("myrinet"), 4, 1024, reps=1,
                    engine="test-unobservable", observe=True,
                )
        finally:
            ENGINES.unregister("test-unobservable")
        assert calls == []


class TestEquivalence:
    """The tentpole acceptance bar: vector matches fluid within 1e-6
    relative on every lossless algorithm x cluster combination."""

    @pytest.mark.parametrize("cluster_name", PAPER_CLUSTERS)
    @pytest.mark.parametrize("algorithm", SCALAR_ALGORITHMS)
    def test_scalar_algorithms(self, cluster_name, algorithm):
        cluster = _lossless(cluster_name)
        fluid = _mean(cluster, "fluid", algorithm=algorithm)
        vector = _mean(cluster, "vector", algorithm=algorithm)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize("cluster_name", PAPER_CLUSTERS)
    def test_rendezvous_sizes(self, cluster_name):
        # 70 kB crosses every profile's rendezvous threshold, so the
        # two-phase protocol replay (RTS edge) is exercised too.
        cluster = _lossless(cluster_name)
        fluid = _mean(cluster, "fluid", m=70_000)
        vector = _mean(cluster, "vector", m=70_000)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize("pattern", ("zipf", "hotspot", "shift"))
    @pytest.mark.parametrize("algorithm", ("direct", "rounds"))
    def test_irregular_patterns(self, pattern, algorithm):
        cluster = _lossless("gigabit-ethernet")
        spec = as_pattern(pattern)
        fluid = _mean(cluster, "fluid", algorithm=algorithm, pattern=spec)
        vector = _mean(cluster, "vector", algorithm=algorithm, pattern=spec)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize("msg_size", (4_096, 70_000))
    def test_protocol_trace_matches(self, msg_size):
        # One protocol layer: the mpi.* records of a lossless jitter-free
        # run agree record for record, payloads and times included.
        from repro.simnet.trace import Trace

        myrinet = get_cluster("myrinet")
        cluster = myrinet.with_overrides(
            loss=None,
            transport=dataclasses.replace(myrinet.transport, jitter_scale=0.0),
        )
        records = {}
        for engine in ("fluid", "vector"):
            trace = Trace()
            ENGINES.get(engine)(
                cluster, 8, ALGORITHMS.get("direct"), msg_size, 0, trace=trace
            )
            records[engine] = [
                (r.category, r.payload, r.time)
                for r in trace
                if r.category.startswith("mpi.")
            ]
        categories = {category for category, _, _ in records["fluid"]}
        assert categories == {
            "mpi.phase", "mpi.isend", "mpi.irecv", "mpi.local_copy",
            "mpi.recv_complete",
        }
        assert records["vector"] == records["fluid"]

    def test_seed_sensitivity_matches(self):
        # Skew/jitter RNG streams must replay identically per seed.
        cluster = _lossless("gigabit-ethernet")
        for seed in (0, 3):
            fluid = _mean(cluster, "fluid", seed=seed)
            vector = _mean(cluster, "vector", seed=seed)
            assert vector == pytest.approx(fluid, rel=REL_TOL)


class TestVectorLimits:
    def test_lowering_rejects_clock_reads(self):
        def clocky(ctx, msg_size):
            _ = ctx.now
            yield from ()

        with pytest.raises(LoweringError, match="ctx.now"):
            lower_program(clocky, 4, 2_048)


def _link_loads(topology, transport, lowered) -> tuple[np.ndarray, np.ndarray]:
    """Per link: the wire bytes routed over it, and the flows crossing it."""
    remote = ~lowered.local
    _, _, wire = transport.message_costs(lowered.nbytes[remote])
    indptr, links = topology.route_table(lowered.src[remote], lowered.dst[remote])
    loads = np.bincount(
        links, weights=np.repeat(wire, np.diff(indptr)), minlength=topology.n_links
    )
    return loads, np.bincount(links, minlength=topology.n_links)


class TestCutLowerBound:
    """No run beats its busiest link, and no link loses or invents a byte.

    On both engines a run lasts at least the largest, over all links, of
    the wire bytes routed over the link divided by its capacity.  Lost
    bytes or an oversubscribed link break it, even where the engines
    would still agree with each other.  And every link's delivered bytes
    (:class:`~repro.obs.LinkTimeline`) equal the wire bytes routed over
    it, within half a byte per crossing flow (a flow completes with up
    to ``_BYTE_EPS`` bytes left) plus 1e-9 relative."""

    @settings(max_examples=25)
    @given(data=st.data())
    def test_no_run_beats_its_busiest_link(self, draw_fabric, data):
        fabric = draw_fabric(data, connected=True)
        n = fabric.n_hosts
        assume(n >= 2)
        placed = PlacedTopology(fabric, data.draw(st.permutations(range(n)), label="perm"))
        algorithm = data.draw(st.sampled_from(api.list_algorithms()), label="algorithm")
        if algorithm.startswith("alltoallv-"):
            entries = data.draw(
                st.lists(st.integers(0, 100_000), min_size=n * n, max_size=n * n),
                label="matrix",
            )
            run_arg = np.array(entries, dtype=np.int64).reshape(n, n)
        else:
            run_arg = data.draw(st.sampled_from((4_096, 70_000)), label="msg_size")
        gige = get_cluster("gigabit-ethernet")
        cluster = gige.with_overrides(
            topology_factory=lambda _: placed,
            loss=gige.loss if data.draw(st.booleans(), label="lossy") else None,
        )
        seed = data.draw(st.integers(0, 3), label="seed")
        program = ALGORITHMS.get(algorithm)
        loads, flows = _link_loads(placed, cluster.transport, lower_program(program, n, run_arg))
        bound = float(np.max(loads / np.asarray(placed.capacities())))
        for engine in ("fluid", "vector"):
            timeline = LinkTimeline.for_topology(placed, keep_series=False)
            result = ENGINES.get(engine)(cluster, n, program, run_arg, seed, timeline=timeline)
            assert result.duration >= bound, engine
            error = np.abs(timeline.delivered_bytes - loads)
            assert np.all(error <= 0.5 * flows + 1e-9 * loads), engine


class TestLossyVector:
    """The lossy overlay: acceptance, statistical equivalence with the
    fluid oracle, surfaced counters, stall/resume traces, determinism,
    and the warm-start solve cache."""

    #: Paired-seed configurations with measurable loss activity: the
    #: gige backplane saturates past n~11 (overload 9 at n=16) and the
    #: fast-ethernet fabric loses occasionally at the same scale.
    GIGE = ("gigabit-ethernet", 16, 1_000_000)
    FE = ("fast-ethernet", 16, 1_000_000)
    SEEDS = range(20)

    def test_lossy_profile_accepted(self):
        cluster = get_cluster("gigabit-ethernet")
        assert cluster.loss is not None and cluster.loss.enabled
        sample = measure_alltoall(cluster, 8, 4_096, reps=1, engine="vector")
        assert sample.mean_time > 0

    @pytest.mark.parametrize("config", (GIGE, FE), ids=("gige", "fe"))
    def test_statistical_equivalence(self, config):
        # Same stochastic process, different RNG streams: individual
        # runs differ, paired-seed means must agree within 10%.
        cluster_name, n, m = config
        cluster = get_cluster(cluster_name)
        fluid = [
            measure_alltoall(
                cluster, n, m, reps=1, seed=s, engine="fluid"
            ).mean_time
            for s in self.SEEDS
        ]
        vector = [
            measure_alltoall(
                cluster, n, m, reps=1, seed=s, engine="vector"
            ).mean_time
            for s in self.SEEDS
        ]
        fluid_mean = sum(fluid) / len(fluid)
        vector_mean = sum(vector) / len(vector)
        assert vector_mean == pytest.approx(fluid_mean, rel=0.10)

    def test_loss_counters_surfaced(self):
        cluster_name, n, m = self.GIGE
        cluster = get_cluster(cluster_name)
        before = REGISTRY.snapshot()
        measure_alltoall(cluster, n, m, reps=2, seed=0, engine="vector")
        delta = diff_snapshots(before, REGISTRY.snapshot())
        losses = delta["sim.losses"]["values"]["engine=vector"]
        stalls = delta["sim.stalls"]["values"]["engine=vector"]
        assert losses > 0
        assert 0 < stalls <= losses

    def test_result_total_losses_matches_stats(self):
        cluster_name, n, m = self.GIGE
        for engine in ("fluid", "vector"):
            before = REGISTRY.snapshot()
            measure_alltoall(
                get_cluster(cluster_name), n, m, reps=1, seed=0,
                engine=engine,
            )
            delta = diff_snapshots(before, REGISTRY.snapshot())
            assert delta["sim.losses"]["values"][f"engine={engine}"] > 0

    def test_stall_resume_trace(self):
        cluster_name, n, m = self.GIGE
        sample = measure_alltoall(
            get_cluster(cluster_name), n, m, reps=1, seed=0,
            engine="vector", observe=True,
        )
        trace = sample.observed.trace
        stalls = trace.by_category("flow.stall")
        resumes = trace.by_category("flow.resume")
        assert stalls and len(stalls) == len(resumes)
        by_fid = {r["fid"]: r for r in resumes}
        for stall in stalls:
            resume = by_fid[stall["fid"]]
            # The RTO gap: resume fires exactly penalty after the stall.
            assert resume.time == pytest.approx(
                stall.time + stall["penalty"]
            )
            assert stall["penalty"] >= 0.2  # rto_min
        # Completed flows report their loss counts (not hardcoded 0).
        completes = trace.by_category("flow.complete")
        assert sum(r["losses"] for r in completes) >= len(stalls)
        # The chrome exporter renders the new categories as instants.
        from repro.obs.export import to_chrome

        out = to_chrome(trace)
        assert "flow.stall" in out and "flow.resume" in out

    def test_cross_process_loss_determinism(self):
        # Named per-flow RNG streams make the loss sequence a pure
        # function of the seed: two fresh interpreters must produce an
        # identical stall-event timeline, bit for bit.
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.clusters.profiles import get_cluster\n"
            "from repro.measure.alltoall import measure_alltoall\n"
            "s = measure_alltoall(get_cluster('gigabit-ethernet'), 16,\n"
            "                     1_000_000, reps=1, seed=3,\n"
            "                     engine='vector', observe=True)\n"
            "trace = s.observed.trace\n"
            "events = [(float(r.time).hex(), r['fid'], r['backoff'],\n"
            "           float(r['penalty']).hex())\n"
            "          for r in trace.by_category('flow.stall')]\n"
            "print(json.dumps({'events': events,\n"
            "                  'duration': float(s.mean_time).hex()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONHASHSEED"] = "0"
        outputs = []
        for run in range(2):
            env["PYTHONHASHSEED"] = str(run)  # hash order must not matter
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, cwd=os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                ),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["events"], "expected loss events at this config"

    def test_lossless_runs_allocate_no_loss_state(self):
        from repro.simmpi.lowering import lower_program
        from repro.simnet.vector import VectorSimulator
        from repro.registry import ALGORITHMS

        cluster = _lossless("gigabit-ethernet")
        lowered = lower_program(ALGORITHMS.get("direct"), 6, 2_048)
        sim = VectorSimulator(
            cluster.topology(6), cluster.transport, nprocs=6,
            loss_params=cluster.loss, seed=0,
        )
        result = sim.run(lowered)
        assert result.total_losses == 0
        assert sim._loss_model is None
        assert len(sim._loss_budget) == 0


class TestCacheKeyStability:
    """Cache keys must stay byte-identical, or every user's result cache
    is silently invalidated.

    ``EXPECTED``, ``EXPECTED_PATTERN`` and ``EXPECTED_SCENARIO`` pin
    :func:`point_key` over :func:`profile_fingerprint` at its default
    probe sizes, the key scheme from before the engine layer.  The
    runner probes each point's fabric at the point's own n instead, so
    the file names it writes differ; ``EXPECTED_ON_DISK`` pins those.
    """

    EXPECTED = {
        "gigabit-ethernet":
            "85b64bc1fb89a639f7835b46e012923c2e3e06f008fb844be02128ec9827ac94",
        "fast-ethernet":
            "fc9c0702ef7825163475c409cd7c8f5e17e5a7cac67f4291298ebfeb6af82636",
        "myrinet":
            "0c55e19095873e30ddad88e9cb0e6a3e9659d21af0112b6403c4fa5196642b0a",
    }
    EXPECTED_PATTERN = (
        "a389d34fe2ab19c9f98053ce46ad84ba1e5155bc8af63ea02a6f7d8ef2993b71"
    )
    EXPECTED_SCENARIO = (
        "55ca616a477f1531164d90b03258eb676bea1baa6eacb55c6205c19d3a4b5661"
    )
    #: File names (without ``.json``) that ``SweepRunner`` writes for a
    #: GigE n=8 m=4096 ``direct`` seed-0 single-rep point, by variant.
    EXPECTED_ON_DISK = {
        "plain":
            "430837a208efe71c36ec091f88574d0bb0fbb1e63670a906580086359c7eae25",
        "hotspot":
            "993f49aca642c7eeed07db09d7ab9e10f186db34c820cd6e78eba97e3ffd3a47",
        "round-robin":
            "c4fcd46016fc8e06ef04798ba74f33ea62d4b1608028c27cb9c2e29dc6c900cf",
        "vector":
            "3c4ae48ec035e74b072c372d684b45bff04f45b895484fdb957414216b7c710d",
        "scenario":
            "a7d85aa8d845920415369b32c967b3c8111a78e6c5f09a872ba0179cf9595025",
    }

    @pytest.mark.parametrize("cluster_name", sorted(EXPECTED))
    def test_registry_cluster_keys_unchanged(self, cluster_name):
        point = SweepPoint(
            cluster=cluster_name, n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        key = point_key(point, profile_fingerprint(get_cluster(cluster_name)))
        assert key == self.EXPECTED[cluster_name]

    def test_pattern_point_key_unchanged(self):
        point = SweepPoint(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="bruck", seed=1, reps=2, pattern=as_pattern("zipf"),
        )
        key = point_key(
            point, profile_fingerprint(get_cluster("gigabit-ethernet"))
        )
        assert key == self.EXPECTED_PATTERN

    def test_scenario_point_key_unchanged(self):
        spec = ScenarioSpec(
            name="demo", base="gigabit-ethernet",
            transport={"jitter_scale": 0.0},
        )
        point = SweepPoint(
            cluster="demo", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        key = point_key(
            point, profile_fingerprint(spec.build_profile()),
            scenario=spec.cache_payload(),
        )
        assert key == self.EXPECTED_SCENARIO

    def test_runner_writes_the_pinned_keys(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        base = dict(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=1,
        )
        variants = {
            "plain": ({}, None),
            "hotspot": (
                {"pattern": {"name": "hotspot",
                             "params": {"targets": 2, "factor": 4.0}}},
                None,
            ),
            "round-robin": (
                {"placement": {"name": "round-robin", "params": {"groups": 2}}},
                None,
            ),
            "vector": ({"engine": "vector"}, None),
            "scenario": (
                {"cluster": "demo"},
                ScenarioSpec(
                    name="demo", base="gigabit-ethernet",
                    transport={"jitter_scale": 0.0},
                ),
            ),
        }
        written = {}
        for label, (fields, scenario) in variants.items():
            runner = SweepRunner(cache=ResultCache(tmp_path / label))
            try:
                runner.run_points(
                    [SweepPoint(**{**base, **fields})], scenario=scenario
                )
            finally:
                runner.close()
            written[label] = [
                path.stem for path in (tmp_path / label).rglob("*.json")
            ]
        assert written == {
            label: [key] for label, key in self.EXPECTED_ON_DISK.items()
        }

    def test_non_default_engine_changes_key(self):
        base = SweepPoint(
            cluster="myrinet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        vec = dataclasses.replace(base, engine="vector")
        fingerprint = profile_fingerprint(get_cluster("myrinet"))
        assert "engine" not in base.key_payload()
        assert vec.key_payload()["engine"] == "vector"
        assert point_key(base, fingerprint) != point_key(vec, fingerprint)


class TestEngineThreading:
    def test_point_resolves_default_engine_eagerly(self):
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1,
        )
        assert point.engine == DEFAULT_ENGINE

    def test_point_canonicalises_alias(self):
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1, engine="batched",
        )
        assert point.engine == "vector"

    def test_sweep_spec_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SweepSpec(
                clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
                engine="verlet",
            )

    def test_sweep_spec_threads_engine_to_points(self):
        spec = SweepSpec(
            clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
            engine="vector",
        )
        assert all(p.engine == "vector" for p in spec.points())

    def test_scenario_spec_collapses_default_engine(self):
        spec = ScenarioSpec(name="d", base="myrinet", engine="fluid")
        assert spec.engine is None
        assert "engine" not in spec.to_dict()
        assert "engine" not in spec.cache_payload()

    def test_scenario_spec_round_trips_engine(self):
        spec = ScenarioSpec(name="d", base="myrinet", engine="vector")
        assert spec.engine == "vector"
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.cache_payload()["engine"] == "vector"

    def test_scenario_spec_rejects_unknown_engine(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            ScenarioSpec(name="d", base="myrinet", engine="verlet")

    def test_measure_rejects_unknown_engine(self):
        with pytest.raises(MeasurementError, match="unknown"):
            measure_alltoall(
                get_cluster("myrinet"), 4, 2048, reps=1, engine="verlet"
            )


class TestEnvDefault:
    def test_default_is_fluid(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert default_engine() == "fluid"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert default_engine() == "vector"
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1,
        )
        assert point.engine == "vector"
        assert point.key_payload()["engine"] == "vector"

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "verlet")
        with pytest.raises(UnknownNameError, match=ENGINE_ENV):
            default_engine()


class TestStatsColumns:
    def test_rows_plain_by_default(self, monkeypatch):
        from repro.exec.sinks import ROW_FIELDS, row_fields

        monkeypatch.delenv("REPRO_SIM_STATS", raising=False)
        assert row_fields() == ROW_FIELDS

    def test_stats_columns_when_enabled(self, monkeypatch):
        from repro.exec.sinks import ROW_FIELDS, STATS_ROW_FIELDS, row_fields
        from repro.sweeps.runner import SweepRunner

        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        assert row_fields() == ROW_FIELDS + STATS_ROW_FIELDS
        runner = SweepRunner(workers=1, cache=None, executor="serial")
        spec = SweepSpec(
            clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
            reps=1, engine="vector",
        )
        result = runner.run(spec)
        fields, rows = result.to_rows()
        assert fields == ROW_FIELDS + STATS_ROW_FIELDS
        row = rows[0]
        assert row["engine"] == "vector"
        assert row["sim_resolves"] > 0
        assert row["sim_epochs"] > 0
        assert row["sim_events"] > 0
        # Myrinet is lossless: counters present, zero.
        assert row["sim_losses"] == 0
        assert row["sim_stalls"] == 0

    def test_row_counts_sum_over_reps(self, monkeypatch):
        from repro.exec.sinks import STATS_ROW_FIELDS
        from repro.sweeps.runner import SweepRunner

        def engine(cluster, n_processes, program, run_arg, seed):
            return RunResult(
                duration=1.0, rank_finish_times=[1.0] * n_processes,
                events_processed=11, flows_completed=12, total_losses=1,
                max_concurrent_flows=2, solves=3, epochs=5, stalls=1,
            )

        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        ENGINES.register("test-fixed-counts", engine)
        try:
            point = SweepPoint(
                "myrinet", 4, 2048, "direct", 0, 2, engine="test-fixed-counts"
            )
            before = REGISTRY.snapshot()
            result = SweepRunner(workers=1, cache=None).run_points([point])
            delta = diff_snapshots(before, REGISTRY.snapshot())
        finally:
            ENGINES.unregister("test-fixed-counts")
        row = result.to_rows()[1][0]
        assert row["engine"] == "test-fixed-counts"
        cells = [row[field] for field in STATS_ROW_FIELDS[1:]]
        # solves, epochs, events, losses, stalls; two reps.
        assert cells == [6, 10, 22, 2, 2]
        assert all(type(cell) is int for cell in cells)
        # A user-registered engine's runs carry its own registry name.
        assert delta["sim.runs"]["values"] == {"engine=test-fixed-counts": 2.0}

    def test_cache_hits_and_failed_points_keep_empty_cells(
        self, monkeypatch, tmp_path
    ):
        from repro.exec.sinks import STATS_ROW_FIELDS
        from repro.sweeps.cache import ResultCache
        from repro.sweeps.runner import SweepRunner

        calls = []

        def engine(cluster, n_processes, program, run_arg, seed):
            # The first rep runs and is counted; the second one fails.
            calls.append(seed)
            if len(calls) == 2:
                raise RuntimeError("second rep failed")
            return ENGINES.get("fluid")(
                cluster, n_processes, program, run_arg, seed
            )

        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        good = SweepPoint("myrinet", 4, 2048, "direct", 0, 1)
        cache = ResultCache(tmp_path)
        ENGINES.register("test-fails-second-rep", engine)
        try:
            bad = SweepPoint(
                "myrinet", 4, 2048, "direct", 0, 2,
                engine="test-fails-second-rep",
            )
            first = SweepRunner(cache=cache, on_error="keep").run_points(
                [good, bad]
            )
        finally:
            ENGINES.unregister("test-fails-second-rep")
        second = SweepRunner(cache=cache).run_points([good])
        simulated, failed = first.to_rows()[1]
        (hit,) = second.to_rows()[1]
        assert simulated["sim_events"] > 0
        assert failed["error"] and hit["cached"]
        for row in (failed, hit):
            assert [row[f] for f in STATS_ROW_FIELDS[1:]] == [""] * 5
        assert first.results[1].sim_counts is None
        assert second.results[0].sim_counts is None

    def test_point_results_hold_no_counts_without_the_flag(self, monkeypatch):
        from repro.sweeps.runner import SweepRunner

        monkeypatch.delenv("REPRO_SIM_STATS", raising=False)
        result = SweepRunner(cache=None).run_points(
            [SweepPoint("myrinet", 4, 2048, "direct", 0, 1)]
        )
        (point,) = result.results
        assert point.ok and point.sim_counts is None


class TestCli:
    def test_list_engines(self, capsys):
        assert main(["list", "engines"]) == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "vector" in out

    def test_sweep_unknown_engine_clean_exit(self, capsys):
        code = main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "verlet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'verlet'" in err

    def test_characterize_unknown_engine_clean_exit(self, capsys):
        assert main(["characterize", "myrinet", "--engine", "verlet"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_sweep_vector_engine_runs(self, capsys):
        code = main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "vector",
        ])
        assert code == 0
        assert "simulated : 1" in capsys.readouterr().out

    def test_sweep_vector_on_lossy_cluster_runs(self, capsys):
        # Loss-enabled profiles run on the vector engine since the loss
        # overlay was vectorized (they used to be rejected).
        code = main([
            "sweep", "--clusters", "gigabit-ethernet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "vector",
        ])
        assert code == 0
        assert "simulated : 1" in capsys.readouterr().out


def _golden_config(name: str):
    """``(cluster, n, run_arg, algorithm)`` of one frozen golden config."""
    from repro.placement import apply_placement, as_placement

    gige = get_cluster("gigabit-ethernet")
    if name == "gige-lossless-n64-direct":
        quiet = gige.with_overrides(
            loss=None, start_skew_scale=0.0,
            transport=dataclasses.replace(gige.transport, jitter_scale=0.0),
        )
        return quiet, 64, 4_096, "direct"
    if name == "gige-jitter-n32-rounds":
        return gige.with_overrides(loss=None), 32, 4_096, "rounds"
    if name == "fe-rendezvous-n16":
        return _lossless("fast-ethernet"), 16, 70_000, "direct"
    if name == "fe-two-edge-n24":
        # Above hosts_per_edge=20: flows cross trunks and the core
        # backplane, so the exact fill walks many bottleneck levels.
        return _lossless("fast-ethernet"), 24, 8_192, "direct"
    if name == "gige-lossy-n16":
        return gige, 16, 1_000_000, "direct"
    assert name == "myrinet-round-robin-n16"
    placement = as_placement({"name": "round-robin", "params": {"groups": 4}})
    return apply_placement(get_cluster("myrinet"), placement), 16, 8_192, "direct"


class TestBitIdentityGoldens:
    """Frozen ``float.hex()`` durations, event counts and loss counts.

    The equivalence suite checks 1e-6 relative and the lossy path only
    statistically, so any drift in event order or float arithmetic of
    either engine shows up here first.  Each entry is
    ``(duration hex, events_processed, total_losses, stalls)`` of one
    engine run at seed 0.
    """

    GOLDEN = {
        ("gige-lossless-n64-direct", "fluid"): ("0x1.df583fb21c9d3p-7", 8194, 0, 0),
        ("gige-lossless-n64-direct", "vector"): ("0x1.df583fb21c9d3p-7", 8194, 0, 0),
        ("gige-jitter-n32-rounds", "fluid"): ("0x1.169c3142de7e6p-8", 4990, 0, 0),
        ("gige-jitter-n32-rounds", "vector"): ("0x1.169c3142de7e6p-8", 4990, 0, 0),
        ("fe-rendezvous-n16", "fluid"): ("0x1.ba4db34910fdcp-3", 1395, 0, 0),
        ("fe-rendezvous-n16", "vector"): ("0x1.ba4db34910fdcp-3", 1395, 0, 0),
        ("fe-two-edge-n24", "fluid"): ("0x1.c95a5df91ed77p-3", 2497, 0, 0),
        ("fe-two-edge-n24", "vector"): ("0x1.c95a5df91ed78p-3", 2497, 0, 0),
        ("gige-lossy-n16", "fluid"): ("0x1.9cb4afe4a7b35p-2", 1451, 4, 4),
        ("gige-lossy-n16", "vector"): ("0x1.8f39438da9c55p-2", 1462, 10, 10),
        ("myrinet-round-robin-n16", "fluid"): ("0x1.c6003e0a0a0ebp-10", 992, 0, 0),
        ("myrinet-round-robin-n16", "vector"): ("0x1.c6003e0a0a0ebp-10", 992, 0, 0),
    }

    @pytest.mark.parametrize(
        "config, engine", sorted(GOLDEN), ids=lambda value: str(value)
    )
    def test_run_matches_golden(self, config, engine):
        cluster, n, run_arg, algorithm = _golden_config(config)
        result = ENGINES.get(engine)(
            cluster, n, ALGORITHMS.get(algorithm), run_arg, 0
        )
        got = (
            float(result.duration).hex(), result.events_processed,
            result.total_losses, result.stalls,
        )
        assert got == self.GOLDEN[(config, engine)]

    @pytest.mark.parametrize("engine", ["fluid", "vector"])
    def test_run_fills_every_count(self, engine):
        cluster, n, run_arg, algorithm = _golden_config("gige-lossy-n16")
        result = ENGINES.get(engine)(
            cluster, n, ALGORITHMS.get(algorithm), run_arg, 0
        )
        assert result.solves > 0 and result.epochs > 0
        assert 0 < result.stalls <= result.total_losses


def _trace_config(name: str):
    """``(cluster, n, run_arg)`` of one frozen trace config (``direct``)."""
    gige = get_cluster("gigabit-ethernet")
    if name == "gige-stock-n8":
        return gige, 8, 4_096  # jitter, start skew and the loss overlay
    if name == "fe-rendezvous-n8":
        return get_cluster("fast-ethernet"), 8, 70_000
    if name == "myrinet-one-send-n8":
        return get_cluster("myrinet"), 8, 8_192  # sender_concurrency=1
    assert name == "gige-quiet-n16"
    quiet = gige.with_overrides(
        loss=None, start_skew_scale=0.0,
        transport=dataclasses.replace(gige.transport, jitter_scale=0.0),
    )
    return quiet, 16, 4_096


def _trace_digest(trace) -> str:
    """SHA-256 over every record: category, ``time.hex()`` and payload
    (keys sorted, floats as ``float.hex()``)."""
    import hashlib

    digest = hashlib.sha256()
    for record in trace:
        payload = sorted(
            (key, value.hex() if isinstance(value, float) else repr(value))
            for key, value in record.payload.items()
        )
        digest.update(
            repr((record.category, float(record.time).hex(), payload)).encode()
        )
    return digest.hexdigest()


class TestTraceGoldens:
    """Frozen digests of whole traces, protocol and network records alike.

    Both engines run the same protocol replay, so a replay change that
    moves both alike still passes ``test_protocol_trace_matches``; these
    digests catch it.  The configs cover jitter, skew and loss (stock
    GigE), rendezvous with receiver demultiplexing (Fast Ethernet at
    70,000 B), sends queued on busy pair channels (Myrinet,
    ``sender_concurrency=1``) and long runs of simultaneous members
    (lossless GigE without jitter or skew).
    """

    GOLDEN = {
        ("gige-stock-n8", "fluid"):
            "123019ba72e1e7992d47d7ba44f4b9c0404e752f8a5acac0a1a3b32610f36516",
        ("gige-stock-n8", "vector"):
            "8776d69028c377b77aff33968051485252ce8ed908ccd3405d1d978c6f3f886d",
        ("fe-rendezvous-n8", "fluid"):
            "4591f76fc2eddbe330e9522d0307bfc81a0cdda586613719bbe45487c1f7a38b",
        ("fe-rendezvous-n8", "vector"):
            "14bab16ea3a6c1a70c20e6ef8ddd4a16220b1e51555b2a2fac8f8a53cabdf742",
        ("myrinet-one-send-n8", "fluid"):
            "118783004d7b509f6d1ea391a93ef0e1c2de7d08f7c803605e79cee79e8a83d0",
        ("myrinet-one-send-n8", "vector"):
            "dfcac519d7da20cbf91453c2fe84beb62a59daf95000a5d2a8a469269a75947d",
        ("gige-quiet-n16", "fluid"):
            "ba426687b775e448cf2fa05d2e1c16279f2bd32910921c3b3be708448c493a28",
        ("gige-quiet-n16", "vector"):
            "cb0955cdfb304e0e74b920f05988e445ebe7ad6d624adb432413e7798e74868d",
    }

    @pytest.mark.parametrize(
        "config, engine", sorted(GOLDEN), ids=lambda value: str(value)
    )
    def test_trace_matches_golden(self, config, engine):
        from repro.simnet.trace import Trace

        cluster, n, run_arg = _trace_config(config)
        trace = Trace()
        ENGINES.get(engine)(
            cluster, n, ALGORITHMS.get("direct"), run_arg, 0, trace=trace
        )
        assert _trace_digest(trace) == self.GOLDEN[(config, engine)]


class TestMemoryFootprint:
    """The vector engine keeps no Python object per message.

    Lowering and replay hold typed columns and bulk kernel entries, so
    the traced peak of a whole run grows by a few hundred bytes per
    message.  Per-message closures, heap entries and op tuples cost
    about 1.4 KiB per message together and break the bound.
    """

    #: Peak traced bytes per message of the run below; it measures
    #: about 510 on CPython 3.11 with NumPy 2.
    BOUND = 700

    def test_vector_run_peak_per_message(self):
        gige = get_cluster("gigabit-ethernet")
        cluster = gige.with_overrides(
            loss=None, start_skew_scale=0.0,
            transport=dataclasses.replace(gige.transport, jitter_scale=0.0),
        )
        n = 64
        tracemalloc.start()
        try:
            ENGINES.get("vector")(cluster, n, ALGORITHMS.get("direct"), 4096, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * (n - 1)) <= self.BOUND


class TestCollectorWindow:
    """``measure_alltoall`` pauses the cyclic GC around each engine call
    and always restores the caller's collector state."""

    @pytest.fixture
    def probe(self):
        seen = []

        def engine(cluster, n_processes, program, run_arg, seed):
            seen.append(gc.isenabled())
            if probe_state["raise"]:
                raise RuntimeError("engine failed")
            return RunResult(
                duration=1.0, rank_finish_times=[1.0] * n_processes,
                events_processed=0, flows_completed=0, total_losses=0,
                max_concurrent_flows=0,
            )

        probe_state = {"raise": False, "seen": seen}
        ENGINES.register("gc-probe", engine)
        try:
            yield probe_state
        finally:
            ENGINES.unregister("gc-probe")

    @pytest.fixture
    def collector(self):
        was_enabled = gc.isenabled()
        try:
            yield
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def _measure(self):
        return measure_alltoall(
            get_cluster("myrinet"), 4, 2_048, reps=2, engine="gc-probe"
        )

    @pytest.mark.parametrize("enabled", (True, False))
    def test_state_restored(self, probe, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        self._measure()
        assert probe["seen"] == [False, False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", (True, False))
    def test_state_restored_when_engine_raises(self, probe, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        probe["raise"] = True
        with pytest.raises(RuntimeError, match="engine failed"):
            self._measure()
        assert probe["seen"] == [False]
        assert gc.isenabled() is enabled


class TestSenderSchedulers:
    """The per-host admission queue both engines share dispatches in
    FIFO order, skipping (but keeping in place) messages whose pair
    channel is busy, and never past the concurrency cap; every dispatch
    counts one open flow at its destination until it is released."""

    @pytest.fixture
    def make(self):
        from repro.simmpi.protocol import _HostScheduler

        def build(dsts, cap):
            injected, released = [], []
            inbound = [0] * (max(dsts) + 1)
            scheduler = _HostScheduler(dsts, inbound, cap)

            def check_counts():
                open_mids = [mid for mid in injected if mid not in released]
                assert inbound == [
                    sum(dsts[mid] == dst for mid in open_mids)
                    for dst in range(len(inbound))
                ]

            def submit(mid):
                scheduler.submit(mid, injected.append)
                check_counts()

            def release(mid):
                # What ProtocolReplay.flows_done does as a payload leaves.
                inbound[dsts[mid]] -= 1
                released.append(mid)
                scheduler.in_flight -= 1
                scheduler.busy[dsts[mid]] = 0
                scheduler.pump(injected.append)
                check_counts()

            return injected, submit, release

        return build

    def test_busy_pair_waits_in_place(self, make):
        injected, submit, release = make([1, 1, 2, 1, 3], None)
        for mid in range(5):
            submit(mid)
        assert injected == [0, 2, 4]
        release(0)
        assert injected == [0, 2, 4, 1]
        release(2)
        assert injected == [0, 2, 4, 1]
        release(1)
        assert injected == [0, 2, 4, 1, 3]

    def test_cap_dispatches_in_fifo_order(self, make):
        injected, submit, release = make([1, 2, 3, 4], 1)
        for mid in range(4):
            submit(mid)
        assert injected == [0]
        for mid in range(3):
            release(mid)
            assert injected == list(range(mid + 2))

    def test_skipped_message_keeps_its_place_at_the_cap(self, make):
        injected, submit, release = make([1, 1, 2, 3, 4], 2)
        for mid in (0, 4, 1, 2, 3):
            submit(mid)
        assert injected == [0, 4]
        release(4)  # one free slot: message 1's pair is busy, 2 goes
        assert injected == [0, 4, 2]
        release(0)  # pair 1 frees: 1 goes ahead of 3, queued after it
        assert injected == [0, 4, 2, 1]
        release(2)
        assert injected == [0, 4, 2, 1, 3]


def _gather(ctx, nbytes):
    """Every other rank sends *nbytes* to rank 0 at once."""
    if ctx.rank == 0:
        yield [ctx.irecv(src, tag=0) for src in range(1, ctx.size)]
    else:
        yield ctx.isend(0, nbytes)


class TestReceiverCount:
    """The replay counts each destination's open flows on both engines:
    k equal payloads into one receiver finish in one ``flows_done``
    batch, each sees k, and demultiplexing is charged exactly when
    ``mux_min_inbound <= k``."""

    K = 4
    MUX = 1e-3

    @pytest.fixture
    def batches(self, monkeypatch):
        from repro.simmpi.protocol import ProtocolReplay

        seen = []
        original = ProtocolReplay.flows_done

        def recording(replay, mids):
            seen.append([replay._inbound[replay.msg_dst[mid]] for mid in mids])
            original(replay, mids)

        monkeypatch.setattr(ProtocolReplay, "flows_done", recording)
        return seen

    def _run(self, engine, mux_min_inbound):
        from repro.simmpi.runtime import Runtime
        from repro.simmpi.transport import TransportParams
        from repro.simnet.topology import single_switch
        from repro.simnet.vector import VectorSimulator

        n = self.K + 1
        transport = TransportParams(
            mux_overhead=self.MUX, mux_threshold=1_024,
            mux_min_inbound=mux_min_inbound, jitter_scale=0.0,
        )
        topology = single_switch(n, nic_bandwidth=100e6)
        if engine == "fluid":
            model = Runtime(topology, transport, nprocs=n)
            result = model.run(_gather, 4_096)
        else:
            model = VectorSimulator(topology, transport, nprocs=n)
            result = model.run(lower_program(_gather, n, 4_096))
        # Every flow was reported, so none is left open.
        assert model._replay._inbound == [0] * n
        return result

    @pytest.mark.parametrize("engine", ("fluid", "vector"))
    def test_payloads_that_finish_together_see_each_other(self, batches, engine):
        k = self.K
        charged = self._run(engine, mux_min_inbound=k)
        assert batches == [[k] * k]
        free = self._run(engine, mux_min_inbound=k + 1)
        assert batches == [[k] * k] * 2
        # The receive CPU serves the k demultiplexed arrivals one by one.
        assert charged.duration - free.duration == pytest.approx(k * self.MUX, rel=1e-9)
