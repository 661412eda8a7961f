"""The engine layer: registry, lowering, vector-vs-fluid equivalence,
cache-key stability, env/CLI plumbing and the stats columns."""

from __future__ import annotations

import dataclasses
import gc

import pytest

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
from repro.registry import ALGORITHMS, ENGINES
from repro.scenario import ScenarioSpec
from repro.simmpi.lowering import lower_program
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

    def test_loss_counters_surfaced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        cluster_name, n, m = self.GIGE
        cluster = get_cluster(cluster_name)
        sample = measure_alltoall(
            cluster, n, m, reps=2, seed=0, engine="vector"
        )
        stats = sample.sim_stats
        assert stats.engine == "vector"
        assert stats.losses > 0
        assert 0 < stats.stalls <= stats.losses

    def test_result_total_losses_matches_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        cluster_name, n, m = self.GIGE
        for engine in ("fluid", "vector"):
            sample = measure_alltoall(
                get_cluster(cluster_name), n, m, reps=1, seed=0,
                engine=engine,
            )
            assert sample.sim_stats.losses > 0

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

    def test_solve_reuse_when_set_unchanged(self):
        # White-box: a resolve that sees the exact same active set skips
        # the max-min solve and reuses the cached rates/CSR.
        import numpy as np

        from repro.simmpi.lowering import lower_program
        from repro.simnet.vector import VectorSimulator

        cluster = _lossless("gigabit-ethernet")
        from repro.registry import ALGORITHMS

        program = ALGORITHMS.get("direct")
        lowered = lower_program(program, 8, 4_096)
        sim = VectorSimulator(
            cluster.topology(8), cluster.transport, nprocs=8,
            loss_params=cluster.loss, seed=0,
        )
        sim.run(lowered)
        remote = [
            mid for mid in range(len(sim._msg_wire)) if not sim._msg_local[mid]
        ][:4]
        sim._act_mids = np.asarray(remote, dtype=np.int64)
        sim._act_remaining = np.full(len(remote), 1e8)
        sim._last_advance = sim.engine.now
        sim._structure_dirty = False
        sim._solve_mids = None
        solves_before = sim.solves
        sim._resolve()
        assert sim.solves == solves_before + 1
        rates = sim._act_rates
        reuses_before = sim.solve_reuses
        sim._resolve()  # dt == 0, same set: must not re-solve
        assert sim.solves == solves_before + 1
        assert sim.solve_reuses == reuses_before + 1
        assert sim._act_rates is rates

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
    """Default-engine cache keys must stay byte-identical to the
    pre-engine-layer (PR 5) filenames, or every user's result cache is
    silently invalidated."""

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

    def test_sample_carries_merged_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        sample = measure_alltoall(
            get_cluster("myrinet"), 4, 2048, reps=2, engine="fluid"
        )
        stats = getattr(sample, "sim_stats", None)
        assert stats is not None and stats.engine == "fluid"
        assert stats.resolves > 0


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
            result.total_losses, result.stats.stalls,
        )
        assert got == self.GOLDEN[(config, engine)]


class TestCollectorWindow:
    """``measure_alltoall`` pauses the cyclic GC around each engine call
    and always restores the caller's collector state."""

    @pytest.fixture
    def probe(self):
        import types

        seen = []

        def engine(cluster, n_processes, program, run_arg, seed):
            seen.append(gc.isenabled())
            if probe_state["raise"]:
                raise RuntimeError("engine failed")
            return types.SimpleNamespace(duration=1.0, stats=None)

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
    """Both engines' per-host admission queues dispatch in FIFO order,
    skipping (but keeping in place) messages whose pair channel is busy,
    and never past the concurrency cap."""

    @staticmethod
    def _vector(dsts, cap):
        from repro.simnet.vector import _HostScheduler

        injected = []
        scheduler = _HostScheduler(dsts, cap)
        return (
            injected,
            lambda mid: scheduler.submit(mid, injected.append),
            lambda mid: scheduler.release(mid, injected.append),
        )

    @staticmethod
    def _runtime(dsts, cap):
        import types

        from repro.simmpi.runtime import _SenderScheduler

        injected = []
        runtime = types.SimpleNamespace(
            _start_flow=lambda message: injected.append(message.mid)
        )
        scheduler = _SenderScheduler(runtime, 0, cap)
        messages = [
            types.SimpleNamespace(mid=mid, dst=dst) for mid, dst in enumerate(dsts)
        ]
        return (
            injected,
            lambda mid: scheduler.submit(messages[mid]),
            lambda mid: scheduler.release(messages[mid]),
        )

    @pytest.fixture(params=("vector", "runtime"))
    def make(self, request):
        return getattr(self, f"_{request.param}")

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
