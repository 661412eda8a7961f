"""Unit tests for the command-line interface."""

import os
from pathlib import Path

import pytest

from repro import api
from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "tableS" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig06", "--scale", "smoke"])
        assert args.experiment == "fig06"
        assert args.scale == "smoke"


class TestPredict:
    def test_predict_prints_estimate(self, capsys):
        assert main(["predict", "gigabit-ethernet", "40", "1024kB"]) == 0
        out = capsys.readouterr().out
        assert "prediction" in out
        assert "lower bound" in out

    def test_predict_parses_size_strings(self, capsys):
        assert main(["predict", "myrinet", "24", "256kB"]) == 0

    def test_predict_beta_includes_wire_framing(self, capsys):
        # The β behind the printed prediction must come through the
        # transport's wire-byte accounting, not the raw 1/capacity.
        from repro.clusters.profiles import get_cluster
        from repro.core.hockney import HockneyParams
        from repro.core.signature import ContentionSignature
        from repro.units import format_time

        cluster = get_cluster("gigabit-ethernet")
        size = 1_048_576
        topology = cluster.topology(2)
        capacity = topology.links[topology.hosts[0].tx_link].capacity
        beta = cluster.transport.effective_beta(size, capacity)
        assert beta > 1.0 / capacity  # framing strictly inflates β
        expected = ContentionSignature(
            gamma=cluster.paper.gamma,
            delta=cluster.paper.delta,
            threshold=cluster.paper.threshold,
            hockney=HockneyParams(
                alpha=cluster.transport.base_latency, beta=beta
            ),
        ).predict(40, size)

        assert main(["predict", "gigabit-ethernet", "40", "1024kB"]) == 0
        out = capsys.readouterr().out
        assert format_time(float(expected)) in out


class TestRunSmoke:
    def test_run_experiment_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig02.csv"
        assert main([
            "run", "fig02", "--scale", "smoke", "--csv", str(csv_path)
        ]) == 0
        out = capsys.readouterr().out
        assert "Average bandwidth" in out
        assert csv_path.exists()

    def test_characterize_small(self, capsys):
        assert main([
            "characterize", "gigabit-ethernet", "--nprocs", "6",
            "--reps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "signature" in out
        assert "gamma" in out


SCENARIO_TOML = """
[scenario]
name = "cli-test-scenario"
base = "gigabit-ethernet"

[scenario.transport]
mux_overhead = 6.0e-3

[scenario.workload]
nprocs = [4]
sizes = ["1kB", "2kB", "4kB", "8kB"]
reps = 1
"""


#: ``list experiments``, line for line: each experiment's id, paper
#: reference and description.
EXPERIMENT_LISTING = """\
  fig02   Fig. 2         average bandwidth vs simultaneous connections (GigE stress)
  fig03   Fig. 3         individual 32 MB transmission times under flood (GigE)
  fig04   Fig. 4         two-beta synthetic prediction vs measurement, 40 procs GigE
  fig05   Fig. 5         small-message non-linearity surface (GigE, 256 B steps)
  fig06   Fig. 6         Fast Ethernet fit at 24 machines (gamma/delta)
  fig07   Fig. 7         Fast Ethernet prediction surface
  fig08   Fig. 8         Fast Ethernet estimation error vs process count
  fig09   Fig. 9         Gigabit Ethernet fit at 40 machines (gamma/delta)
  fig10   Fig. 10        Gigabit Ethernet prediction surface
  fig11   Fig. 11        Gigabit Ethernet estimation error vs process count
  fig12   Fig. 12        Myrinet fit at 24 processes (gamma only)
  fig13   Fig. 13        Myrinet prediction surface
  fig14   Fig. 14        Myrinet estimation error vs process count
  tableM  §8 claim       cost-model shootout: Hockney vs contention-signature error gap, \
all three networks
  tableP  §4 analysis    rank placement: avoided vs incurred contention on the edge-core \
GigE stress fabric, predicted and simulated
  tableS  §8 parameters  fitted signatures vs paper values, all three networks
"""


class TestListSections:
    def test_experiment_listing_is_pinned(self, capsys):
        assert main(["list", "experiments"]) == 0
        assert capsys.readouterr().out == EXPERIMENT_LISTING

    def test_list_all_includes_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("experiments:", "clusters:", "topologies:",
                        "algorithms:", "backends:"):
            assert section in out
        assert "gigabit-ethernet" in out
        assert "edge-core" in out
        assert "bruck" in out
        assert "mpi4py" in out

    @pytest.mark.parametrize("section, names", [
        ("clusters", {"gigabit-ethernet"}),
        ("executors", {"serial", "process"}),
        ("placement-optimizers", {"greedy", "anneal"}),
    ], ids=["clusters", "executors", "placement-optimizers"])
    def test_list_single_section(self, capsys, section, names):
        assert main(["list", section]) == 0
        out = capsys.readouterr().out
        assert names <= {line.split()[0] for line in out.splitlines() if line.strip()}
        assert "fig06" not in out


def _scenario_with(tmp_path, head: str) -> str:
    """The inline test scenario with *head* in place of its ``base`` line."""
    path = tmp_path / "named.toml"
    path.write_text(SCENARIO_TOML.replace('base = "gigabit-ethernet"', head))
    return str(path)


class TestUnknownNameLines:
    """Every entry point prints the registry's own one line, exit code 2."""

    @pytest.mark.parametrize("argv, kind, registry", [
        (["sweep", "--engine", "nosuch"], "engine", api.ENGINES),
        (["run", "fig02", "--engine", "nosuch"], "engine", api.ENGINES),
        (["characterize", "myrinet", "--engine", "nosuch"], "engine", api.ENGINES),
        (["trace", "myrinet", "--engine", "nosuch"], "engine", api.ENGINES),
        (["sweep", "--placement", "nosuch:groups=2"], "placement", api.PLACEMENTS),
        (["run", "fig02", "--placement", "nosuch"], "placement", api.PLACEMENTS),
        (["optimize-placement", "myrinet", "--optimizer", "nosuch"],
         "placement optimizer", api.PLACEMENT_OPTIMIZERS),
        (["optimize-placement", "myrinet", "--pattern", "nosuch:x=1"],
         "pattern", api.PATTERNS),
        (["characterize", "nosuch"], "cluster", api.CLUSTERS),
        (["predict", "nosuch", "8", "64kB"], "cluster", api.CLUSTERS),
        (["trace", "nosuch"], "cluster", api.CLUSTERS),
        (["optimize-placement", "nosuch"], "cluster", api.CLUSTERS),
        (["fit", "nosuch"], "cluster", api.CLUSTERS),
        (["compare-models", "nosuch"], "cluster", api.CLUSTERS),
        (["fit", "myrinet", "--model", "nosuch"], "model", api.MODELS),
        (["compare-models", "myrinet", "--models", "hockney,nosuch"],
         "model", api.MODELS),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_flag_names(self, capsys, argv, kind, registry):
        assert main(argv) == 2
        known = ", ".join(registry.names())
        assert capsys.readouterr().err.splitlines() == [
            f"unknown {kind} 'nosuch'; known: {known}"
        ]

    @pytest.mark.parametrize("head, kind, registry", [
        ('base = "nosuch"', "cluster", api.CLUSTERS),
        ('base = "myrinet"\nalgorithm = "nosuch"', "algorithm", api.ALGORITHMS),
        ('base = "myrinet"\nmodel = "nosuch"', "model", api.MODELS),
        ('base = "myrinet"\nengine = "nosuch"', "engine", api.ENGINES),
        ('base = "myrinet"\n[scenario.topology]\nfactory = "nosuch"',
         "topology", api.TOPOLOGIES),
    ], ids=["cluster", "algorithm", "model", "engine", "topology"])
    def test_scenario_names(self, tmp_path, capsys, head, kind, registry):
        path = _scenario_with(tmp_path, head)
        known = ", ".join(registry.names())
        for argv in (
            ["run", "--scenario", path], ["sweep", "--scenario", path],
            ["characterize", path], ["fit", path], ["compare-models", path],
            ["predict", path, "8", "1kB"], ["optimize-placement", path],
            ["trace", path],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"unknown {kind} 'nosuch'; known: {known}"
            ]

    @pytest.mark.parametrize("scenario", [False, True], ids=["flags", "scenario"])
    def test_sweep_models_checked_before_any_point(
        self, tmp_path, capsys, monkeypatch, scenario
    ):
        from repro.sweeps import SweepRunner

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before --models was checked")

        monkeypatch.setattr(SweepRunner, "run_points", no_points)
        grid = (
            ["--scenario", _scenario_with(tmp_path, 'base = "myrinet"')]
            if scenario else ["--clusters", "myrinet"]
        )
        assert main(["sweep", *grid, "--models", "nosuch", "--no-cache"]) == 2
        known = ", ".join(api.MODELS.names())
        assert capsys.readouterr().err.splitlines() == [
            f"unknown model 'nosuch'; known: {known}"
        ]

    def test_sweep_unknown_clusters(self, capsys):
        assert main(["sweep", "--clusters", "myrinet,nosuch", "--no-cache"]) == 2
        known = ", ".join(api.CLUSTERS.names())
        assert capsys.readouterr().err.splitlines() == [
            f"unknown clusters ['nosuch']; known: {known}"
        ]


#: One-point command lines with a bad n or m, and the line each prints.
BAD_POINTS = [
    (["predict", "gigabit-ethernet", "8", "12qB"],
     "invalid msg_size: cannot parse size '12qB'"),
    (["predict", "gigabit-ethernet", "8", "-5"],
     "invalid msg_size: cannot parse size '-5'"),
    (["predict", "gigabit-ethernet", "0", "1kB"],
     "invalid nprocs: All-to-All needs at least 2 processes, got 0"),
    (["predict", "gigabit-ethernet", "1", "1kB"],
     "invalid nprocs: All-to-All needs at least 2 processes, got 1"),
    (["optimize-placement", "gigabit-ethernet", "--nprocs", "1"],
     "invalid --nprocs: All-to-All needs at least 2 processes, got 1"),
    (["optimize-placement", "gigabit-ethernet", "--size", "12qB"],
     "invalid --size: cannot parse size '12qB'"),
    (["optimize-placement", "gigabit-ethernet", "--size", "0"],
     "invalid --size: a message needs at least 1 byte"),
    (["trace", "gigabit-ethernet", "--nprocs", "1"],
     "invalid --nprocs: All-to-All needs at least 2 processes, got 1"),
    (["trace", "gigabit-ethernet", "--size", "0"],
     "invalid --size: a message needs at least 1 byte"),
    (["optimize-placement", "gigabit-ethernet", "--nprocs", "0"],
     "invalid --nprocs: All-to-All needs at least 2 processes, got 0"),
]


class TestPointArguments:
    """A bad process count or message size: one stderr line, exit 2."""

    @pytest.mark.parametrize(
        "argv, line", BAD_POINTS, ids=[" ".join(argv) for argv, _ in BAD_POINTS]
    )
    def test_rejected_before_any_work(self, capsys, argv, line):
        from unittest import mock

        from repro.placement.objective import PlacementObjective

        with mock.patch.object(
            PlacementObjective, "__init__", side_effect=AssertionError
        ):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    @pytest.mark.parametrize("flags, line", [
        (["--nprocs", "0", "--reps", "1"],
         "invalid --nprocs: All-to-All needs at least 2 processes, got 0"),
        (["--nprocs", "1", "--reps", "1"],
         "invalid --nprocs: All-to-All needs at least 2 processes, got 1"),
        (["--nprocs", "4", "--reps", "0"],
         "invalid --reps: need at least 1 repetition, got 0"),
    ], ids=["nprocs0", "nprocs1", "reps0"])
    def test_characterize_checks_before_the_pingpong(
        self, capsys, monkeypatch, flags, line
    ):
        # n' = 0 is rejected, not replaced by the default of 16.
        import repro.api as api_mod

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran before --nprocs/--reps were checked")

        monkeypatch.setattr(api_mod, "characterize_cluster", no_fit)
        assert main(["characterize", "myrinet", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]


class TestNearMissClusterNames:
    def test_characterize_accepts_underscore_variant(self, capsys):
        assert main([
            "characterize", "gigabit_ethernet", "--nprocs", "4", "--reps", "1",
        ]) == 0
        assert "gigabit-ethernet" in capsys.readouterr().out

    def test_predict_accepts_case_variant(self, capsys):
        assert main(["predict", "Myrinet", "8", "64kB"]) == 0

    def test_unknown_cluster_clean_error(self, capsys):
        # Satellite bugfix: a clean message + non-zero exit, no traceback.
        assert main(["predict", "infiniband", "8", "64kB"]) == 2
        err = capsys.readouterr().err
        assert "unknown cluster 'infiniband'" in err
        assert "known:" in err
        assert main([
            "characterize", "no-such-cluster", "--nprocs", "4",
        ]) == 2
        assert "unknown cluster" in capsys.readouterr().err


def _scenario_file(tmp_path, example):
    """*example* from ``examples/scenarios``, or the inline test scenario."""
    if example is not None:
        return EXAMPLES / example
    path = tmp_path / "scenario.toml"
    path.write_text(SCENARIO_TOML)
    return path


class TestScenarioCli:
    @pytest.mark.parametrize("example", [
        None, "edge_core_gige_stress.toml", "placed_edge_core_stress.toml",
    ], ids=lambda example: example or "inline")
    def test_run_scenario_sweeps_and_fits(self, tmp_path, capsys, example):
        path = _scenario_file(tmp_path, example)
        scenario = api.Scenario.from_file(path)
        csv_path = tmp_path / "rows.csv"
        assert main([
            "run", "--scenario", str(path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"scenario  : {scenario.describe()}" in out
        assert f"simulated : {len(scenario.sweep_points())}" in out
        assert "signature : " in out
        assert csv_path.exists()

    def test_run_without_experiment_or_scenario_errors(self, capsys):
        assert main(["run"]) == 2
        assert "experiment id or --scenario" in capsys.readouterr().err

    def test_run_scenario_missing_file(self, capsys):
        assert main(["run", "--scenario", "/no/such/file.toml"]) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "example", [None, *sorted(p.name for p in EXAMPLES.glob("*.toml"))],
        ids=lambda example: example or "inline",
    )
    def test_sweep_scenario_cache_hit(self, tmp_path, capsys, example):
        path = _scenario_file(tmp_path, example)
        scenario = api.Scenario.from_file(path)
        n_points = len(scenario.sweep_points())
        cache = str(tmp_path / "cache")
        args = ["sweep", "--scenario", str(path), "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert f"sweep     : {scenario.describe()}" in first
        assert f"simulated : {n_points}" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "simulated : 0" in second
        assert f"cached    : {n_points}" in second

    def test_characterize_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.toml"
        path.write_text(SCENARIO_TOML)
        assert main(["characterize", str(path), "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "cli-test-scenario" in out
        assert "signature" in out

    def test_characterize_missing_scenario_file_clean_exit(self, capsys):
        assert main(["characterize", "/no/such/file.toml"]) == 2
        assert capsys.readouterr().err

    def test_predict_missing_scenario_file_clean_exit(self, capsys):
        assert main(["predict", "/no/such/file.toml", "8", "64kB"]) == 2
        assert capsys.readouterr().err

    def test_list_survives_undocumented_plugins(self, capsys):
        from repro import api
        from repro.registry import ALGORITHMS, TOPOLOGIES

        @api.register_algorithm("test-undocumented-alg")
        def alg(ctx, msg_size):
            yield []

        @api.register_topology("test-undocumented-topo")
        def topo(n_hosts):
            pass

        try:
            assert main(["list"]) == 0
            out = capsys.readouterr().out
            assert "test-undocumented-alg" in out
            assert "test-undocumented-topo" in out
        finally:
            ALGORITHMS.unregister("test-undocumented-alg")
            TOPOLOGIES.unregister("test-undocumented-topo")

    def test_run_scenario_bad_json_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path)]) == 2
        assert "invalid scenario JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["sweep", "--no-cache"], ["run"]], ids=["sweep", "run"]
    )
    def test_scenario_invalid_loss_value_clean_exit(self, tmp_path, capsys, command):
        path = tmp_path / "bad.toml"
        path.write_text(SCENARIO_TOML + "\n[scenario.loss]\nrto_min = -1.0\n")
        assert main([*command, "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["sweep failed: need 0 < rto_min <= rto_max"]

    @pytest.mark.parametrize("command", [
        ["sweep", "--no-cache", "--scenario"], ["run", "--scenario"],
        ["characterize"],
    ], ids=["sweep", "run", "characterize"])
    @pytest.mark.parametrize("params, message", [
        ("nic_bandwidth = 1.25e8\nbogus = 3\n",
         "unknown param(s) ['bogus'] for topology 'single-switch'; "
         "known: backplane_capacity, name, nic_bandwidth"),
        ("backplane_capacity = 1e9\n",
         "missing param(s) ['nic_bandwidth'] for topology 'single-switch'"),
    ], ids=["unknown", "missing"])
    def test_bad_topology_params_fail_at_load(
        self, tmp_path, capsys, command, params, message
    ):
        path = tmp_path / "bad.toml"
        path.write_text(
            SCENARIO_TOML + "\n[scenario.topology]\nfactory = \"single-switch\"\n"
            "\n[scenario.topology.params]\n" + params
        )
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [message]

    def test_run_scenario_scalar_nprocs_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[scenario]\nname = \"x\"\nbase = \"myrinet\"\n"
            "[scenario.workload]\nnprocs = 4\nsizes = [1024]\n"
        )
        assert main(["run", "--scenario", str(path)]) == 2
        assert "invalid workload" in capsys.readouterr().err

    def test_run_rejects_experiment_plus_scenario(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text(SCENARIO_TOML)
        assert main(["run", "fig02", "--scenario", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_characterize_scenario_honours_workload_seed_and_reps(
        self, tmp_path, monkeypatch
    ):
        import repro.api as api_mod

        path = tmp_path / "s.toml"
        path.write_text(
            SCENARIO_TOML.replace("reps = 1", "reps = 1\nseeds = [7]")
        )
        seen = {}
        original = api_mod.characterize_cluster

        def spy(cluster, **kwargs):
            seen.update(kwargs)
            return original(cluster, **kwargs)

        monkeypatch.setattr(api_mod, "characterize_cluster", spy)
        assert main(["characterize", str(path)]) == 0
        assert seen["reps"] == 1
        assert seen["seed"] == 7

    def test_run_scenario_too_few_sizes_clean_exit(self, tmp_path, capsys):
        path = tmp_path / "thin.toml"
        path.write_text(
            "[scenario]\nname = \"thin\"\nbase = \"myrinet\"\n"
            "[scenario.workload]\nnprocs = [4]\nsizes = [1024, 2048]\nreps = 1\n"
        )
        assert main(["run", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert "simulated : 2" in captured.out  # the sweep itself ran
        assert "cannot fit signature" in captured.err

    def test_sweep_scenario_rejects_axis_flags(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text(SCENARIO_TOML)
        assert main([
            "sweep", "--scenario", str(path), "--nprocs", "32,64",
        ]) == 2
        assert "--nprocs" in capsys.readouterr().err

    def test_cluster_name_not_shadowed_by_local_file(
        self, tmp_path, monkeypatch, capsys
    ):
        # A stray file named exactly like a cluster must not hijack
        # name resolution.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "myrinet").write_text("not a scenario")
        assert main(["predict", "myrinet", "8", "64kB"]) == 0
        assert "prediction" in capsys.readouterr().out


THIN_TOML = """
[scenario]
name = "thin"
base = "myrinet"

[scenario.workload]
nprocs = [4]
sizes = [1024, 2048]
reps = 1
"""

#: A sweep-row CSV header and one Myrinet row of it.
ROWS_HEADER = "cluster,algorithm,pattern,n_processes,msg_size,seed,reps,mean_time,std_time,error"
MYRINET_ROW = "myrinet,direct,uniform,4,2048,0,1,0.000557,0.0,"

#: Input files of the failure cases, written into the working directory.
FAILURE_FILES = {
    "s.toml": SCENARIO_TOML,
    "badloss.toml": SCENARIO_TOML + "\n[scenario.loss]\nrto_min = -1.0\n",
    "thin.toml": THIN_TOML,
    "bad.json": "{not json",
    "one.csv": f"{ROWS_HEADER}\n{MYRINET_ROW}\n",
    "gige.csv": f"{ROWS_HEADER}\n{MYRINET_ROW.replace('myrinet', 'gigabit-ethernet')}\n",
    "bad.csv": "cluster,n_processes,msg_size,mean_time\nmyrinet,x,2048,0.001\n",
    "empty/.keep": "",
    "bench/BENCH_x.json": (
        '{"schema": "repro-bench/1", "bench": "x", "fingerprint": {}, '
        '"metrics": {"m": {"value": 1.0, "direction": "higher", '
        '"tolerance": 0.1, "unit": ""}}}'
    ),
}


@pytest.fixture
def failure_files(tmp_path, monkeypatch):
    """The working directory, holding :data:`FAILURE_FILES`."""
    for name, text in FAILURE_FILES.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


MISSING = "[Errno 2] No such file or directory: 'missing.toml'"

#: At least one argv per error site of the CLI (the unknown-name and bad-point
#: sites are the classes above): argv, exit code and the one stderr line.  The
#: ledger is off in tests, so ``bench ingest`` reports it disabled.
FAILURE_LINES = [
    (["run", "fig02", "--scenario", "s.toml"], 2,
     "run takes an experiment id or --scenario FILE, not both"),
    (["run", "fig02", "--placement", "identity"], 2,
     "--placement needs --scenario FILE"),
    (["run"], 2, "run needs an experiment id or --scenario FILE"),
    (["run", "--scenario", "missing.toml"], 2, MISSING),
    (["run", "--scenario", "bad.json"], 2,
     "invalid scenario JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["run", "--scenario", "s.toml", "--placement", "round-robin:groups"], 2,
     "invalid --placement: bad placement parameter 'groups' (expected key=value)"),
    (["run", "--scenario", "badloss.toml"], 1,
     "sweep failed: need 0 < rto_min <= rto_max"),
    (["run", "--scenario", "thin.toml"], 1,
     "cannot fit signature: the paper requires at least four measurement "
     "points, got 2"),
    (["characterize", "missing.toml"], 2, MISSING),
    (["characterize", "thin.toml"], 1,
     "cannot fit signature: the paper requires at least four measurement "
     "points, got 2"),
    (["predict", "missing.toml", "8", "1kB"], 2, MISSING),
    (["predict", "s.toml", "8", "1kB"], 1,
     "no paper signature recorded for this cluster"),
    (["predict", "badloss.toml", "8", "1kB"], 1,
     "cannot predict: need 0 < rto_min <= rto_max"),
    (["optimize-placement", "missing.toml"], 2, MISSING),
    (["optimize-placement", "gigabit-ethernet", "--optimizer", "anneal:bogus=1"], 2,
     "invalid optimizer parameters: unknown param(s) ['bogus'] for placement "
     "optimizer 'anneal'; known: cooling, iterations, t0"),
    (["optimize-placement", "gigabit-ethernet", "--pattern", "hotspot:bogus=1"], 2,
     "invalid pattern parameters: unknown param(s) ['bogus'] for pattern "
     "'hotspot'; known: factor, targets"),
    (["optimize-placement", "myrinet", "--nprocs", "300"], 1,
     "cannot optimize placement: myrinet: 300 hosts exceeds physical size 104"),
    (["fit", "myrinet", "--nprocs", "4,x"], 2,
     "invalid workload flags: invalid literal for int() with base 10: 'x'"),
    (["fit", "s.toml", "--reps", "1", "--seed", "2"], 2,
     "a scenario file brings its own workload grid; drop --reps, --seed"),
    (["fit", "missing.toml"], 2, MISSING),
    (["fit", "myrinet", "--reps", "0"], 2, "workload reps must be >= 1"),
    (["fit", "myrinet", "--from-rows", "missing.csv"], 2,
     "[Errno 2] No such file or directory: 'missing.csv'"),
    (["fit", "myrinet", "--from-rows", "bad.csv"], 2,
     "cannot load samples from bad.csv: malformed sweep row {'cluster': "
     "'myrinet', 'n_processes': 'x', 'msg_size': 2048, 'mean_time': 0.001}: "
     "could not convert string to float: 'x'"),
    (["fit", "myrinet", "--from-rows", "gige.csv"], 1,
     "gige.csv holds no usable uniform-pattern rows for cluster 'myrinet'"),
    (["fit", "myrinet", "--from-rows", "one.csv"], 1,
     "cannot fit signature: the paper requires at least four measurement "
     "points, got 1"),
    (["compare-models", "badloss.toml"], 1,
     "cannot compare models: need 0 < rto_min <= rto_max"),
    (["compare-models", "myrinet", "--from-rows", "one.csv",
      "--models", "loggp,knee"], 1, "no model could be fitted on these samples"),
    (["trace", "missing.toml"], 2, MISSING),
    (["trace", "badloss.toml"], 1, "trace failed: need 0 < rto_min <= rto_max"),
    (["bench", "ingest", "missing"], 2, "no such bench record: missing"),
    (["bench", "ingest", "empty"], 1, "no schema-conforming bench records found"),
    (["bench", "ingest", "bench"], 1,
     "ledger disabled (REPRO_LEDGER); nothing ingested"),
    (["bench", "compare", "--baseline", "missing", "bench"], 2,
     "no such bench record: missing"),
    (["bench", "compare", "--baseline", "empty", "bench"], 2,
     "no schema-conforming baseline records"),
    (["bench", "compare", "--baseline", "bench", "empty"], 2,
     "no schema-conforming current records"),
    (["sweep", "--heartbeat", "0"], 2,
     "invalid sweep options: --heartbeat must be positive"),
    (["sweep", "--workers", "0", "--no-cache"], 2,
     "invalid sweep options: workers must be >= 1"),
    (["sweep", "--scenario", "s.toml", "--nprocs", "4"], 2,
     "--scenario brings its own workload grid; drop --nprocs"),
    (["sweep", "--scenario", "missing.toml"], 2, MISSING),
    (["sweep", "--nprocs", "x", "--no-cache"], 2,
     "invalid sweep spec: invalid literal for int() with base 10: 'x'"),
    (["sweep", "--nprocs", "4", "--sizes", "2kB", "--pattern", "shift:offset=4",
      "--no-cache"], 1,
     "sweep failed: pattern shift(offset=4) yields no network traffic at "
     "(n=4, m=2048, seed=0); nothing to measure"),
]


class TestFailureLines:
    """Each failure ends in its exit code and one stderr line, no traceback."""

    @pytest.mark.parametrize(
        "argv, code, line", FAILURE_LINES,
        ids=[" ".join(argv) for argv, _, _ in FAILURE_LINES],
    )
    def test_one_line(self, failure_files, capsys, argv, code, line):
        assert main(argv) == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_model_comparison_failure(self, capsys, monkeypatch):
        import repro.models.selection as selection
        from repro.exceptions import FittingError

        def failing(*args, **kwargs):
            raise FittingError("no fit")

        monkeypatch.setattr(selection, "compare_for_sweep", failing)
        assert main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4", "--sizes", "2kB",
            "--no-cache", "--models", "hockney",
        ]) == 1
        captured = capsys.readouterr()
        assert "simulated : 1" in captured.out  # the sweep itself ran
        assert captured.err.splitlines() == ["model comparison failed: no fit"]


#: Command lines that ended in a traceback, and the one line each prints.
FORMER_TRACEBACKS = [
    (["characterize", "myrinet", "--nprocs", "300", "--reps", "1"],
     "cannot fit signature: myrinet: 300 hosts exceeds physical size 104"),
    (["fit", "myrinet", "--nprocs", "300", "--sizes", "2kB,4kB", "--reps", "1"],
     "cannot fit signature: myrinet: 300 hosts exceeds physical size 104"),
    (["compare-models", "myrinet", "--nprocs", "300", "--sizes", "2kB",
      "--reps", "1"],
     "cannot compare models: myrinet: 300 hosts exceeds physical size 104"),
    (["trace", "myrinet", "--nprocs", "300"],
     "trace failed: myrinet: 300 hosts exceeds physical size 104"),
    (["sweep", "--clusters", "myrinet", "--nprocs", "300", "--sizes", "2kB",
      "--no-cache"],
     "sweep failed: myrinet: 300 hosts exceeds physical size 104"),
    (["characterize", "badloss.toml"],
     "cannot fit signature: need 0 < rto_min <= rto_max"),
    (["optimize-placement", "gigabit-ethernet", "--nprocs", "4",
      "--pattern", "shift:offset=4"],
     "cannot optimize placement: pattern shift(offset=4) yields no network "
     "traffic at (n=4, m=131072, seed=0); nothing to place"),
]


class TestFormerTracebacks:
    """A grid beyond the fabric, a bad scenario value or a workload with
    no traffic: one line and exit 1, like every other failed run."""

    @pytest.mark.parametrize(
        "argv, line", FORMER_TRACEBACKS,
        ids=[" ".join(argv) for argv, _ in FORMER_TRACEBACKS],
    )
    def test_one_line(self, failure_files, capsys, argv, line):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line]
        if argv[0] == "optimize-placement":
            assert captured.out == ""  # no half-printed report

    def test_experiment_failure(self, capsys, monkeypatch):
        from repro.engines import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "nosuch")
        assert main(["run", "fig05", "--scale", "smoke"]) == 1
        known = ", ".join(api.ENGINES.names())
        assert capsys.readouterr().err.splitlines() == [
            f"run failed: {ENGINE_ENV}: unknown engine 'nosuch'; known: {known}"
        ]


class TestRunEngine:
    """``run EXPERIMENT --engine`` sets the default engine for that run only."""

    @pytest.mark.parametrize("before", [None, "fluid"], ids=["unset", "set"])
    def test_default_engine_restored(self, monkeypatch, capsys, before):
        from repro.engines import ENGINE_ENV, default_engine

        if before is None:
            monkeypatch.delenv(ENGINE_ENV, raising=False)
        else:
            monkeypatch.setenv(ENGINE_ENV, before)
        assert main(["run", "fig05", "--scale", "smoke", "--engine", "vector"]) == 0
        assert os.environ.get(ENGINE_ENV) == before
        assert default_engine() == "fluid"

    def test_default_engine_restored_on_failure(self, monkeypatch):
        import repro.cli as cli
        from repro.engines import ENGINE_ENV, default_engine

        monkeypatch.delenv(ENGINE_ENV, raising=False)
        seen = []

        def failing(*args, **kwargs):
            seen.append(default_engine())
            raise RuntimeError("the experiment failed")

        monkeypatch.setattr(cli, "run_experiment", failing)
        with pytest.raises(RuntimeError):
            main(["run", "fig05", "--scale", "smoke", "--engine", "vector"])
        assert seen == ["vector"]
        assert ENGINE_ENV not in os.environ
