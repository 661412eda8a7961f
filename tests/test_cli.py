"""Unit tests for the command-line interface."""

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


class TestListSections:
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
