"""Observability: the benchmark-record schema and regression gate.

Covers metric/record validation, min-of-N comparison semantics in both
directions, the acceptance fixture (a synthetically injected 2x
slowdown must fail ``bench compare``), record loading, trajectory
rendering, and the CLI surface end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    SCHEMA,
    Finding,
    compare,
    load_records,
    make_metric,
    make_record,
    render_findings,
    render_trajectory,
)


def _record(bench="engine_throughput", **metrics):
    cells = {
        name: (value if isinstance(value, dict) else make_metric(value))
        for name, value in metrics.items()
    }
    return make_record(bench, cells)


class TestMakeMetric:
    def test_defaults_and_coercion(self):
        cell = make_metric(3)
        assert cell == {
            "value": 3.0, "direction": "higher",
            "tolerance": 0.25, "unit": "",
        }

    def test_rejects_bad_direction_and_tolerance(self):
        with pytest.raises(ValueError, match="direction"):
            make_metric(1.0, direction="sideways")
        with pytest.raises(ValueError, match="tolerance"):
            make_metric(1.0, tolerance=1.0)
        with pytest.raises(ValueError, match="tolerance"):
            make_metric(1.0, tolerance=-0.1)


class TestMakeRecord:
    def test_extra_fields_ride_at_the_top_level_and_schema_fields_win(self):
        extra = {"seed": 3, "bench": "spoofed", "metrics": {}}
        record = make_record(
            "engine_throughput", {"m": make_metric(1.0)}, extra
        )
        assert record["schema"] == SCHEMA
        assert record["seed"] == 3
        assert record["bench"] == "engine_throughput"
        assert record["metrics"]["m"]["value"] == 1.0
        assert "git_sha" in record["fingerprint"]
        # The input is not mutated.
        assert extra == {"seed": 3, "bench": "spoofed", "metrics": {}}

    def test_incomplete_metric_cells_are_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            make_record("b", {"m": {"value": 1.0}})


class TestCompare:
    def test_within_tolerance_is_ok(self):
        base = [_record(speed=make_metric(10.0, tolerance=0.25))]
        cur = [_record(speed=make_metric(8.0, tolerance=0.25))]
        (finding,) = compare(base, cur)
        assert finding.status == "ok"
        assert finding.ok

    def test_two_x_slowdown_regresses(self):
        # The acceptance fixture: a synthetic 2x slowdown on a tracked
        # higher-is-better metric must fail the gate.
        base = [_record(speed=make_metric(10.0, tolerance=0.25))]
        slow = [_record(speed=make_metric(5.0, tolerance=0.25))]
        (finding,) = compare(base, slow)
        assert finding.status == "regression"
        assert not finding.ok
        assert finding.ratio == pytest.approx(0.5)

    def test_lower_is_better_regresses_upward(self):
        base = [_record(
            overhead=make_metric(1.0, direction="lower", tolerance=0.05)
        )]
        ok = [_record(
            overhead=make_metric(1.04, direction="lower", tolerance=0.05)
        )]
        bad = [_record(
            overhead=make_metric(2.0, direction="lower", tolerance=0.05)
        )]
        assert compare(base, ok)[0].status == "ok"
        assert compare(base, bad)[0].status == "regression"

    def test_min_of_n_uses_each_sides_best(self):
        # Three noisy baseline runs, two noisy current runs: the gate
        # compares best-vs-best, so one slow outlier never fails it.
        base = [
            _record(speed=make_metric(v, tolerance=0.25))
            for v in (10.0, 7.0, 9.5)
        ]
        cur = [
            _record(speed=make_metric(v, tolerance=0.25))
            for v in (4.0, 9.0)
        ]
        (finding,) = compare(base, cur)
        assert finding.baseline == 10.0
        assert finding.current == 9.0
        assert finding.status == "ok"

    def test_missing_tracked_metric_fails(self):
        base = [_record(speed=10.0, other=1.0)]
        cur = [_record(other=1.0)]  # same bench, dropped a metric
        by_name = {f.metric: f for f in compare(base, cur)}
        assert by_name["speed"].status == "missing"
        assert not by_name["speed"].ok
        assert by_name["other"].status == "ok"

    def test_absent_bench_is_skipped_not_failed(self):
        base = [_record(bench="a", speed=10.0)]
        cur = [_record(bench="b", speed=10.0)]
        statuses = {(f.bench, f.status) for f in compare(base, cur)}
        # Bench "a" produces no finding at all; bench "b" is new.
        assert statuses == {("b", "new")}

    def test_new_metrics_pass(self):
        base = [_record(speed=10.0)]
        cur = [_record(speed=10.0, extra=1.0)]
        by_name = {f.metric: f for f in compare(base, cur)}
        assert by_name["extra"].status == "new"
        assert by_name["extra"].ok

    def test_boolean_invariants_gate_exactly(self):
        base = [_record(identical=make_metric(1.0, tolerance=0.0))]
        flipped = [_record(identical=make_metric(0.0, tolerance=0.0))]
        assert compare(base, base)[0].status == "ok"
        assert compare(base, flipped)[0].status == "regression"

    def test_baseline_side_sets_the_bar(self):
        # A current record claiming a looser tolerance cannot relax the
        # committed baseline's.
        base = [_record(speed=make_metric(10.0, tolerance=0.1))]
        cur = [_record(speed=make_metric(8.0, tolerance=0.9))]
        (finding,) = compare(base, cur)
        assert finding.tolerance == 0.1
        assert finding.status == "regression"


class TestLoadRecords:
    def test_scans_directories_and_skips_pre_schema_files(self, tmp_path):
        (tmp_path / "BENCH_a.json").write_text(json.dumps(_record()))
        (tmp_path / "legacy.json").write_text('{"bench": "old-shape"}')
        (tmp_path / "notes.txt").write_text("not json")
        records = load_records([tmp_path])
        assert len(records) == 1
        assert records[0]["schema"] == SCHEMA

    def test_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_records([tmp_path / "nope.json"])

    def test_invalid_json_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_records([bad])


class TestRendering:
    def test_findings_table_flags_regressions(self):
        findings = [
            Finding("engine", "speed", "ok", 10.0, 9.0),
            Finding("engine", "slow", "regression", 10.0, 5.0),
            Finding("engine", "gone", "missing", 10.0, None),
        ]
        text = render_findings(findings)
        assert "REGRESSION" in text
        assert "MISSING" in text
        assert "2 REGRESSED" in text

    def test_all_ok_summary(self):
        text = render_findings([Finding("e", "m", "ok", 1.0, 1.0)])
        assert "all within tolerance" in text

    def test_trajectory_groups_per_metric_in_ledger_order(self):
        entries = [
            {"ts": 1000.0, "record": _record(speed=10.0)},
            {"ts": 2000.0, "record": _record(speed=12.0)},
            {"record": {"schema": "other", "bench": "x"}},  # skipped
        ]
        text = render_trajectory(entries)
        assert "engine_throughput · speed" in text
        assert text.index("10") < text.index("12")

    def test_trajectory_filters_and_empty_message(self):
        entries = [{"ts": 1.0, "record": _record(speed=10.0)}]
        assert "no tracked bench metrics" in render_trajectory(
            entries, bench="other-bench"
        )
        assert "speed" in render_trajectory(entries, metric="speed")


class TestCliGate:
    """End-to-end acceptance: the CLI gate on real-shaped fixtures."""

    def _write(self, path, record):
        path.write_text(json.dumps(record, indent=2) + "\n")

    def test_identical_records_pass(self, tmp_path, capsys):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        record = _record(speed=make_metric(10.0, unit="x"))
        self._write(base / "BENCH_engine.json", record)
        self._write(cur / "BENCH_engine.json", record)
        assert main([
            "bench", "compare", "--baseline", str(base), str(cur),
        ]) == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_injected_two_x_slowdown_fails(self, tmp_path, capsys):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        self._write(
            base / "BENCH_engine.json",
            _record(speed=make_metric(14.0, tolerance=0.3, unit="x")),
        )
        self._write(
            cur / "BENCH_engine.json",
            _record(speed=make_metric(7.0, tolerance=0.3, unit="x")),
        )
        assert main([
            "bench", "compare", "--baseline", str(base), str(cur),
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "1 REGRESSED" in out

    def test_missing_baseline_path_is_a_usage_error(self, tmp_path, capsys):
        cur = tmp_path / "cur"
        cur.mkdir()
        self._write(cur / "BENCH_engine.json", _record(speed=10.0))
        assert main([
            "bench", "compare",
            "--baseline", str(tmp_path / "missing"), str(cur),
        ]) == 2

    def test_empty_baseline_dir_is_a_usage_error(self, tmp_path, capsys):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        self._write(cur / "BENCH_engine.json", _record(speed=10.0))
        assert main([
            "bench", "compare", "--baseline", str(base), str(cur),
        ]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_ingest_then_report(self, monkeypatch, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        artifact = tmp_path / "BENCH_engine.json"
        self._write(artifact, _record(speed=make_metric(10.0, unit="x")))
        assert main(["bench", "ingest", str(artifact)]) == 0
        assert "ingested 1 bench record(s)" in capsys.readouterr().out
        assert main(["bench", "report"]) == 0
        out = capsys.readouterr().out
        assert "engine_throughput · speed" in out
        assert "10 x" in out

    def test_ingest_with_disabled_ledger_fails(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        artifact = tmp_path / "BENCH_engine.json"
        self._write(artifact, _record(speed=10.0))
        assert main(["bench", "ingest", str(artifact)]) == 1
        assert "disabled" in capsys.readouterr().err

    def test_committed_baselines_are_schema_conforming(self):
        from pathlib import Path

        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        records = load_records([baselines])
        assert len(records) == 6
        benches = {r["bench"] for r in records}
        assert benches == {
            "engine_throughput", "obs_overhead", "sweep_executor_throughput",
            "traffic_pattern_sweep", "cost_model_zoo", "placement_optimizers",
        }
        for record in records:
            assert record["metrics"], record["bench"]
            assert set(record) == {"schema", "bench", "fingerprint", "metrics"}

    def test_committed_baselines_gate_a_two_x_slowdown(self, tmp_path):
        # The full acceptance path on the real committed baselines: take
        # one, halve every higher-is-better metric (double lower-is-
        # better), and the gate must fail.
        from pathlib import Path

        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        record = load_records([baselines / "BENCH_engine.json"])[0]
        slowed = json.loads(json.dumps(record))
        for cell in slowed["metrics"].values():
            if cell["direction"] == "higher":
                cell["value"] /= 2.0
            else:
                cell["value"] *= 2.0
        cur = tmp_path / "cur"
        cur.mkdir()
        self._write(cur / "BENCH_engine.json", slowed)
        assert main([
            "bench", "compare", "--baseline", str(baselines), str(cur),
        ]) == 1
