"""Observability layer 2: trace exporters, the ``trace`` CLI, and the
cache-identity guarantee (instrumentation must not move cache keys)."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.cli import main
from repro.clusters.profiles import get_cluster
from repro.obs import EXPORT_FORMATS, to_chrome, to_jsonl, write_trace
from repro.obs.export import chrome_events
from repro.simnet.trace import Trace
from repro.sweeps.cache import point_key, profile_fingerprint
from repro.sweeps.spec import SweepPoint


def _synthetic_trace() -> Trace:
    trace = Trace()
    trace.emit(0.0, "mpi.isend", src=1, dst=2, nbytes=64, tag=0)
    trace.emit(0.0, "flow.inject", fid=7, src=1, dst=2, nbytes=64, label="")
    trace.emit(1.5e-3, "flow.complete", fid=7, src=1, dst=2,
               duration=1.5e-3, losses=0, label="")
    trace.emit(2e-3, "vector.epoch", active=3, completed=1, dt=5e-4)
    trace.emit(2e-3, "flow.inject", fid=9, src=0, dst=1, nbytes=32, label="")
    return trace


class TestJsonl:
    def test_round_trips_every_record(self):
        text = to_jsonl(_synthetic_trace())
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 5
        assert rows[0]["category"] == "mpi.isend"
        assert rows[1]["fid"] == 7
        assert all("time" in row for row in rows)

    def test_empty_trace_exports_empty(self):
        assert to_jsonl(Trace()) == ""


class TestChrome:
    def test_inject_complete_pairs_become_duration_slices(self):
        events = chrome_events(_synthetic_trace())
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        (event,) = slices
        assert event["name"] == "flow 1->2"
        assert event["ts"] == pytest.approx(0.0)
        assert event["dur"] == pytest.approx(1.5e3)  # 1.5 ms in µs
        assert event["args"]["nbytes"] == 64

    def test_unpaired_injects_render_as_instants(self):
        events = chrome_events(_synthetic_trace())
        incomplete = [
            e for e in events if e["name"] == "flow.inject (incomplete)"
        ]
        assert len(incomplete) == 1
        assert incomplete[0]["args"]["fid"] == 9

    def test_epoch_counter_and_rank_instants(self):
        events = chrome_events(_synthetic_trace())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["args"]["active"] == 3
        isend = [e for e in events if e["name"] == "mpi.isend"]
        assert isend and isend[0]["tid"] == 1  # tracked by src rank

    def test_document_is_valid_json_with_metadata(self):
        document = json.loads(to_chrome(_synthetic_trace()))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert all("ph" in e and "pid" in e for e in events)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"network flows", "mpi ranks", "engine"} <= names

    def test_write_trace_validates_the_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(Trace(), tmp_path / "t.json", fmt="pprof")
        out = write_trace(
            _synthetic_trace(), tmp_path / "deep" / "t.jsonl", fmt="jsonl"
        )
        assert out.exists() and out.read_text().count("\n") == 5

    def test_format_registry_is_complete(self):
        assert set(EXPORT_FORMATS) == {"chrome", "jsonl"}


def _assert_valid_chrome(document: dict) -> list[dict]:
    """Acceptance shape check: valid ph/ts/pid on every event."""
    events = document["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in {"M", "X", "i", "C"}
        assert isinstance(event["pid"], int)
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))
        if event["ph"] == "X":
            assert event["dur"] >= 0
    return events


class TestRealTraces:
    """Both engines' traces must export to loadable Chrome JSON."""

    def test_fluid_trace_exports_to_chrome(self):
        obs = api.Scenario.from_name("gigabit-ethernet").trace(6, 32768)
        assert obs.engine == "fluid"
        events = _assert_valid_chrome(json.loads(to_chrome(obs.trace)))
        assert any(e["ph"] == "X" for e in events)
        assert {"flow.inject", "flow.complete"} <= obs.trace.categories()

    def test_vector_trace_exports_to_chrome(self):
        obs = api.Scenario.from_name("myrinet").trace(6, 32768, engine="vector")
        assert obs.engine == "vector"
        events = _assert_valid_chrome(json.loads(to_chrome(obs.trace)))
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" for e in events)
        assert {
            "flow.inject", "flow.complete", "vector.epoch", "mpi.phase"
        } <= obs.trace.categories()


class TestTraceCli:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "gigabit-ethernet", "--nprocs", "6",
            "--size", "32kB", "--out", str(out),
        ])
        assert code == 0
        _assert_valid_chrome(json.loads(out.read_text()))
        stdout = capsys.readouterr().out
        assert "observed peaks match the MED prediction" in stdout
        assert "engine" in stdout

    def test_trace_streams_jsonl_to_stdout(self, capsys):
        code = main([
            "trace", "myrinet", "--engine", "vector",
            "--nprocs", "4", "--size", "8kB", "--format", "jsonl",
        ])
        assert code == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert rows and {"time", "category"} <= set(rows[0])
        # Summary goes to stderr so the payload stays pipeable.
        assert "engine" in captured.err

    def test_trace_rejects_unknown_cluster(self, capsys):
        assert main(["trace", "no-such-cluster"]) == 2
        assert "no-such-cluster" in capsys.readouterr().err

    def test_trace_lossy_cluster_on_vector_engine(self, capsys):
        # gigabit-ethernet models loss; since the vector engine grew
        # its vectorized loss overlay this traces like any other run.
        code = main([
            "trace", "gigabit-ethernet", "--engine", "vector",
            "--nprocs", "4", "--size", "8kB",
        ])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["traceEvents"]
        assert "engine    : vector" in captured.err

    def test_list_includes_trace_formats(self, capsys):
        assert main(["list", "trace-formats"]) == 0
        out = capsys.readouterr().out
        assert "chrome" in out and "jsonl" in out


class TestCacheIdentity:
    """Observability must not move default cache keys by one byte."""

    #: Pinned in tests/test_engines.py since PR 5 and in
    #: tests/test_placement.py since PR 6; the obs wiring (engine
    #: trace=/timeline= kwargs, sweep profiling) must not move it.
    EXPECTED_GIGE = (
        "85b64bc1fb89a639f7835b46e012923c2e3e06f008fb844be02128ec9827ac94"
    )

    def test_default_point_key_is_unchanged(self):
        point = SweepPoint(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        fingerprint = profile_fingerprint(get_cluster("gigabit-ethernet"))
        assert point_key(point, fingerprint) == self.EXPECTED_GIGE
