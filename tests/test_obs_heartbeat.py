"""Observability: the live sweep heartbeat sink.

Covers the pure beat formatting (including the all-cache-hit and
zero-elapsed guards), the interval/clock behaviour with an injected
clock, sink composition inside a real sweep, and the CLI flag.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.obs.heartbeat import HeartbeatSink, _format_beat
from repro.obs.metrics import REGISTRY
from repro.sweeps.cache import ResultCache
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepPoint


@pytest.fixture(autouse=True)
def _fresh_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _points(sizes=(2048, 8192)):
    return [
        SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=size,
            algorithm="direct", seed=0, reps=1,
        )
        for size in sizes
    ]


class TestFormatBeat:
    def test_known_total_shows_fraction_rate_and_eta(self):
        line = _format_beat(5, 10, 1, 2.0, {})
        assert "5/10 rows (50%)" in line
        assert "2.5 rows/s" in line
        assert "hit 20%" in line
        assert "ETA 2s" in line

    def test_unknown_total_has_no_eta(self):
        line = _format_beat(5, None, 0, 2.0, {})
        assert "5 rows" in line
        assert "ETA" not in line

    def test_all_cache_hit_reports_cleanly(self):
        # The degenerate sweep: everything cached, zero measurable time.
        line = _format_beat(4, 4, 4, 0.0, {})
        assert "hit 100%" in line
        assert "rows/s" not in line  # no division by zero elapsed
        assert "ETA" not in line     # done == total

    def test_zero_rows_never_divides(self):
        line = _format_beat(0, 10, 0, 0.0, {})
        assert "0/10 rows (0%)" in line
        assert "hit" not in line

    def test_top_deltas_are_ranked_and_capped(self):
        line = _format_beat(
            1, None, 0, 1.0,
            {"a": 1.0, "b": 9.0, "c": 5.0, "d": 2.0},
        )
        assert "b +9 c +5 d +2" in line
        assert "a +1" not in line  # TOP_DELTAS == 3


class TestHeartbeatSink:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            HeartbeatSink(0)
        with pytest.raises(ValueError, match="interval"):
            HeartbeatSink(-1)

    def _ticking(self, interval, step):
        """A sink whose clock advances *step* seconds per inspection."""
        ticks = iter(i * step for i in range(1000))
        stream = io.StringIO()
        sink = HeartbeatSink(
            interval, stream=stream, clock=lambda: next(ticks)
        )
        return sink, stream

    def test_beats_only_after_the_interval(self):
        sink, stream = self._ticking(interval=10.0, step=1.0)
        sink.open(["cluster"])
        for _ in range(5):
            sink.write({"cached": 0})
        assert stream.getvalue() == ""  # 5 s elapsed < 10 s interval

    def test_beats_when_the_interval_passes(self):
        sink, stream = self._ticking(interval=2.0, step=1.0)
        sink.open(["cluster"])
        for _ in range(4):
            sink.write({"cached": 0})
        assert stream.getvalue().count("[heartbeat]") >= 1

    def test_close_emits_a_final_summary(self):
        sink, stream = self._ticking(interval=100.0, step=1.0)
        sink.open(["cluster"])
        sink.write({"cached": 1})
        sink.write({"cached": 1})
        sink.close()
        (line,) = stream.getvalue().splitlines()
        assert "2 rows" in line
        assert "hit 100%" in line

    def test_empty_sweep_stays_silent(self):
        sink, stream = self._ticking(interval=1.0, step=1.0)
        sink.open(["cluster"])
        sink.close()
        assert stream.getvalue() == ""

    def test_beat_reports_metric_deltas(self):
        sink, stream = self._ticking(interval=1.0, step=1.0)
        sink.open(["cluster"])
        REGISTRY.counter("sim.runs").inc(3, engine="fluid")
        sink.write({"cached": 0})
        sink.close()
        assert "sim.runs +3" in stream.getvalue()

    def test_composes_with_a_real_sweep(self, tmp_path):
        stream = io.StringIO()
        sink = HeartbeatSink(0.0001, stream=stream)
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run_points(_points(), sinks=(sink,))
        out = stream.getvalue()
        assert "[heartbeat]" in out
        assert "hit 0%" in out
        # Warm pass: every point cached, reported without dividing by
        # a zero simulation count.
        stream2 = io.StringIO()
        sink2 = HeartbeatSink(0.0001, stream=stream2)
        SweepRunner(cache=cache).run_points(_points(), sinks=(sink2,))
        assert "hit 100%" in stream2.getvalue()


class TestCliFlag:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB,8kB", "--cache-dir", str(tmp_path), *extra,
        ]

    @pytest.mark.parametrize("grid, rows", [
        (("--clusters", "myrinet", "--nprocs", "4", "--sizes", "2kB,8kB"), "2/2"),
        (("--scenario", "examples/scenarios/hotspot_gige_incast.toml"), "8/8"),
    ], ids=["grid", "scenario"])
    def test_heartbeat_lands_on_stderr(self, tmp_path, capsys, grid, rows):
        argv = [
            "sweep", *grid, "--cache-dir", str(tmp_path), "--heartbeat", "0.0001",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[heartbeat]" in captured.err
        assert "[heartbeat]" not in captured.out  # stdout stays clean
        assert f"{rows} rows (100%)" in captured.err

    def test_flag_without_value_defaults_to_five_seconds(
        self, tmp_path, capsys
    ):
        # 5 s interval on a sub-second sweep: only the final close()
        # beat fires — and the sweep itself still succeeds.
        assert main(self._argv(tmp_path, "--heartbeat")) == 0
        assert capsys.readouterr().err.count("[heartbeat]") == 1

    def test_non_positive_interval_is_a_usage_error(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--heartbeat", "0")) == 2
        assert "--heartbeat" in capsys.readouterr().err
