"""Unit tests of the end-to-end benchmark harness (no simulation runs).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import sys
import time
import tomllib
import types
from pathlib import Path

import pytest

import compare
import golden
import probe
from spans import ROOT, Target, Tracer, layer_table, self_times
from workloads import WORKLOADS, get_workload, scenario_toml, sweep_argv


def _span(name, start, end, parent, phase="sweep"):
    return [name, float(start), float(end), parent, None, phase]


# -- self-time arithmetic ---------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(ROOT, 0, 10, None),
        _span("a", 1, 4, 0),
        _span("b", 2, 3, 1),  # grandchild: charged to a, not to the root
        _span("c", 5, 9, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_table_reports_root_as_other_and_sums_to_wall():
    spans = [
        _span(ROOT, 0, 10, None),
        _span("a", 1, 4, 0),
        _span("a", 5, 6, 0),
        _span(ROOT, 20, 22, None, phase="rerun"),
        _span("a", 20.5, 21, 3, phase="rerun"),
    ]
    table = layer_table(spans, "sweep")
    assert table["a"] == {"calls": 2, "self_s": 4.0}
    assert table["other"]["self_s"] == 6.0
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert layer_table(spans, "rerun")["a"]["calls"] == 1


def test_tracer_records_nesting_only_inside_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, Target("m:inner", "inner"))
    outer = tracer.wrap(lambda x: inner(x) * 2, Target("m:outer", "outer"))
    assert outer(1) == 4  # no root open: passes through, records nothing
    assert tracer.spans == [] and not tracer.calls
    with tracer.root("sweep"):
        assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == [ROOT, "outer", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    assert tracer.calls == {"m:outer": 1, "m:inner": 1}
    own = self_times(tracer.spans)
    assert sum(own) == tracer.spans[0][2] - tracer.spans[0][1]
    assert all(value > 0 for value in own)


def test_install_wraps_the_lookup_site_and_uninstall_restores(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Engine:
        def run(self):
            return "ran"

    module.Engine = Engine
    module.solve = lambda: "solved"
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original_run, original_solve = Engine.__dict__["run"], module.solve
    tracer = Tracer()
    tracer.install([
        Target("fake_layer:Engine.run", "engine"),
        Target("fake_layer:solve", "solve"),
    ])
    with tracer.root("sweep"):
        assert Engine().run() == "ran" and module.solve() == "solved"
    assert [s[0] for s in tracer.spans] == [ROOT, "engine", "solve"]
    tracer.uninstall()
    assert Engine.__dict__["run"] is original_run and module.solve is original_solve


# -- host-speed correction ---------------------------------------------------


def _sample(wall, *slowdowns, kind="tick"):
    reference = probe.REFERENCE_S[kind]
    return {"wall": wall, "probes": [s * reference for s in slowdowns], "kind": kind}


def test_reference_speed_host_leaves_wall_times_unchanged():
    assert probe.corrected(_sample(5.0, 1.0, 1.0, 1.0)) == pytest.approx(5.0)
    assert probe.corrected(_sample(5.0, 1.0, kind="bracket")) == pytest.approx(5.0)
    assert probe.corrected(_sample(5.0)) == 5.0  # too short for a tick


def test_slow_stretches_are_rescaled_by_their_slowdown():
    # Half the ticks ran 1.75x slower: the call ran 1.375x slower overall.
    assert probe.corrected(_sample(2.75, 1.0, 1.75)) == pytest.approx(2.0)
    # A faster host reads slower than measured, at reference speed.
    assert probe.corrected(_sample(1.0, 0.5)) == pytest.approx(2.0)
    # A preempted (or cold) probe is an outlier, not host speed.
    assert probe.corrected(_sample(1.0, 5.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert probe.corrected(_sample(1.0, 1.75, 1.75, 1.0)) == pytest.approx(1 / 1.5)
    # Work that follows the probe's slowdown less is rescaled less.
    assert probe.corrected(_sample(1.0, 4.0), sensitivity=0.5) == pytest.approx(0.5)


def test_tick_sampler_probes_this_thread_and_restores_the_handler():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    sampler = probe.TickSampler().start()
    end = time.perf_counter() + 6 * probe.TICK_S
    while time.perf_counter() < end:
        pass
    ticks = sampler.stop()
    assert len(ticks) >= 3 and all(t > 0 for t in ticks)
    assert signal.getsignal(signal.SIGALRM) is previous


# -- bounds ----------------------------------------------------------------


@pytest.mark.parametrize("a, b, ok", [
    (10.0, 10.9, True), (10.0, 11.1, False), (10.0, 8.9, False), (10.0, 9.1, True),
])
def test_relative_bound_is_a_share_of_a(a, b, ok):
    assert compare.within(a, b, "rel", 0.1) is ok


@pytest.mark.parametrize("a, b, ok", [
    (0.0, 0.0, True), (0.0, 1e-12, False), (12.5, 12.5, True), (12.5, 12.500001, False),
])
def test_absolute_zero_bound_requires_identity(a, b, ok):
    assert compare.within(a, b, "abs", 0.0) is ok


def _result(tmp_path, name, **metrics):
    path = tmp_path / name
    cells = {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
    path.write_text(json.dumps({"workloads": {"w": {"metrics": cells}}}))
    return str(path)


def test_compare_exits_nonzero_only_outside_a_bound(tmp_path, capsys):
    base = _result(tmp_path, "a.json", sweep_s=5.0, fail_ratio=0.0)
    near = _result(tmp_path, "b.json", sweep_s=5.2, fail_ratio=0.0)
    failing = _result(tmp_path, "c.json", sweep_s=5.2, fail_ratio=0.01)
    assert compare.main([base, near]) == 0
    assert compare.main([base, failing]) == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_bounds_come_from_benchmark_json():
    bounds = compare.load_bounds()
    assert bounds["setup_s"][0] == "rel"
    assert bounds["setup_s"][1] == max(b for kind, b in bounds.values() if kind == "rel")
    assert bounds["fail_ratio"] == ("abs", 0.0)


# -- golden comparison -------------------------------------------------------


def _rows(*values, error=""):
    return [{"mean_time": repr(v), "error": error} for v in values]


def test_golden_match_is_relative_1e9():
    reference = [1.0e-3, 2.0e-3]
    assert golden.row_failures(_rows(1.0e-3 * (1 + 5e-10), 2.0e-3), 2, reference) == 0
    assert golden.row_failures(_rows(1.0e-3 * (1 + 2e-9), 2.0e-3), 2, reference) == 1
    assert golden.row_failures(_rows(1.0e-3, 2.0e-3 * (1 - 2e-9)), 2, reference) == 1


def test_missing_extra_error_and_nonfinite_rows_fail():
    assert golden.row_failures(_rows(1.0), 3) == 2
    assert golden.row_failures(_rows(1.0, 1.0), 1) == 1
    assert golden.row_failures(_rows(1.0, error="boom"), 1) == 1
    assert golden.row_failures(_rows(float("nan"), 0.0), 2) == 2
    assert golden.row_failures([{"mean_time": "", "error": "x"}], 1) == 1


def test_golden_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    assert golden.load("w", 3) is None
    golden.save("w", 3, [3], [0.1, 0.25])
    assert golden.load("w", 3) == [0.1, 0.25]


def test_committed_golden_files_cover_every_workload_row():
    for workload in WORKLOADS:
        for seed in (0, 1):
            values = golden.load(workload.name, seed)
            assert values is not None, (workload.name, seed)
            assert len(values) == workload.points


# -- seed → program inputs ---------------------------------------------------


def test_seed_becomes_the_sweep_seeds(tmp_path):
    fluid = get_workload("paper-fluid")
    argv = fluid.grid(fluid.seeds(5), tmp_path)
    assert argv[argv.index("--seeds") + 1] == "5"
    overhead = get_workload("sweep-overhead")
    assert overhead.seeds(2) == list(range(12, 18))
    argv = overhead.grid(overhead.seeds(2), tmp_path)
    assert argv[argv.index("--seeds") + 1] == "12,13,14,15,16,17"


def _inputs(workload, seed, workdir):
    """The argv plus the text of any scenario file it names."""
    argv = workload.grid(workload.seeds(seed), workdir)
    return argv, [Path(a).read_text() for a in argv if a.endswith(".toml")]


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS:
        assert _inputs(workload, 7, tmp_path) == _inputs(workload, 7, tmp_path)
        assert _inputs(workload, 7, tmp_path) != _inputs(workload, 8, tmp_path)


def test_vector_scale_scenario_toml(tmp_path):
    workload = get_workload("vector-scale")
    argv = workload.grid(workload.seeds(4), tmp_path)
    path = Path(argv[argv.index("--scenario") + 1])
    assert path.read_text() == scenario_toml([4])
    scenario = tomllib.loads(path.read_text())["scenario"]
    assert scenario["engine"] == "vector"
    assert scenario["loss"] == {"enabled": False}
    assert scenario["transport"]["jitter_scale"] == 0.0
    assert scenario["start_skew_scale"] == 0.0
    assert scenario["workload"]["seeds"] == [4]


def test_serial_swap_keeps_the_grid(tmp_path):
    workload = get_workload("sweep-overhead")
    kwargs = {"cache_dir": Path("c"), "output": Path("o.csv")}
    pooled = sweep_argv(workload, 0, tmp_path, **kwargs)
    serial = sweep_argv(workload, 0, tmp_path, serial=True, **kwargs)
    assert pooled[-4:] == ["--executor", "process", "--workers", "2"]
    assert serial[-4:] == ["--executor", "serial", "--workers", "1"]
    assert pooled[:-4] == serial[:-4]
