"""Observability: the process-safe metrics registry.

Covers labeled counters, the snapshot/merge/diff protocol, and — the
load-bearing part — its threading through the stack: engine runs land
in ``sim.*`` counters, the sweep cache counts hits/misses/bytes, and
worker-side deltas ride ``TaskOutcome.metrics`` across the process
executor back into the parent registry without double counting.
"""

from __future__ import annotations

import pytest

from repro.clusters.profiles import get_cluster
from repro.exec.task import ExecutionTask, run_task
from repro.measure.alltoall import measure_alltoall
from repro.measure.pingpong import measure_pingpong
from repro.obs.metrics import REGISTRY, MetricsRegistry, diff_snapshots
from repro.registry import ENGINES
from repro.simmpi import RunResult
from repro.sweeps.cache import ResultCache
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepPoint


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test starts and ends with an empty process registry."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _points(sizes=(2048, 8192, 32768, 131072)):
    return [
        SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=size,
            algorithm="direct", seed=0, reps=1,
        )
        for size in sizes
    ]


def _total(name: str) -> float:
    """Summed-over-labels value of one counter in the global registry."""
    metric = REGISTRY.get(name)
    assert metric is not None, f"{name} never registered"
    return sum(metric.series.values())


def _fixed_run(cluster, n_processes, program, run_arg, seed):
    """An engine whose every run reports the same counts."""
    return RunResult(
        duration=1.0, rank_finish_times=[1.0] * n_processes,
        events_processed=11, flows_completed=12, total_losses=3,
        max_concurrent_flows=2, solves=5, epochs=7, stalls=2,
    )


@pytest.fixture
def register_engine():
    """Register engines for one test and unregister them afterwards."""
    names = []

    def register(name, fn):
        ENGINES.register(name, fn)
        names.append(name)
        return name

    yield register
    for name in names:
        ENGINES.unregister(name)


class TestCounter:
    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.runs")
        c.inc(1, engine="fluid")
        c.inc(2, engine="vector")
        c.inc(1, engine="fluid")
        assert c.value(engine="fluid") == 2.0
        assert c.value(engine="vector") == 2.0
        assert c.value(engine="unseen") is None

    def test_unlabeled_series_and_rejection_of_negatives(self):
        c = MetricsRegistry().counter("hits")
        c.inc()
        c.inc(0.5)
        assert c.value() == 1.5
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_label_order_does_not_split_series(self):
        c = MetricsRegistry().counter("x")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        assert c.value(a=1, b=2) == 2.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_snapshot_entries_keep_the_counter_shape(self):
        # Worker deltas, heartbeats and ledger entries all read this
        # shape; a counter that was never incremented still has one.
        reg = MetricsRegistry()
        reg.counter("a").inc(1, engine="fluid")
        reg.counter("b")
        assert reg.snapshot() == {
            "a": {"kind": "counter", "values": {"engine=fluid": 1.0}},
            "b": {"kind": "counter", "values": {}},
        }

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        reg.counter("a").inc(5)
        assert snap["a"]["values"][""] == 1.0


class TestSnapshotMergeDiff:
    def _registry(self, runs=2.0):
        reg = MetricsRegistry()
        reg.counter("runs").inc(runs, engine="fluid")
        reg.counter("hits").inc()
        return reg

    def test_merge_sums_counters(self):
        parent = self._registry(runs=2)
        worker = self._registry(runs=5)
        parent.merge(worker.snapshot())
        assert parent.counter("runs").value(engine="fluid") == 7.0
        assert parent.counter("hits").value() == 2.0

    def test_merge_creates_unseen_metrics(self):
        parent = MetricsRegistry()
        parent.merge(self._registry().snapshot())
        assert parent.counter("runs").value(engine="fluid") == 2.0

    def test_merge_none_and_empty_are_noops(self):
        reg = MetricsRegistry()
        reg.merge(None)
        reg.merge({})
        assert reg.names() == []

    def test_merge_rejects_unknown_kinds(self):
        # Counters are the only kind; gauge and histogram entries are
        # as foreign as any other.
        for kind in ("summary", "gauge", "histogram"):
            with pytest.raises(ValueError, match="unknown kind"):
                MetricsRegistry().merge({"x": {"kind": kind, "values": {}}})

    def test_snapshot_merge_round_trip_is_exact(self):
        combined = MetricsRegistry()
        for runs in (1, 9):
            combined.merge(self._registry(runs=runs).snapshot())
        snapshot = combined.snapshot()
        assert snapshot["runs"] == {
            "kind": "counter", "values": {"engine=fluid": 10.0},
        }
        restored = MetricsRegistry()
        restored.merge(snapshot)
        assert restored.snapshot() == snapshot

    def test_diff_subtracts_and_drops_idle_series(self):
        reg = self._registry(runs=2)
        before = reg.snapshot()
        reg.counter("runs").inc(3, engine="fluid")
        reg.counter("other").inc(0)  # registered but idle
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["runs"]["values"]["engine=fluid"] == 3.0
        assert "other" not in delta

    def test_diff_of_idle_counters_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(2)
        snap = reg.snapshot()
        assert diff_snapshots(snap, snap) == {}

    def test_diff_subtracts_each_label_series(self):
        reg = MetricsRegistry()
        runs = reg.counter("runs")
        runs.inc(2, engine="fluid")
        runs.inc(4, engine="vector")
        before = reg.snapshot()
        runs.inc(3, engine="vector")
        runs.inc(1, engine="plugin")
        delta = diff_snapshots(before, reg.snapshot())
        # The idle series drops out; a new series counts from zero.
        assert delta == {"runs": {
            "kind": "counter",
            "values": {"engine=vector": 3.0, "engine=plugin": 1.0},
        }}

    def test_diff_from_no_snapshot_is_everything_recorded(self):
        snap = self._registry().snapshot()
        assert diff_snapshots(None, snap) == snap
        assert diff_snapshots(None, None) == {}


class TestMeasurementThreading:
    def test_engine_runs_register_sim_counters(self):
        SweepRunner(cache=None).run_points(_points(sizes=(2048,)))
        assert _total("sim.runs") == 1.0
        assert _total("measure.samples") == 1.0
        assert _total("sim.epochs") > 0

    def test_each_rep_adds_its_run_counts(self, register_engine):
        engine = register_engine("test-fixed-counts", _fixed_run)
        measure_alltoall(
            get_cluster("myrinet"), 4, 2048, reps=3, engine=engine
        )
        # Three reps of _fixed_run, labelled with the engine's own name.
        expected = {
            "measure.samples": 1, "sim.runs": 3, "sim.epochs": 21,
            "sim.solves": 15, "sim.events": 33,
            "sim.losses": 9, "sim.stalls": 6,
        }
        assert REGISTRY.snapshot() == {
            name: {"kind": "counter",
                   "values": {"engine=test-fixed-counts": float(value)}}
            for name, value in sorted(expected.items())
        }

    def test_a_failed_rep_keeps_the_counts_of_earlier_reps(
        self, register_engine
    ):
        calls = []

        def engine(cluster, n_processes, program, run_arg, seed):
            calls.append(seed)
            if len(calls) == 2:
                raise RuntimeError("second rep failed")
            return _fixed_run(cluster, n_processes, program, run_arg, seed)

        name = register_engine("test-fails-second-rep", engine)
        with pytest.raises(RuntimeError, match="second rep failed"):
            measure_alltoall(
                get_cluster("myrinet"), 4, 2048, reps=3, engine=name
            )
        # The first rep ran and is counted; no sample came of it.
        assert REGISTRY.counter("sim.runs").series == {
            "engine=test-fails-second-rep": 1.0,
        }
        assert REGISTRY.counter("sim.events").value(
            engine="test-fails-second-rep"
        ) == 11.0
        assert "measure.samples" not in REGISTRY

    def test_pingpong_runs_are_not_counted(self):
        # The sim.* counters cover All-to-All reps only.
        measure_pingpong(get_cluster("myrinet"), sizes=(1024, 4096), reps=1)
        assert not [name for name in REGISTRY.names() if name.startswith("sim.")]

    def test_cache_counters_track_misses_hits_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run_points(_points(sizes=(2048, 8192)))
        assert _total("cache.misses") == 2.0
        assert _total("cache.writes") == 2.0
        assert _total("cache.bytes_written") > 0
        SweepRunner(cache=cache).run_points(_points(sizes=(2048, 8192)))
        assert _total("cache.hits") == 2.0
        assert _total("cache.bytes_read") > 0


class TestExecutorRoundTrip:
    """The tentpole invariant: worker metrics land in the parent exactly
    once, and observability changes nothing about the rows."""

    def test_task_outcome_carries_its_delta(self):
        outcome = run_task(ExecutionTask(index=0, point=_points()[0]))
        assert outcome.ok
        assert outcome.metrics is not None
        assert outcome.metrics["sim.runs"]["values"]["engine=fluid"] == 1.0

    def test_process_executor_metrics_land_in_parent(self):
        points = _points()
        with SweepRunner(workers=2, cache=None, executor="process") as runner:
            result = runner.run_points(points)
        assert result.n_simulated == len(points)
        # The simulations ran in worker processes; their deltas must
        # have merged into this (parent) process's registry.
        assert _total("sim.runs") == float(len(points))
        assert _total("measure.samples") == float(len(points))

    def test_serial_execution_does_not_double_count(self):
        # In-process execution increments the parent registry directly;
        # merging the outcome delta again would double every counter.
        points = _points(sizes=(2048, 8192))
        SweepRunner(workers=1, cache=None).run_points(points)
        assert _total("sim.runs") == 2.0

    def test_futures_executor_does_not_double_count(self):
        points = _points(sizes=(2048, 8192))
        SweepRunner(workers=2, cache=None, executor="futures").run_points(points)
        assert _total("sim.runs") == 2.0

    def test_rows_bit_identical_across_executors(self):
        points = _points()
        serial = SweepRunner(workers=1, cache=None).run_points(points)
        with SweepRunner(workers=2, cache=None, executor="process") as runner:
            pooled = runner.run_points(points)
        assert serial.to_rows() == pooled.to_rows()
