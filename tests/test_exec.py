"""Unit tests for the execution subsystem (repro.exec)."""

import contextlib
import csv
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.exceptions import ExecutionError, MeasurementError, UnknownNameError
from repro.exec import (
    ROW_FIELDS,
    CallbackSink,
    CsvSink,
    ExecutionTask,
    JsonlSink,
    ProcessExecutor,
    ResultSink,
    SerialExecutor,
    get_executor,
    run_task,
    sink_for,
)
from repro.registry import CLUSTERS, EXECUTORS, register_cluster, register_executor
from repro.sweeps import (
    ResultCache,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    configure_default_runner,
)


def good_point(n=4, m=2_048, seed=0):
    return SweepPoint("gigabit-ethernet", n, m, "direct", seed, 1)


def bad_point():
    """A point whose simulation raises (hotspot targets exceed n)."""
    return SweepPoint(
        "gigabit-ethernet", 4, 2_048, "direct", 0, 1,
        pattern={"name": "hotspot", "params": {"targets": 100, "factor": 8.0}},
    )


class TestExecutorRegistry:
    def test_builtins_registered(self):
        names = EXECUTORS.names()
        assert {"serial", "process"} <= set(names)
        assert "futures" not in names  # an alias, not a second pool
        assert EXECUTORS.canonical("futures") == "process"

    def test_aliases_resolve(self):
        assert isinstance(get_executor("pool", 2), ProcessExecutor)
        assert isinstance(get_executor("futures", 2), ProcessExecutor)
        assert isinstance(get_executor("inline"), SerialExecutor)
        assert isinstance(get_executor("concurrent-futures", 2), ProcessExecutor)

    def test_unknown_executor_lists_known(self):
        with pytest.raises(UnknownNameError, match="serial"):
            get_executor("carrier-pigeon")

    def test_runner_rejects_unknown_executor_at_construction(self):
        with pytest.raises(UnknownNameError, match="unknown executor"):
            SweepRunner(executor="carrier-pigeon")

    def test_user_registered_executor_is_used(self):
        calls = []

        class RecordingExecutor(SerialExecutor):
            name = "test-recording"
            distributed = True

            def run(self, tasks):
                calls.append(len(tasks))
                yield from super().run(tasks)

        register_executor("test-recording")(lambda workers=1: RecordingExecutor())
        try:
            runner = SweepRunner(workers=2, executor="test-recording")
            result = runner.run_points([good_point(4), good_point(5)])
            assert result.n_simulated == 2
            assert calls == [2]
        finally:
            EXECUTORS.unregister("test-recording")


class TestRunTask:
    def test_success(self):
        outcome = run_task(ExecutionTask(7, good_point()))
        assert outcome.ok
        assert outcome.index == 7
        assert outcome.sample.mean_time > 0

    def test_failure_is_isolated(self):
        outcome = run_task(ExecutionTask(0, bad_point()))
        assert not outcome.ok
        assert outcome.sample is None
        assert outcome.error_type == "MeasurementError"
        assert "hotspot" in outcome.error
        assert "MeasurementError" in outcome.traceback

    def test_unknown_cluster_is_isolated(self):
        point = good_point()
        object.__setattr__(point, "cluster", "no-such-cluster")
        outcome = run_task(ExecutionTask(0, point))
        assert not outcome.ok
        assert outcome.error_type == "UnknownNameError"

    def test_portable(self):
        from repro.clusters import gigabit_ethernet

        assert ExecutionTask(0, good_point()).portable
        assert not ExecutionTask(0, good_point(), profile=gigabit_ethernet()).portable


class TestExecutorsAgree:
    TASKS = None  # built lazily; SweepPoint validation needs registries

    def _tasks(self):
        points = [good_point(n, m) for n in (4, 5) for m in (2_048, 8_192)]
        return [ExecutionTask(i, p) for i, p in enumerate(points)]

    def _times(self, outcomes):
        by_index = {o.index: o for o in outcomes}
        assert all(o.ok for o in by_index.values())
        return [by_index[i].sample.mean_time for i in sorted(by_index)]

    def test_process_and_futures_match_serial(self):
        tasks = self._tasks()
        serial = self._times(SerialExecutor().run(tasks))
        with ProcessExecutor(2) as pool:  # ``futures`` is its alias
            assert self._times(pool.run(tasks)) == serial


class TestProcessExecutorPersistence:
    def test_pool_is_reused_across_runs(self):
        with ProcessExecutor(2) as executor:
            assert not executor.warm
            list(executor.run(self._tasks()))
            first_pool = executor._pool
            assert executor.warm
            list(executor.run(self._tasks()))
            assert executor._pool is first_pool
        assert not executor.warm  # context exit closed it

    def test_pool_recycled_when_registries_change(self):
        with ProcessExecutor(2) as executor:
            list(executor.run(self._tasks()))
            first_pool = executor._pool

            @register_cluster("test-epoch-bump")
            def factory():  # pragma: no cover - never built
                raise AssertionError

            try:
                list(executor.run(self._tasks()))
                assert executor._pool is not first_pool
            finally:
                CLUSTERS.unregister("test-epoch-bump")

    def test_close_is_idempotent(self):
        executor = ProcessExecutor(2)
        executor.close()
        executor.close()

    def test_chunksize_batches(self):
        assert ProcessExecutor.chunksize(64, 4) == 4
        assert ProcessExecutor.chunksize(3, 8) == 1

    @staticmethod
    def _tasks():
        return [ExecutionTask(i, good_point(4, m)) for i, m in enumerate((2_048, 8_192))]


class TestSinks:
    ROW = {field: "" for field in ROW_FIELDS}

    def test_csv_rows_land_incrementally(self, tmp_path):
        path = tmp_path / "out" / "rows.csv"
        sink = CsvSink(path)
        sink.open(ROW_FIELDS)
        sink.write({**self.ROW, "cluster": "a", "mean_time": 1.5})
        # Visible on disk before close: the sink flushes per row.
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1 and rows[0]["cluster"] == "a"
        sink.write({**self.ROW, "cluster": "b", "mean_time": None})
        sink.close()
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [r["cluster"] for r in rows] == ["a", "b"]
        assert rows[1]["mean_time"] == ""  # failed points: empty cells

    def test_jsonl_rows_land_incrementally(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        sink = JsonlSink(path)
        sink.open(ROW_FIELDS)
        sink.write({"cluster": "a", "mean_time": None})
        assert json.loads(path.read_text())["mean_time"] is None
        sink.close()

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.open(ROW_FIELDS)
        sink.write({"cluster": "x"})
        sink.close()
        assert seen == [{"cluster": "x"}]

    def test_sink_for_extension_dispatch(self, tmp_path):
        assert isinstance(sink_for(tmp_path / "a.csv"), CsvSink)
        assert isinstance(sink_for(tmp_path / "a.jsonl"), JsonlSink)
        assert isinstance(sink_for(tmp_path / "a.ndjson"), JsonlSink)
        with pytest.raises(ValueError, match="csv or .jsonl"):
            sink_for(tmp_path / "a.parquet")


class TestFailureIsolation:
    def test_keep_records_error_without_losing_points(self):
        runner = SweepRunner(on_error="keep")
        result = runner.run_points([good_point(4), bad_point(), good_point(5)])
        assert result.n_points == 3
        assert result.n_simulated == 2
        assert result.n_failed == 1
        failure = result.failures[0]
        assert failure.error_type == "MeasurementError"
        assert failure.sample is None
        _, rows = result.to_rows()
        assert rows[1]["error"] and rows[1]["mean_time"] is None
        assert rows[0]["error"] == "" and rows[0]["mean_time"] > 0

    def test_raise_rehydrates_original_type_after_batch(self, tmp_path):
        sink = JsonlSink(tmp_path / "rows.jsonl")
        runner = SweepRunner()  # on_error="raise" default
        with pytest.raises(MeasurementError, match="hotspot"):
            runner.run_points([good_point(4), bad_point(), good_point(5)], sinks=(sink,))
        # The failure did not lose the completed points: every row —
        # including the error row — was streamed before the raise.
        rows = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert len(rows) == 3
        assert sum(1 for r in rows if r["error"]) == 1

    def test_parallel_workers_isolate_failures(self):
        with SweepRunner(workers=2, on_error="keep") as runner:
            points = [good_point(4), bad_point(), good_point(5), good_point(6)]
            result = runner.run_points(points)
            assert result.n_failed == 1
            assert result.n_simulated == 3
            # Failed point is identifiable by position, not just count.
            assert not result.results[1].ok

    def test_multiarg_builtin_error_falls_back_to_execution_error(self):
        # UnicodeDecodeError's constructor needs five arguments; the
        # re-raise path must not blow up with a TypeError masking it.
        @register_cluster("test-multiarg-error")
        def factory():
            raise UnicodeDecodeError("utf-8", b"x", 0, 1, "boom")

        try:
            with pytest.raises(ExecutionError, match="UnicodeDecodeError.*boom"):
                SweepRunner().run_points(
                    [SweepPoint("test-multiarg-error", 4, 2_048, "direct", 0, 1)]
                )
        finally:
            CLUSTERS.unregister("test-multiarg-error")

    def test_failed_sink_open_closes_earlier_sinks(self, tmp_path):
        class ExplodingSink(ResultSink):
            def open(self, fieldnames):
                raise PermissionError("sink target unwritable")

        closed = []

        class TrackingSink(JsonlSink):
            def close(self):
                closed.append(True)
                super().close()

        with pytest.raises(PermissionError):
            SweepRunner().run_points(
                [good_point()],
                sinks=(TrackingSink(tmp_path / "a.jsonl"), ExplodingSink()),
            )
        assert closed == [True]  # the successfully-opened sink was released

    def test_unrehydratable_error_becomes_execution_error(self):
        class WeirdError(Exception):
            pass

        @register_cluster("test-weird-failure")
        def factory():
            raise WeirdError("no such exception type in repro.exceptions")

        try:
            with pytest.raises(ExecutionError, match="no such exception"):
                SweepRunner().run_points(
                    [SweepPoint("test-weird-failure", 4, 2_048, "direct", 0, 1)]
                )
        finally:
            CLUSTERS.unregister("test-weird-failure")


class TestRetryPolicy:
    def test_transient_failure_retried(self):
        state = {"failures_left": 1}

        @register_cluster("test-flaky")
        def factory():
            from repro.clusters import gigabit_ethernet

            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                raise RuntimeError("transient worker failure")
            return gigabit_ethernet().with_overrides(name="test-flaky")

        try:
            point = SweepPoint("test-flaky", 4, 2_048, "direct", 0, 1)
            result = SweepRunner(retries=1).run_points([point])
            assert result.results[0].ok
            assert result.results[0].attempts == 2
        finally:
            CLUSTERS.unregister("test-flaky")

    def test_exhausted_retries_keep_error(self):
        runner = SweepRunner(retries=2, on_error="keep")
        result = runner.run_points([bad_point()])
        assert result.n_failed == 1
        assert result.results[0].attempts == 3  # 1 try + 2 retries

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(retries=-1)

    def test_rejects_bad_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepRunner(on_error="ignore")


class TestRunnerStreaming:
    def test_cache_hits_stream_before_fresh_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [good_point(4), good_point(5)]
        SweepRunner(cache=cache).run_points(points)

        order = []
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        runner.run_points(
            points + [good_point(6)],
            progress=lambda done, total, r: order.append((done, total, r.cached)),
        )
        assert order == [(1, 3, True), (2, 3, True), (3, 3, False)]

    def test_progress_counts_every_point(self):
        seen = []
        with SweepRunner(workers=2) as runner:
            runner.run_points(
                [good_point(n, m) for n in (4, 5) for m in (2_048, 8_192)],
                progress=lambda done, total, r: seen.append((done, total)),
            )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_sinks_receive_all_rows_parallel(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with SweepRunner(workers=2) as runner:
            runner.run_points(
                [good_point(n, m) for n in (4, 5) for m in (2_048, 8_192)],
                sinks=(JsonlSink(path),),
            )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert {(r["n_processes"], r["msg_size"]) for r in rows} == {
            (n, m) for n in (4, 5) for m in (2_048, 8_192)
        }

    def test_sink_files_byte_identical_across_worker_counts(self, tmp_path):
        # Regression: unordered pool completions must be re-sequenced —
        # a streamed CSV written in completion order differed between
        # worker counts, breaking the repo's determinism invariant.
        points = [good_point(n, m) for n in (4, 5, 6) for m in (2_048, 8_192)]
        paths = []
        for name, kwargs in (
            ("serial.csv", dict(workers=1, executor="serial")),
            ("process.csv", dict(workers=3, executor="process")),
            ("futures.csv", dict(workers=3, executor="futures")),
        ):
            path = tmp_path / name
            with SweepRunner(**kwargs) as runner:
                runner.run_points(points, sinks=(CsvSink(path),))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]


class TestRunPointsValidation:
    def test_unknown_cluster_fails_fast_with_known_names(self):
        point = SweepPoint("no-such-cluster", 4, 2_048, "direct", 0, 1)
        with pytest.raises(KeyError, match="unknown clusters.*known:"):
            SweepRunner().run_points([point])

    def test_profile_and_scenario_points_skip_registry_check(self):
        # Scenario labels are not registry names; they must still run.
        from repro.clusters import gigabit_ethernet

        profile = gigabit_ethernet().with_overrides(name="ad-hoc-label")
        point = SweepPoint("ad-hoc-label", 4, 2_048, "direct", 0, 1)
        result = SweepRunner().run_points([point], profile=profile)
        assert result.n_simulated == 1


class TestEnvConfiguration:
    def teardown_method(self):
        # Rebuild a clean default for later tests regardless of outcome.
        configure_default_runner()

    def test_executor_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTOR", "futures")
        runner = configure_default_runner()
        assert runner.executor_name == "process"

    def test_malformed_workers_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS.*'many'"):
            configure_default_runner()

    def test_nonpositive_workers_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            configure_default_runner()

    def test_unknown_executor_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTOR", "carrier-pigeon")
        with pytest.raises(UnknownNameError, match="REPRO_SWEEP_EXECUTOR.*known:"):
            configure_default_runner()

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_EXECUTOR", "carrier-pigeon")
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "junk")
        runner = configure_default_runner(workers=2, executor="serial")
        assert runner.workers == 2
        assert runner.executor_name == "serial"


class TestBitIdenticalAcrossExecutors:
    SPEC = dict(
        clusters=("gigabit-ethernet",),
        nprocs=(4, 5),
        sizes=(2_048, 8_192),
        algorithms=("direct",),
        patterns=(None, {"name": "hotspot", "params": {"targets": 2, "factor": 4.0}}),
        seeds=(0,),
        reps=1,
    )

    def _run(self, tmp_path, name, **runner_kwargs):
        cache = ResultCache(tmp_path / name)
        with SweepRunner(cache=cache, **runner_kwargs) as runner:
            result = runner.run(SweepSpec(**self.SPEC))
        keys = sorted(p.name for p in (tmp_path / name).glob("*/*.json"))
        return result.to_rows()[1], keys

    def test_rows_and_cache_keys_identical(self, tmp_path):
        serial_rows, serial_keys = self._run(tmp_path, "serial", workers=1, executor="serial")
        process_rows, process_keys = self._run(
            tmp_path, "process", workers=2, executor="process"
        )
        futures_rows, futures_keys = self._run(
            tmp_path, "futures", workers=2, executor="futures"
        )
        assert serial_rows == process_rows == futures_rows
        assert serial_keys == process_keys == futures_keys


@contextlib.contextmanager
def hang_guard(seconds=60):
    """Fail the block with ``TimeoutError`` if it runs over *seconds*.

    A pool that waits forever on a dead worker would otherwise hang the
    whole test run instead of failing one test.
    """

    def expire(signum, frame):
        raise TimeoutError(f"pooled call still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def dying_cluster():
    """A registered cluster whose factory kills any process but this one.

    Built in the test process (cache fingerprints, serial runs) it is
    plain GigE; resolved in a pool worker it ends that worker with
    ``os._exit(3)``, as an OOM kill or a segfault would.
    """
    parent = os.getpid()

    @register_cluster("test-worker-death")
    def factory():
        if os.getpid() != parent:
            os._exit(3)
        from repro.clusters import gigabit_ethernet

        return gigabit_ethernet().with_overrides(name="test-worker-death")

    try:
        yield "test-worker-death"
    finally:
        CLUSTERS.unregister("test-worker-death")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="user-registered clusters only reach pool workers under fork",
)
class TestWorkerDeath:
    """A worker that dies fails its own point and never hangs the sweep."""

    DYING = 3  # index of the point on the dying cluster

    def _points(self, cluster):
        points = [good_point(n, m) for n in (4, 5) for m in (2_048, 4_096, 8_192)]
        points += [good_point(6, 2_048)]
        points.insert(self.DYING, SweepPoint(cluster, 4, 2_048, "direct", 0, 1))
        return points

    def _others(self, rows):
        return rows[:self.DYING] + rows[self.DYING + 1:]

    def test_keep_fails_only_the_dying_point(self, dying_cluster):
        points = self._points(dying_cluster)
        serial = SweepRunner(on_error="keep").run_points(points)
        with SweepRunner(workers=2, on_error="keep") as runner, hang_guard():
            result = runner.run_points(points)
        expected = [None] * len(points)
        expected[self.DYING] = "WorkerDied"
        assert [r.error_type for r in result.results] == expected
        assert result.results[self.DYING].error.startswith("worker process died: ")
        assert self._others(result.to_rows()[1]) == self._others(serial.to_rows()[1])

    def test_retry_reruns_the_dying_point(self, dying_cluster):
        points = self._points(dying_cluster)
        with SweepRunner(workers=2, on_error="keep", retries=1) as runner, hang_guard():
            result = runner.run_points(points)
        assert result.n_failed == 1
        assert result.results[self.DYING].error_type == "WorkerDied"
        assert result.results[self.DYING].attempts == 2

    def test_raise_after_batch_keeps_good_points_cached(self, dying_cluster, tmp_path):
        points = self._points(dying_cluster)
        with SweepRunner(
            workers=2, cache=ResultCache(tmp_path / "cache")
        ) as runner, hang_guard():
            with pytest.raises(ExecutionError, match="worker process died"):
                runner.run_points(points)
        rerun = SweepRunner(cache=ResultCache(tmp_path / "cache")).run_points(
            self._others(points)
        )
        assert rerun.n_cached == len(points) - 1

    def test_runner_recovers_for_the_next_sweep(self, dying_cluster):
        points = self._points(dying_cluster)
        with SweepRunner(workers=2, on_error="keep") as runner, hang_guard():
            runner.run_points(points)
            result = runner.run_points(self._others(points))
        assert result.n_failed == 0
        assert result.n_simulated == len(points) - 1

    def test_pool_broken_while_idle_is_replaced(self):
        tasks = [ExecutionTask(i, good_point(4, m)) for i, m in enumerate((2_048, 8_192))]
        with ProcessExecutor(2) as executor, hang_guard():
            list(executor.run(tasks))
            pool = executor._pool
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            outcomes = list(executor.run(tasks))
            assert executor._pool is not pool
        assert sorted(o.index for o in outcomes if o.ok) == [0, 1]

    def test_cli_reports_dead_worker_cleanly(self, dying_cluster, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--clusters", f"gigabit-ethernet,{dying_cluster}",
            "--nprocs", "4", "--sizes", "2kB,8kB", "--reps", "1",
            "--workers", "2", "--no-cache", "--csv", str(tmp_path / "rows.csv"),
        ]
        with hang_guard():
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "sweep failed: worker process died" in err
        assert "Traceback" not in err

        with hang_guard():
            assert main(argv + ["--keep-going"]) == 1
        with open(tmp_path / "rows.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        for row in rows:
            if row["cluster"] == dying_cluster:
                assert row["error"].startswith("worker process died: ")
            else:
                assert row["error"] == ""
