"""Sweep execution on pluggable backends, cache-first, streaming.

The runner resolves every point against the :class:`ResultCache` first,
plans the remaining (cache-miss) points as
:class:`~repro.exec.ExecutionTask` payloads, and hands them to an
**executor** from the :data:`repro.registry.EXECUTORS` registry —
``serial`` (in-process) or ``process`` (a persistent warm
``concurrent.futures`` worker pool with chunked streaming, the default
when ``workers > 1``).  Simulation order never affects results: each
point's random streams are derived *by name* from its own coordinates
(see the package docstring), so a point simulated by worker 3 of an
8-way pool is bit-identical to the same point simulated serially — and
so are the cache keys.

Which batches reach the executor is decided in ``SweepRunner._execute``.

Failures are isolated per point: a worker exception — or a worker
process dying on the point (``WorkerDied``) — becomes an error
:class:`PointResult` (optionally retried ``retries`` times) instead of
killing the sweep; with the default ``on_error="raise"`` the original
exception is re-raised *after* every other point has resolved — and
been cached/streamed — so no completed work is ever lost.

Results stream as they land: pass ``sinks`` (incremental CSV/JSONL
appenders from :mod:`repro.exec.sinks`) and/or a ``progress`` callback
to ``run``/``run_points`` and arbitrarily large sweeps run in bounded
memory.

The runner stops at samples and rows.  Fitting cost models on a
finished :class:`SweepResult` is
:func:`repro.models.selection.compare_for_sweep`'s job.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..analysis.io import write_csv
from ..clusters.profiles import ClusterProfile, get_cluster
from ..core.signature import AlltoallSample
from ..exec.executors import Executor, SerialExecutor
from ..exec.sinks import STATS_ROW_FIELDS, ResultSink, row_fields
from ..simnet.stats import stats_enabled
from ..exec.task import ExecutionTask
from ..exceptions import ExecutionError, UnknownNameError
from ..obs.metrics import REGISTRY
from ..registry import (
    ALGORITHMS, CLUSTERS, ENGINES, EXECUTORS, MODELS, PATTERNS, PLACEMENTS,
    TOPOLOGIES,
)
from ..scenario import ScenarioSpec
from .cache import ResultCache, point_key, profile_fingerprint
from .spec import SweepPoint, SweepSpec

__all__ = [
    "PointResult",
    "SweepResult",
    "SweepRunner",
    "configure_default_runner",
    "default_runner",
]

#: Runs the batches a distributed executor does not get.  Stateless.
_INLINE = SerialExecutor()

#: The registry counter behind each ``sim_*`` column of
#: :data:`~repro.exec.sinks.STATS_ROW_FIELDS` (after ``engine``).
_STATS_COUNTERS = (
    "sim.solves", "sim.epochs", "sim.events",
    "sim.losses", "sim.stalls",
)


def _sim_counts(metrics: dict | None) -> tuple[int, ...] | None:
    """A point's ``sim_*`` cells: its ``sim.*`` deltas, summed over labels."""
    if not metrics:
        return None
    return tuple(
        int(sum(metrics.get(name, {}).get("values", {}).values()))
        for name in _STATS_COUNTERS
    )


class _OrderedEmitter:
    """Stream rows to sinks in expansion order despite unordered landings.

    Executors complete points in arbitrary order; files written in that
    order would differ byte-for-byte between worker counts.  This
    buffer flushes the contiguous prefix the moment it is complete —
    the serial path therefore streams with zero buffering — and
    :meth:`drain` writes any landed-but-gapped rows (index order) when
    a sweep ends early, so interruption never loses a completed point.
    """

    def __init__(self, total: int, sinks) -> None:
        self.total = total
        self.sinks = sinks
        self._pending: dict[int, PointResult] = {}
        self._next = 0

    def _write(self, result: PointResult) -> None:
        row = result.to_row()
        for sink in self.sinks:
            sink.write(row)

    def land(self, index: int, result: PointResult) -> None:
        if not self.sinks:
            return
        self._pending[index] = result
        while self._next in self._pending:
            self._write(self._pending.pop(self._next))
            self._next += 1

    def drain(self) -> None:
        for index in sorted(self._pending):
            self._write(self._pending.pop(index))


@dataclass(frozen=True)
class PointResult:
    """One resolved point: where its sample came from — or why it failed."""

    point: SweepPoint
    sample: AlltoallSample | None
    cached: bool
    error: str | None = None
    error_type: str | None = None
    attempts: int = 1
    #: In-worker wall seconds of the final attempt (0 for cache hits).
    elapsed: float = 0.0
    #: The final attempt's ``sim_*`` counts, kept only while
    #: ``REPRO_SIM_STATS`` is set (``None`` for cache hits and failures).
    sim_counts: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_row(self) -> dict[str, object]:
        """Flat tabular view of this point (:func:`row_fields` schema).

        The base columns are fixed; with ``REPRO_SIM_STATS`` set, the
        engine name and simulation-effort counts are appended (empty
        for cache hits and failed points, which simulated nothing the
        row can report).
        """
        row: dict[str, object] = {
            "cluster": self.point.cluster,
            "algorithm": self.point.algorithm,
            "pattern": (
                "uniform" if self.point.pattern is None
                else self.point.pattern.key()
            ),
            "placement": (
                "identity" if self.point.placement is None
                else self.point.placement.key()
            ),
            "n_processes": self.point.n_processes,
            "msg_size": self.point.msg_size,
            "seed": self.point.seed,
            "reps": self.point.reps,
            "mean_time": None if self.sample is None else self.sample.mean_time,
            "std_time": None if self.sample is None else self.sample.std_time,
            "cached": int(self.cached),
            "error": self.error or "",
        }
        if stats_enabled():
            row["engine"] = self.point.engine
            row.update(zip(
                STATS_ROW_FIELDS[1:],
                self.sim_counts or ("",) * len(_STATS_COUNTERS),
            ))
        return row


@dataclass
class SweepResult:
    """All resolved points of one sweep, in spec expansion order."""

    results: list[PointResult]
    elapsed: float
    workers: int
    #: Wall time of the execution (cache-miss) phase alone; the gap to
    #: ``elapsed`` is cache probing, keying and streaming.
    exec_elapsed: float = 0.0

    @property
    def samples(self) -> list[AlltoallSample]:
        """The samples alone (expansion order; ``None`` for failed points)."""
        return [r.sample for r in self.results]

    @property
    def n_points(self) -> int:
        return len(self.results)

    @property
    def n_cached(self) -> int:
        """Points served from the cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def n_simulated(self) -> int:
        """Points that ran a fresh simulation (successfully)."""
        return sum(1 for r in self.results if not r.cached and r.ok)

    @property
    def n_failed(self) -> int:
        """Points whose simulation errored (after any retries)."""
        return sum(1 for r in self.results if not r.ok)

    @property
    def failures(self) -> list[PointResult]:
        """The failed points (expansion order)."""
        return [r for r in self.results if not r.ok]

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the cache (0 on empty sweeps)."""
        return self.n_cached / self.n_points if self.n_points else 0.0

    @property
    def sim_time(self) -> float:
        """Summed in-worker simulation seconds across simulated points."""
        return sum(r.elapsed for r in self.results if not r.cached and r.ok)

    def profile(self, *, slowest: int = 3):
        """Timing/cache profile of this sweep (:class:`repro.obs.SweepProfile`)."""
        from ..obs import SweepProfile

        return SweepProfile.from_result(self, slowest=slowest)

    def to_rows(self) -> tuple[list[str], list[dict[str, object]]]:
        """Flat tabular view (CSV/JSONL-ready)."""
        return row_fields(), [r.to_row() for r in self.results]

    def save_csv(self, path: str | Path) -> Path:
        """Persist rows as CSV (parents created)."""
        fieldnames, rows = self.to_rows()
        return write_csv(path, fieldnames, rows)

    def save_jsonl(self, path: str | Path) -> Path:
        """Persist rows as JSON lines (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _, rows = self.to_rows()
        with path.open("w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return path


class SweepRunner:
    """Execute sweep points on a pluggable executor, cache-first.

    Parameters
    ----------
    workers:
        Worker count handed to the executor factory; ``1`` keeps
        everything in-process.
    cache:
        Result cache, or ``None`` to always simulate.
    executor:
        Executor registry name (``serial`` / ``process`` or an alias
        such as ``futures``, or a user-registered one), or a live
        :class:`~repro.exec.Executor` instance.  Default: ``process``
        when ``workers > 1``, else ``serial``.  The instance is built
        lazily and **kept** — consecutive ``run_points`` calls on one
        runner reuse a warm worker pool.
    retries:
        How many times a failed point is re-run before its error is
        recorded (transient worker failures; deterministic simulation
        errors fail identically every attempt).
    on_error:
        ``"raise"`` (default): after the whole batch resolves, re-raise
        the first failure (completed points are already cached and
        streamed).  ``"keep"``: record failures as error
        :class:`PointResult` rows and return normally.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        executor: str | Executor | None = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if on_error not in ("raise", "keep"):
            raise ValueError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self.on_error = on_error
        if executor is None:
            executor = "process" if workers > 1 else "serial"
        if isinstance(executor, str):
            # Resolve eagerly: unknown names fail at construction with
            # the known-executors message, not mid-sweep.
            self.executor_name = EXECUTORS.canonical(executor)
            self._executor: Executor | None = None
        else:
            self.executor_name = getattr(executor, "name", type(executor).__name__)
            self._executor = executor

    @property
    def executor(self) -> Executor:
        """The live executor (built on first use, then reused warm)."""
        if self._executor is None:
            self._executor = EXECUTORS.get(self.executor_name)(self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the executor (its worker pool, if any)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API -----------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        *,
        sinks: tuple[ResultSink, ...] = (),
        progress=None,
    ) -> SweepResult:
        """Resolve every point of *spec* (cache hits + fresh simulations)."""
        return self.run_points(spec.points(), sinks=sinks, progress=progress)

    def run_points(
        self,
        points: list[SweepPoint],
        *,
        profile: ClusterProfile | None = None,
        scenario: ScenarioSpec | None = None,
        sinks: tuple[ResultSink, ...] = (),
        progress=None,
    ) -> SweepResult:
        """Resolve an explicit point list.

        With *profile* set, every point is simulated on that object (its
        ``cluster`` field is used only for cache keying/labels); without
        it, cluster names are resolved through the registry — unknown
        names fail fast here with the known-names message, never inside
        a worker.

        With *scenario* set (a :class:`~repro.scenario.ScenarioSpec`),
        the profile defaults to ``scenario.build_profile()``, cache keys
        additionally hash the scenario definition (so two different
        scenarios can never collide), and misses fan out to worker
        processes by shipping the spec dict instead of the profile.

        *sinks* receive one flat row per point, each write flushed, in
        **expansion order**: the contiguous prefix streams out as soon
        as its points land (so the files are byte-identical across
        executors and worker counts), and any landed-but-gapped rows
        are drained on close — an interrupted sweep keeps every
        completed row.  *progress* is called as
        ``progress(done, total, point_result)`` in live completion
        order.
        """
        start = time.perf_counter()
        if profile is None and scenario is not None:
            profile = scenario.build_profile()
        if profile is None and scenario is None:
            unknown = sorted({p.cluster for p in points if p.cluster not in CLUSTERS})
            if unknown:
                known = ", ".join(CLUSTERS.names())
                raise UnknownNameError(f"unknown clusters {unknown}; known: {known}")
        scenario_payload = (
            scenario.cache_payload() if scenario is not None else None
        )
        samples: dict[int, AlltoallSample] = {}
        cached: set[int] = set()
        keys: list[str] = []
        if self.cache is not None:
            # Each point is keyed against the fabric it actually
            # simulates: the profile fingerprint probed at the point's
            # own process count (memoised per (cluster, n)).
            fingerprints: dict[tuple[str, int], dict[str, object]] = {}

            def fingerprint_for(point: SweepPoint) -> dict[str, object]:
                memo = (point.cluster, point.n_processes)
                if memo not in fingerprints:
                    cluster = (
                        profile if profile is not None else get_cluster(point.cluster)
                    )
                    fingerprints[memo] = profile_fingerprint(
                        cluster, probe_sizes=(point.n_processes,)
                    )
                return fingerprints[memo]

            keys = [
                point_key(p, fingerprint_for(p), scenario_payload)
                for p in points
            ]
            for idx, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not None:
                    samples[idx] = hit
                    cached.add(idx)
        misses = [idx for idx in range(len(points)) if idx not in samples]

        total = len(points)
        stats_on = stats_enabled()
        resolved: dict[int, PointResult] = {}
        opened: list[ResultSink] = []
        emitter = _OrderedEmitter(total, opened)
        try:
            for sink in sinks:
                sink.open(row_fields())
                opened.append(sink)
            for idx in sorted(cached):
                result = PointResult(
                    point=points[idx], sample=samples[idx], cached=True
                )
                resolved[idx] = result
                emitter.land(idx, result)
                if progress is not None:
                    progress(len(resolved), total, result)
            exec_start = time.perf_counter()
            for outcome in self._execute(misses, points, profile, scenario):
                idx = outcome.index
                if outcome.ok and self.cache is not None:
                    self.cache.put(keys[idx], points[idx], outcome.sample)
                result = PointResult(
                    point=points[idx],
                    sample=outcome.sample,
                    cached=False,
                    error=outcome.error,
                    error_type=outcome.error_type,
                    attempts=outcome.attempts,
                    elapsed=outcome.elapsed,
                    sim_counts=(
                        _sim_counts(outcome.metrics)
                        if stats_on and outcome.ok else None
                    ),
                )
                resolved[idx] = result
                emitter.land(idx, result)
                if progress is not None:
                    progress(len(resolved), total, result)
            exec_elapsed = time.perf_counter() - exec_start if misses else 0.0
        finally:
            # Drain landed-but-gapped rows (interrupted runs keep every
            # completed point), then release every successfully-opened
            # sink — a sink whose open() raised leaks nothing.
            emitter.drain()
            for sink in opened:
                sink.close()

        results = [resolved[idx] for idx in range(total)]
        failures = [r for r in results if not r.ok]
        if failures and self.on_error == "raise":
            raise self._rehydrate(failures[0])
        return SweepResult(
            results=results,
            elapsed=time.perf_counter() - start,
            workers=self.workers,
            exec_elapsed=exec_elapsed,
        )

    # -- streaming ------------------------------------------------------

    @staticmethod
    def _rehydrate(failure: PointResult) -> Exception:
        """Rebuild the exception a failed point's worker reported.

        Errors cross process boundaries as ``(message, type name)``
        strings; the type is looked up in :mod:`repro.exceptions`, then
        in builtins, else wrapped as
        :class:`~repro.exceptions.ExecutionError` — so call sites keep
        catching :class:`MeasurementError` & co. exactly as before the
        isolation boundary existed.
        """
        import builtins

        from .. import exceptions as _exceptions

        name = failure.error_type or ""
        cls = getattr(_exceptions, name, None) or getattr(builtins, name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = ExecutionError
        try:
            return cls(failure.error)
        except Exception:
            # Some exception types need multiple constructor arguments
            # (e.g. UnicodeDecodeError); never let the re-raise path
            # itself blow up and mask the point's real failure.
            return ExecutionError(f"{name}: {failure.error}")

    # -- execution ------------------------------------------------------

    @staticmethod
    def _recipe(
        points: list[SweepPoint],
        profile: ClusterProfile | None,
        scenario: ScenarioSpec | None,
    ) -> dict | None:
        """What a fresh worker rebuilds this batch's fabric from.

        As :class:`ExecutionTask` fields: ``{"scenario": spec dict}``
        (a profile holds topology closures and does not pickle; its spec
        does), or ``{}`` for the cluster name each point carries, which
        also serves a *profile* that probes identical, at every swept n,
        to the registry entry each point names.  ``None`` keeps the
        batch in this process: an ad-hoc profile, or, under
        ``spawn``/``forkserver``, whose workers start from a bare
        ``import repro``, a plugin the batch's points or scenario name
        that is not built in or that no registry resolves.  ``fork``
        workers inherit this process's registries.
        """
        if scenario is not None:
            recipe = {"scenario": scenario.to_dict()}
            # A worker re-validates the whole spec, not only the parts
            # the batch's points use (a fit's points carry no pattern).
            plugins = {(MODELS, scenario.model)}
            if scenario.base is not None:
                plugins.add((CLUSTERS, scenario.base))
            if scenario.topology is not None:
                plugins.add((TOPOLOGIES, scenario.topology.factory))
            uses = [(
                scenario.algorithm, scenario.engine,
                scenario.workload.pattern, scenario.placement,
            )]
        else:
            names = {p.cluster for p in points}
            if profile is not None:
                sizes = tuple(sorted({p.n_processes for p in points}))
                probe = profile_fingerprint(profile, probe_sizes=sizes)
                if any(
                    name not in CLUSTERS
                    or profile_fingerprint(get_cluster(name), probe_sizes=sizes) != probe
                    for name in names
                ):
                    return None
            recipe = {}
            plugins = {(CLUSTERS, name) for name in names}
            uses = []
        if multiprocessing.get_start_method() == "fork":
            return recipe
        uses += [(p.algorithm, p.engine, p.pattern, p.placement) for p in points]
        for algorithm, engine, pattern, placement in uses:
            plugins.add((ALGORITHMS, algorithm))
            if engine is not None:
                plugins.add((ENGINES, engine))
            if pattern is not None:
                plugins.add((PATTERNS, pattern.name))
            if placement is not None and not placement.is_explicit:
                plugins.add((PLACEMENTS, placement.name))
        built_in = all(registry.is_built_in(name) for registry, name in plugins)
        return recipe if built_in else None

    def _execute(
        self,
        misses: list[int],
        points: list[SweepPoint],
        profile: ClusterProfile | None,
        scenario: ScenarioSpec | None = None,
    ):
        """Yield a final :class:`TaskOutcome` per miss (completion order).

        The configured executor runs the batch.  A ``distributed`` one
        gets it only with several workers, more than one miss and a
        :meth:`_recipe`; otherwise the batch runs in this process.
        """
        if not misses:
            return
        executor = self.executor
        recipe = {"profile": profile}
        merge = getattr(executor, "distributed", False)
        if merge:
            shipped = (
                self._recipe([points[i] for i in misses], profile, scenario)
                if self.workers > 1 and len(misses) > 1 else None
            )
            if shipped is None:
                executor, merge = _INLINE, False
            else:
                recipe = shipped
        tasks = [ExecutionTask(i, points[i], **recipe) for i in misses]
        yield from self._with_retries(executor, tasks, merge=merge)

    def _with_retries(
        self, executor: Executor, tasks: list[ExecutionTask], *, merge: bool
    ):
        """Run *tasks*, re-submitting failures up to ``retries`` times.

        With *merge*, every attempt's worker-side metrics delta — a
        retried failure's too — is folded into this process's registry.
        In-process execution already incremented it directly; merging
        there would double-count, so only fan-out batches merge.
        """
        by_index = {task.index: task for task in tasks}
        pending = tasks
        for attempt in range(1, self.retries + 2):
            last = attempt == self.retries + 1
            retry: list[ExecutionTask] = []
            for outcome in executor.run(pending):
                if merge:
                    REGISTRY.merge(outcome.metrics)
                outcome = dataclasses.replace(outcome, attempts=attempt)
                if outcome.ok or last:
                    yield outcome
                else:
                    retry.append(by_index[outcome.index])
            if not retry:
                return
            pending = retry


# ----------------------------------------------------------------------
# Process-wide default runner (what library call sites route through).
# ----------------------------------------------------------------------

_default_runner: SweepRunner | None = None


def _env_int(name: str, default: int) -> int:
    """Parse a positive-integer env knob with a friendly error."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {raw!r}")
    return value


def configure_default_runner(
    *,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    enable_cache: bool | None = None,
    executor: str | Executor | None = None,
    retries: int | None = None,
) -> SweepRunner:
    """(Re)build the process-wide runner used by library sweep helpers.

    With no arguments, configuration comes from the environment:
    ``REPRO_SWEEP_WORKERS`` (default 1), ``REPRO_SWEEP_EXECUTOR``
    (an executor registry name; default ``process``/``serial`` by
    worker count) and ``REPRO_SWEEP_CACHE`` (a directory; unset
    disables caching).  Malformed values raise immediately with the
    offending variable named, instead of surfacing as a bare
    ``ValueError``/``KeyError`` at the first sweep.

    Replacing the runner closes the previous one (shutting down its
    warm worker pool, if any).
    """
    global _default_runner
    if workers is None:
        workers = _env_int("REPRO_SWEEP_WORKERS", 1)
    if executor is None:
        raw = os.environ.get("REPRO_SWEEP_EXECUTOR")
        if raw is not None and raw.strip():
            try:
                executor = EXECUTORS.canonical(raw)
            except UnknownNameError as exc:
                raise UnknownNameError(f"REPRO_SWEEP_EXECUTOR: {exc}") from None
    if enable_cache is None:
        enable_cache = cache_dir is not None or bool(os.environ.get("REPRO_SWEEP_CACHE"))
    cache = ResultCache(cache_dir) if enable_cache else None
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = SweepRunner(
        workers=workers,
        cache=cache,
        executor=executor,
        retries=retries if retries is not None else 0,
    )
    return _default_runner


def default_runner() -> SweepRunner:
    """The process-wide runner (built from the environment on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = configure_default_runner()
    return _default_runner
