"""Self-contained execution payloads for sweep points.

An :class:`ExecutionTask` is everything a worker — in this process or
another — needs to resolve one sweep point: the point coordinates plus a
*rebuild recipe* for the cluster it runs on:

* **registry** (the default): the worker resolves ``point.cluster``
  through :data:`repro.registry.CLUSTERS`.  Always picklable.
* **scenario**: the worker rebuilds the profile from a
  :meth:`~repro.scenario.ScenarioSpec.to_dict` payload (profiles hold
  topology closures and cannot cross process boundaries; their specs
  can).  Rebuilds are memoised per worker process, so a persistent pool
  pays the profile construction once per scenario, not once per point.
* **profile**: the task carries the live
  :class:`~repro.clusters.profiles.ClusterProfile` object.  Not
  picklable, so such tasks only ever run in this process.

:func:`run_task` is the **failure-isolation boundary**: it never raises.
Any exception from profile rebuilding or the simulation itself becomes
an error :class:`TaskOutcome` (message, exception type, traceback), so
one bad point cannot kill a million-point sweep or poison a worker
pool.  The runner decides what to do with errors (retry, collect, or
re-raise) — see :class:`repro.sweeps.SweepRunner`.
"""

from __future__ import annotations

import functools
import json
import time
import traceback as _tb
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.signature import AlltoallSample
from ..measure.alltoall import measure_alltoall
from ..obs.metrics import REGISTRY, diff_snapshots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clusters.profiles import ClusterProfile
    from ..sweeps.spec import SweepPoint

__all__ = ["ExecutionTask", "TaskOutcome", "run_task"]


@dataclass(frozen=True)
class ExecutionTask:
    """One sweep point plus the recipe to rebuild its cluster.

    ``index`` is the point's position in the caller's list; executors
    may complete tasks in any order, and the runner reassembles results
    by index.
    """

    index: int
    point: "SweepPoint"
    scenario: dict | None = None
    profile: "ClusterProfile | None" = None


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task: a sample, or an isolated failure.

    ``elapsed`` is the in-worker wall time of this task's final attempt
    (profile rebuild + simulation), measured where the work actually
    ran — it crosses process boundaries as a plain float and feeds the
    sweep profiling layer (:class:`repro.obs.SweepProfile`).

    ``metrics`` is the worker-side metrics delta of this task (a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`-shaped dict of
    what the task's work incremented), captured where the work ran.  It
    pickles across any executor; the runner merges every attempt's
    delta, a retried failure's included, into the parent registry only
    when the outcome actually crossed a process boundary (in-process
    execution already incremented the parent's counters directly —
    merging again would double-count).  With ``REPRO_SIM_STATS`` set,
    the final attempt's ``sim.*`` deltas become the row's ``sim_*``
    columns.
    """

    index: int
    sample: AlltoallSample | None = None
    error: str | None = None
    error_type: str | None = None
    traceback: str | None = None
    attempts: int = 1
    elapsed: float = 0.0
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@functools.lru_cache(maxsize=32)
def _scenario_profile(payload: str) -> "ClusterProfile":
    """Rebuild (and memoise) a scenario's profile from its JSON payload.

    Deterministic by construction — ``build_profile`` derives everything
    from the spec — so memoising per process is sound, and a persistent
    worker pool re-running the same scenario skips the rebuild entirely.
    """
    from ..scenario import ScenarioSpec

    return ScenarioSpec.from_dict(json.loads(payload)).build_profile()


def _cluster_for(task: ExecutionTask) -> "ClusterProfile":
    """Materialise the cluster a task runs on, per its recipe."""
    if task.profile is not None:
        return task.profile
    if task.scenario is not None:
        return _scenario_profile(json.dumps(task.scenario, sort_keys=True))
    from ..clusters.profiles import get_cluster

    return get_cluster(task.point.cluster)


def run_task(task: ExecutionTask) -> TaskOutcome:
    """Execute one task; never raises (the failure-isolation boundary).

    Top-level so worker processes can pickle it.  ``KeyboardInterrupt``
    and other non-``Exception`` signals still propagate — only genuine
    point failures are isolated.
    """
    point = task.point
    start = time.perf_counter()
    before = REGISTRY.snapshot()
    try:
        cluster = _cluster_for(task)
        sample = measure_alltoall(
            cluster,
            point.n_processes,
            point.msg_size,
            reps=point.reps,
            seed=point.seed,
            algorithm=point.algorithm,
            pattern=point.pattern,
            engine=point.engine,
            placement=point.placement,
        )
    except Exception as exc:
        return TaskOutcome(
            index=task.index,
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
            traceback=_tb.format_exc(),
            elapsed=time.perf_counter() - start,
            metrics=diff_snapshots(before, REGISTRY.snapshot()) or None,
        )
    return TaskOutcome(
        index=task.index,
        sample=sample,
        elapsed=time.perf_counter() - start,
        metrics=diff_snapshots(before, REGISTRY.snapshot()) or None,
    )
