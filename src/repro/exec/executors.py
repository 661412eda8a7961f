"""Pluggable executors: *how* cache-missed sweep points run.

An executor consumes :class:`~repro.exec.task.ExecutionTask` batches and
yields :class:`~repro.exec.task.TaskOutcome` objects **as they
complete** (any order; the runner reassembles by index).  Built-ins:

* ``serial``  — in-process, in-order; zero overhead, always safe.
* ``process`` — a **persistent** ``concurrent.futures`` process pool
  fed in batched chunks, one future per chunk.  The pool survives
  across ``run()`` calls, so consecutive sweeps on one runner reuse
  warm workers instead of re-forking (the dominant cost of short
  sweeps).  It is recycled automatically when the plugin registries
  change, so forked workers never run with a stale plugin view, and a
  worker that dies fails only the point that killed it.  ``futures``,
  ``concurrent-futures``, ``pool`` and ``multiprocessing`` are aliases.

Register additional executors (SLURM, async, …) with
:func:`repro.registry.register_executor`::

    from repro.api import register_executor

    @register_executor("my-grid")
    def make(workers):
        return MyGridExecutor(workers)

Executors only ever see *portable* tasks when crossing process
boundaries — the sweep planner keeps unpicklable profile-recipe tasks
on the serial path (see ``SweepRunner._plan``).
"""

from __future__ import annotations

import atexit
from concurrent import futures as _cf
from typing import Iterable, Iterator, Sequence

from ..registry import EXECUTORS, register_executor, registry_epoch
from . import task as _task
from .task import ExecutionTask, TaskOutcome

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
]


class Executor:
    """Protocol for execution backends (subclass or duck-type it).

    Attributes
    ----------
    name:
        Registry name, echoed in logs and ``repro-alltoall list``.
    distributed:
        True when ``run`` ships tasks to other processes; the planner
        only fans out registry/scenario-recipe (picklable) tasks to
        distributed executors.
    """

    name = "base"
    distributed = False

    def run(self, tasks: Sequence[ExecutionTask]) -> Iterator[TaskOutcome]:
        """Yield one outcome per task, in completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution (the ``workers=1`` path)."""

    name = "serial"
    distributed = False

    def run(self, tasks: Iterable[ExecutionTask]) -> Iterator[TaskOutcome]:
        for task in tasks:
            # Resolved through the module so tests can intercept the
            # single execution entry point for every executor at once.
            yield _task.run_task(task)


def _run_chunk(tasks: Sequence[ExecutionTask]) -> list[TaskOutcome]:
    """Pool worker entry point: run one chunk, outcomes in task order.

    Module-level so workers can pickle it; ``run_task`` is resolved
    through its module at call time, so a wrapper installed there before
    the pool forks runs in the workers too.
    """
    return [_task.run_task(task) for task in tasks]


class ProcessExecutor(Executor):
    """Persistent ``concurrent.futures`` process pool, one future per chunk.

    The pool starts lazily and is **reused** across ``run`` calls, so
    consecutive batches start on warm workers.  It is recycled when the
    plugin registries change (forked workers must never resolve a stale
    registry view), and an ``atexit`` hook, held only while a pool is
    live, reaps it at interpreter exit.  With *k* tasks on *w* workers,
    chunks of ``max(1, k // (4 w))`` amortise IPC while bounding the
    tail of the last chunk; outcomes stream back as chunks land, so
    memory stays bounded by the in-flight window, not the sweep size.

    A worker that dies (OOM kill, segfault, ``os._exit``) breaks the
    pool and every chunk in flight.  The pool is closed and those tasks
    re-run one at a time on a fresh pool, so only a task that kills its
    worker on its own fails, as a ``WorkerDied`` outcome.
    """

    name = "process"
    distributed = True

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = None
        self._epoch: int | None = None

    @property
    def warm(self) -> bool:
        """Whether a live pool is ready for reuse."""
        return self._pool is not None

    @staticmethod
    def chunksize(n_tasks: int, workers: int) -> int:
        """Batched-streaming chunk size (4 waves per worker)."""
        return max(1, n_tasks // (workers * 4))

    def _ensure_pool(self):
        epoch = registry_epoch()
        if self._pool is not None and epoch != self._epoch:
            # Plugins were (un)registered after the workers started; a
            # stale pool would resolve yesterday's registry view.
            self.close()
        if self._pool is None:
            self._pool = _cf.ProcessPoolExecutor(max_workers=self.workers)
            self._epoch = epoch
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
            atexit.unregister(self.close)

    def run(self, tasks: Sequence[ExecutionTask]) -> Iterator[TaskOutcome]:
        size = self.chunksize(len(tasks), self.workers)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        try:
            pool = self._ensure_pool()
            pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        except _cf.BrokenExecutor:
            # A worker died while the pool sat idle between batches;
            # this batch's results would die with it, so start afresh.
            self.close()
            pool = self._ensure_pool()
            pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        broken: list[ExecutionTask] = []
        for future in _cf.as_completed(pending):
            # Drop each future as it lands: holding them until the batch
            # ends would keep every outcome (and metrics delta) alive.
            chunk = pending.pop(future)
            try:
                outcomes = future.result()
            except _cf.BrokenExecutor as exc:
                self.close()
                if len(tasks) == 1:
                    yield TaskOutcome(
                        index=chunk[0].index,
                        error=f"worker process died: {exc}",
                        error_type="WorkerDied",
                    )
                else:
                    broken += chunk
                continue
            yield from outcomes
        # Alone in its batch, a task that breaks the pool is the one
        # that killed its worker.
        for task in broken:
            yield from self.run([task])


@register_executor("serial", aliases=("inline", "sync"))
def _make_serial(workers: int = 1) -> SerialExecutor:
    """In-process execution; ``workers`` is accepted for uniformity."""
    return SerialExecutor()


@register_executor(
    "process",
    aliases=("futures", "concurrent-futures", "pool", "multiprocessing"),
)
def _make_process(workers: int = 1) -> ProcessExecutor:
    """Persistent process pool with chunked streaming."""
    return ProcessExecutor(workers)


def get_executor(kind: str, workers: int = 1) -> Executor:
    """Executor factory, resolved through the executor registry.

    Unknown kinds raise :class:`~repro.exceptions.UnknownNameError`
    naming the registered executors.
    """
    return EXECUTORS.get(kind)(workers)
