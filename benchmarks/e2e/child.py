"""One fresh interpreter's share of a benchmark run (spawned by run.py).

Usage: ``python child.py MODE CONFIG_JSON`` with ``repro`` importable.

``setup``
    Import ``repro.cli``, build the workload's ``SweepRunner`` and start
    its executor, then print ``ready`` and the host-speed ticks taken
    meanwhile.  The parent times spawn → ready.
``sweep``
    Time one cold ``repro.cli.main(argv)``, then at least ``reruns``
    identical calls against the now-warm cache (more while they total
    under ``rerun_budget_s``); report wall times, peak RSS of this
    process and its reaped children, and the executor figures of the
    cold sweep's ``SweepResult``.
``trace``
    Wrap every layer's entry points (``spans.TARGETS``), run one cold
    and one warm ``main(argv)`` under root spans, write the spans as
    JSONL and report the per-layer tables.

Set-up and cold sweeps run under host-speed tick samplers, reruns
between bracketing probes (``probe.py``); the raw walls and probe times
go back to the parent, which rescales them to reference speed.

A sweep or trace child works in the fresh directory ``config["dir"]``:
the CLI streams ``rows.csv`` there, the cold sweep's copy is kept as
``rows.cold.csv`` (untimed) before any rerun overwrites it, and the
child writes ``result.json`` (and ``spans.jsonl``).  The CLI's own
output goes to this process's stdout, which the parent points at a log.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

#: Spans whose inclusive time is simulation-engine work (for
#: ``simnet.host_us_per_msg``).
_ENGINE_SPANS = ("simmpi.runtime", "simnet.vector", "simmpi.lowering")

#: Upper bound on warm reruns in one sweep child.
_MAX_RERUNS = 50


def _setup(config: dict) -> None:
    # NumPy (imported by probe) is among the first imports of repro.cli.
    from probe import TickSampler

    sampler = TickSampler().start()
    import repro.cli  # noqa: F401 - the import is what is being timed
    from repro.sweeps import ResultCache, SweepRunner

    runner = SweepRunner(
        workers=config["workers"],
        cache=ResultCache(config["cache_dir"]),
        executor=config["executor"],
    )
    # An empty batch starts a pooled executor's workers (a no-op for
    # the serial executor) through the public Executor API.
    list(runner.executor.run([]))
    ticks = sampler.stop()
    print("ready", json.dumps(ticks), flush=True)
    runner.close()


def _keep_cold_rows(config: dict) -> None:
    rows = Path(config["dir"]) / "rows.csv"
    if rows.exists():
        shutil.copyfile(rows, rows.with_suffix(".cold.csv"))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _sample_workers(tick_dir: str) -> None:
    """Start a tick sampler in every pool worker on its first task.

    Each worker appends its ticks to its own file in *tick_dir*.

    Pool workers are forked from this process and look ``run_task`` up
    by name in ``repro.exec.task``, so they inherit this wrapper.
    """
    import repro.exec.task as task_module
    from probe import TickSampler, worker_tick_path

    run_task = task_module.run_task
    parent = os.getpid()
    sampled_in: set[int] = set()

    def sampled(task):
        pid = os.getpid()
        if pid != parent and pid not in sampled_in:
            sampled_in.add(pid)
            TickSampler(worker_tick_path(tick_dir)).start()
        return run_task(task)

    task_module.run_task = functools.update_wrapper(sampled, run_task)


def _sampled_call(config: dict, call):
    """Run *call* under tick samplers; returns ``(result, ticks)``.

    Serial runs sample this thread; pooled runs sample the workers,
    whose ticks land in per-worker files (this process mostly waits).
    """
    from probe import TickSampler

    if not config["pooled"]:
        sampler = TickSampler().start()
        try:
            result = call()
        finally:
            ticks = sampler.stop()
        return result, ticks
    result = call()
    ticks = [
        float(line) for path in sorted(Path(config["dir"]).glob("ticks-*.txt"))
        for line in path.read_text().split()
    ]
    return result, ticks


def _sweep(config: dict) -> dict:
    from probe import probe_s
    from repro.cli import main
    from repro.sweeps import SweepRunner

    if config["pooled"]:
        _sample_workers(config["dir"])
    landed = []
    run_points = SweepRunner.run_points

    def capture(self, *args, **kwargs):
        result = run_points(self, *args, **kwargs)
        landed.append((self, result))
        return result

    SweepRunner.run_points = capture

    def timed() -> tuple[int, float]:
        landed.clear()
        start = time.perf_counter()
        code = main(list(config["argv"]))
        wall = time.perf_counter() - start
        # The CLI leaves pools to atexit; close them outside the timing
        # so consecutive calls do not accumulate worker processes.
        for runner, _ in landed:
            runner.close()
        return code, wall

    (code, sweep_wall), ticks = _sampled_call(config, timed)
    _keep_cold_rows(config)
    executor = {}
    if landed:
        runner, result = landed[-1]
        executor = {
            "exec_elapsed": result.exec_elapsed,
            "task_elapsed": sum(r.elapsed for r in result.results if not r.cached),
            "workers": runner.workers,
        }
    # Reruns are short; take at least ``reruns`` of them and keep going
    # until ``rerun_budget_s`` is spent so their median is steady.
    # Consecutive reruns share the bracketing probe between them.
    reruns = []
    probes = [probe_s()] if config["reruns"] else []
    while config["reruns"] and len(reruns) < _MAX_RERUNS and (
        len(reruns) < config["reruns"]
        or sum(wall for _, wall in reruns) < config["rerun_budget_s"]
    ):
        reruns.append(timed())
        probes.append(probe_s())
    # A sample is a wall time and the host-speed probes taken during
    # (``tick``) or around (``bracket``) it; see probe.corrected.
    return {
        "exit": code,
        "sweep": {"wall": sweep_wall, "probes": ticks, "kind": "tick"},
        "rerun_exit": [c for c, _ in reruns],
        "reruns": [
            {"wall": wall, "probes": probes[i:i + 2], "kind": "bracket"}
            for i, (_, wall) in enumerate(reruns)
        ],
        "peak_rss_mb": _peak_rss_mb(),
        "executor": executor,
    }


def _counter_totals(delta: dict) -> dict[str, float]:
    """Counter deltas summed over their label series."""
    return {
        name: sum(entry["values"].values())
        for name, entry in delta.items()
        if entry["kind"] == "counter"
    }


def _trace(config: dict) -> dict:
    from probe import probe_s
    from repro.cli import main
    from repro.obs.metrics import REGISTRY, diff_snapshots
    from spans import Tracer, layer_table

    def traced_main(phase):
        with tracer.root(phase) as root:
            code = main(list(config["argv"]))
        return code, root[2] - root[1]

    tracer = Tracer()
    tracer.install()
    phases = {}
    for phase in ("sweep", "rerun"):
        before = REGISTRY.snapshot()
        if phase == "sweep":
            # The sampler's probes run inside whichever span is open.
            (code, wall), probes = _sampled_call(config, lambda: traced_main(phase))
            _keep_cold_rows(config)
            kind = "tick"
        else:
            first = probe_s()
            code, wall = traced_main(phase)
            probes, kind = [first, probe_s()], "bracket"
        phases[phase] = {
            "exit": code,
            "sample": {"wall": wall, "probes": probes, "kind": kind},
            "counters": _counter_totals(
                diff_snapshots(before, REGISTRY.snapshot())
            ),
        }
    tracer.uninstall()
    tracer.write_jsonl(Path(config["dir"]) / "spans.jsonl")
    engine_s = sum(
        end - start
        for name, start, end, _, point, phase in tracer.spans
        if name in _ENGINE_SPANS and point is not None and phase == "sweep"
    )
    return {
        "phases": phases,
        "tables": {phase: layer_table(tracer.spans, phase) for phase in phases},
        "calls": dict(tracer.calls),
        "failed_tasks": tracer.failed_tasks,
        "messages": tracer.messages,
        "engine_s": engine_s,
        "spans": len(tracer.spans),
    }


def main() -> int:
    mode, config = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        _setup(config)
        return 0
    result = {"sweep": _sweep, "trace": _trace}[mode](config)
    with open(Path(config["dir"]) / "result.json", "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
