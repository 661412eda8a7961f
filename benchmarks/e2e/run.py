#!/usr/bin/env python3
"""End-to-end benchmark: sweep workloads timed from CLI argv to row on disk.

Run every workload (untraced), one workload, or a traced per-layer run::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload vector-lossy --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --workload paper-fluid --seed 0 --trace

Each workload is one closed-loop client issuing one ``sweep`` command.
Every timed call happens in a fresh interpreter (``child.py``) that
calls ``repro.cli.main(argv)`` in-process; this parent only spawns,
checks and reports.  Untraced, a run measures

* ``setup_s`` — spawn → ``import repro.cli`` done and the workload's
  ``SweepRunner`` built with its executor started, over 7 fresh
  interpreters;
* ``sweep_s`` — one cold ``main(argv)`` (empty cache, ``--output
  rows.csv``) per fresh interpreter, repeated until ``--seconds`` of
  measuring have passed;
* ``rerun_s`` — identical calls against the warm cache;
* ``peak_rss_mb`` — largest ``ru_maxrss`` of a sweep interpreter or its
  pool workers;
* ``fail_ratio`` and, for ``paper-fluid``, ``signature_mape_pct``.

Times are medians at reference host speed: each sample's wall time is
divided by the slowdown that probes on its own thread measured (see
``probe.py``).  Rows are checked
against golden values for seeds 0 and 1 (any seed: no error rows,
finite positive times, identical across repeats).  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` (untraced) or ``per_layer`` (traced) metrics of
``BENCHMARK.json``.  Everything the run writes lives under
``.bench_work/e2e/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import golden
from probe import corrected, host_factor
from workloads import WORKLOADS, Workload, get_workload, sweep_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / "e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 7
#: Set-up (mostly imports) slows less than the probe on a slow host:
#: its wall time followed the probe's slowdown with exponent 0.62-0.73
#: per workload (log-log fit, ~500 samples on the reference host), and
#: 0.75 gave the steadiest medians over twenty seeds per workload.
#: Sweeps and reruns follow it fully (exponent 1).
SETUP_SENSITIVITY = 0.75
#: Warm-cache ``main(argv)`` calls timed for ``rerun_s``: at least
#: this many, more while they total under ``RERUN_BUDGET_S``.
RERUNS = 7
RERUN_BUDGET_S = 1.0
#: One workload run never outlives this many seconds.
RUN_BUDGET_S = 170.0
#: Largest share of the traced sweep that no layer span may cover.
MAX_OTHER_SHARE = 0.10

UNITS = {
    "setup_s": "s", "sweep_s": "s", "rerun_s": "s", "peak_rss_mb": "MiB",
    "fail_ratio": "fraction", "signature_mape_pct": "%",
}


class BenchError(RuntimeError):
    """A run could not produce a result (child failed, timed out, ...)."""


# ----------------------------------------------------------------------
# Child interpreters
# ----------------------------------------------------------------------


def _child_env(workdir: Path) -> dict[str, str]:
    """The children's environment: ``src`` importable, no REPRO_ knobs.

    Inherited ``REPRO_*`` variables (engine default, stats columns,
    sweep workers) would change what the CLI does, so they are dropped;
    the run ledger goes into the work directory.  OpenBLAS is held to
    one thread: the program only runs tiny regression fits through it,
    but its import-time thread pool made every fresh interpreter's
    start depend on the other vCPU's speed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["REPRO_LEDGER"] = str(workdir / "ledger.jsonl")
    # The ledger's git-sha probe must not search above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def _popen(mode: str, config: dict, workdir: Path, stdout) -> subprocess.Popen:
    with open(workdir / "child.log", "a") as log:
        return subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(config)],
            cwd=ROOT, env=_child_env(workdir), stdin=subprocess.DEVNULL,
            stdout=log if stdout is None else stdout, stderr=log, text=True,
        )


def _wait(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for *proc*; kill it (and still reap it) past the deadline."""
    try:
        return proc.wait(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("child interpreter timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_child(mode: str, config: dict, workdir: Path, deadline: float) -> dict:
    """Run a ``sweep``/``trace`` child to completion; return its result."""
    code = _wait(_popen(mode, config, workdir, None), deadline)
    if code != 0:
        raise BenchError(f"{mode} child exited {code}; see {workdir / 'child.log'}")
    return json.loads((Path(config["dir"]) / "result.json").read_text())


def _setup_once(workload: Workload, workdir: Path, deadline: float) -> dict:
    """The sample (wall time and the child's ticks) of spawn → runner ready."""
    config = {
        "executor": workload.executor, "workers": workload.workers,
        "cache_dir": str(workdir / "setup-cache"),
    }
    start = time.perf_counter()
    proc = _popen("setup", config, workdir, subprocess.PIPE)
    # readline() has no timeout of its own; the timer bounds it.
    killer = threading.Timer(_remaining(deadline), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        killer.cancel()
        code = _wait(proc, deadline)
        proc.stdout.close()
    word, _, ticks = line.partition(" ")
    if word != "ready" or code != 0:
        raise BenchError(f"setup child failed; see {workdir / 'child.log'}")
    return {"wall": elapsed, "probes": json.loads(ticks), "kind": "tick"}


def sweep_config(workload, seed, workdir, name, *, serial=False, reruns=0) -> dict:
    """Config of one ``sweep``/``trace`` child working in *workdir/name*.

    The child writes ``rows.csv`` (and ``rows.cold.csv``), its
    ``result.json`` and, when traced, ``spans.jsonl`` there.
    """
    rundir = workdir / name
    rundir.mkdir(parents=True)
    return {
        "argv": sweep_argv(
            workload, seed, workdir, cache_dir=rundir / "cache",
            output=rundir / "rows.csv", serial=serial,
        ),
        "dir": str(rundir),
        "pooled": workload.executor != "serial" and not serial,
        "reruns": reruns,
        "rerun_budget_s": RERUN_BUDGET_S,
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


class RowCheck:
    """Accumulates row failures across every ``main(argv)`` of a run.

    The reference is the golden file for seeds that have one, else the
    first sweep's own values (repeats must reproduce them exactly).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.golden = golden.load(workload.name, seed)
        self.reference = self.golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rows(self, path: Path) -> None:
        rows = golden.read_rows(path) if path.exists() else []
        if self.reference is None:
            self.reference = [
                float(r["mean_time"]) if r.get("mean_time") else float("nan")
                for r in rows
            ]
        failed = golden.row_failures(rows, self.workload.points, self.reference)
        self.attempted += self.workload.points
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} bad rows in {path}")

    def exit_codes(self, codes) -> None:
        bad = [c for c in codes if c != 0]
        if bad:
            self.problems.append(f"main(argv) exit codes {bad}")

    def describe(self) -> str:
        if self.golden is None:
            return (
                f"golden check skipped (no golden rows for seed {self.seed}); "
                "rows checked for errors and repeat-to-repeat equality"
            )
        return f"{self.attempted} rows checked against golden seed {self.seed}"

    @property
    def correct(self) -> bool:
        return not self.problems


def signature_mape(rows_path: Path, seeds: list[int]) -> float:
    """Mean over clusters of the signature fit's in-sample MAPE (%).

    Recomputed untimed from the rows file through the public API with
    the same ping-pong context the CLI's ``--models`` hook uses.
    """
    from repro.clusters.profiles import get_cluster
    from repro.measure.pingpong import hockney_from_pingpong, measure_pingpong
    from repro.models import compare_models, samples_from_rows

    rows = golden.read_rows(rows_path)
    mapes = []
    for name in sorted({row["cluster"] for row in rows}):
        profile = get_cluster(name)
        pingpong = measure_pingpong(profile, reps=3, seed=min(seeds))
        comparison = compare_models(
            samples_from_rows(rows, cluster=name), ["signature"],
            hockney=hockney_from_pingpong(pingpong).params, cluster=profile,
        )
        mapes.append(comparison.report("signature").score.mape)
    return sum(mapes) / len(mapes)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def fresh_workdir(workload: Workload, seed: int, traced: bool) -> Path:
    """An empty work directory for one run of *workload*."""
    workdir = WORK / workload.name / f"seed{seed}{'-trace' if traced else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def summarize(samples: list[dict], sensitivity: float = 1.0) -> dict:
    """Median of *samples* at reference host speed (see ``probe.py``)."""
    values = [corrected(s, sensitivity) for s in samples]
    return {
        "median": statistics.median(values),
        "values": values,
        "raw_median": statistics.median(s["wall"] for s in samples),
        "raw": samples,
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """One untraced run: setup samples, cold sweeps, warm reruns."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = fresh_workdir(workload, seed, traced=False)
    setups = [_setup_once(workload, workdir, deadline) for _ in range(SETUP_SAMPLES)]
    check = RowCheck(workload, seed)
    sweeps = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < seconds:
        config = sweep_config(
            workload, seed, workdir, f"sweep{len(sweeps)}",
            reruns=0 if sweeps else RERUNS,
        )
        result = run_child("sweep", config, workdir, deadline)
        sweeps.append(result)
        check.rows(Path(config["dir"]) / "rows.cold.csv")
        check.exit_codes([result["exit"]] + result["rerun_exit"])
        if result["rerun_exit"]:
            check.rows(Path(config["dir"]) / "rows.csv")
    samples = {
        "setup_s": summarize(setups, SETUP_SENSITIVITY),
        "sweep_s": summarize([s["sweep"] for s in sweeps]),
        "rerun_s": summarize(sweeps[0]["reruns"]),
    }
    values = {name: summary["median"] for name, summary in samples.items()}
    values["peak_rss_mb"] = max(s["peak_rss_mb"] for s in sweeps)
    values["fail_ratio"] = check.failed / check.attempted
    if workload.signature:
        values["signature_mape_pct"] = signature_mape(
            workdir / "sweep0" / "rows.cold.csv", workload.seeds(seed)
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "samples": samples,
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "checks": check.problems + [check.describe()],
    }


def layer_metrics(
    traced: dict, factors: dict, dispatch_s: float, untraced_s: float
) -> dict:
    """Per-layer metrics (name → (value, unit)) of one traced run.

    Seconds are self times divided by their phase's host factor (see
    ``probe.py``); *dispatch_s* and *untraced_s* arrive at reference
    speed.
    """
    phases = traced["phases"]
    counters = phases["sweep"]["counters"]
    rerun_counters = phases["rerun"]["counters"]
    wall = phases["sweep"]["sample"]["wall"] / factors["sweep"]

    def self_s(layer, phase="sweep"):
        row = traced["tables"][phase].get(layer, {})
        return row.get("self_s", 0.0) / factors[phase]

    def calls(layer):
        return traced["tables"]["sweep"].get(layer, {}).get("calls", 0)

    solves = calls("simnet.fairness.solve")
    reuses = counters.get("sim.solve_reuses", 0.0)
    hits = rerun_counters.get("cache.hits", 0.0)
    lookups = hits + rerun_counters.get("cache.misses", 0.0)
    messages = traced["messages"]
    engine_s = traced["engine_s"] / factors["sweep"]
    return {
        "simnet.fairness.solve_s": (self_s("simnet.fairness.solve"), "s"),
        "simnet.fairness.solves": (solves, "count"),
        "simnet.fairness.reuse_ratio": (
            reuses / (solves + reuses) if solves + reuses else 0.0, "fraction"
        ),
        "simnet.vector.self_s": (self_s("simnet.vector"), "s"),
        "simmpi.lowering.lower_s": (self_s("simmpi.lowering"), "s"),
        "simmpi.lowering.calls": (calls("simmpi.lowering"), "count"),
        "simmpi.runtime.self_s": (self_s("simmpi.runtime"), "s"),
        "simnet.engine.self_s": (
            self_s("simmpi.runtime") + self_s("simnet.vector"), "s"
        ),
        "simnet.loss.hazard_s": (self_s("simnet.loss.hazard"), "s"),
        "simnet.loss.hazard_calls": (calls("simnet.loss.hazard"), "count"),
        "simnet.loss.losses": (counters.get("sim.losses", 0.0), "count"),
        "simnet.loss.stalls": (counters.get("sim.stalls", 0.0), "count"),
        "simnet.engine.events": (counters.get("sim.events", 0.0), "count"),
        "simnet.engine.epochs": (counters.get("sim.epochs", 0.0), "count"),
        "simnet.msgs": (messages, "count"),
        "simnet.host_us_per_msg": (
            engine_s / messages * 1e6 if messages else 0.0, "us"
        ),
        "clusters.topology_s": (self_s("clusters.topology"), "s"),
        "clusters.calls": (calls("clusters.topology"), "count"),
        "sweeps.cache.fingerprint_s": (self_s("sweeps.cache.fingerprint"), "s"),
        "sweeps.cache.key_s": (self_s("sweeps.cache.key"), "s"),
        "sweeps.cache.put_s": (self_s("sweeps.cache.put"), "s"),
        "sweeps.cache.misses": (counters.get("cache.misses", 0.0), "count"),
        "sweeps.cache.bytes_written": (counters.get("cache.bytes_written", 0.0), "B"),
        "sweeps.cache.get_s": (self_s("sweeps.cache.get", "rerun"), "s"),
        "sweeps.cache.hits": (hits, "count"),
        "sweeps.cache.hit_ratio": (hits / lookups if lookups else 0.0, "fraction"),
        "sweeps.spec.points_s": (self_s("sweeps.spec.points"), "s"),
        "exec.tasks": (calls("exec.task"), "count"),
        "exec.task_s": (self_s("exec.task"), "s"),
        "exec.failed": (traced["failed_tasks"], "count"),
        "exec.dispatch_s": (dispatch_s, "s"),
        "exec.sinks.write_s": (self_s("exec.sinks.write"), "s"),
        "exec.sinks.rows": (calls("exec.sinks.write"), "count"),
        "measure.self_s": (self_s("measure"), "s"),
        "traffic.matrix_s": (self_s("traffic.matrix"), "s"),
        "placement.apply_s": (self_s("placement.apply"), "s"),
        "obs.snapshot_s": (self_s("obs.snapshot"), "s"),
        "obs.calls": (calls("obs.snapshot"), "count"),
        "models.compare_s": (self_s("models.compare"), "s"),
        "trace.sweep_s": (wall, "s"),
        "trace.other_s": (self_s("other"), "s"),
        "trace.overhead": (wall / untraced_s - 1.0, "fraction"),
    }


def run_traced(workload: Workload, seed: int) -> dict:
    """One traced run: untraced baselines, then the traced serial sweep."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = fresh_workdir(workload, seed, traced=True)
    check = RowCheck(workload, seed)
    config = sweep_config(workload, seed, workdir, "untraced")
    untraced = run_child("sweep", config, workdir, deadline)
    check.rows(Path(config["dir"]) / "rows.csv")
    check.exit_codes([untraced["exit"]])
    executor = untraced["executor"]
    if not executor:
        raise BenchError(f"the untraced sweep ran no points; see {workdir / 'child.log'}")
    dispatch_s = corrected({
        **untraced["sweep"],
        "wall": executor["exec_elapsed"] - executor["task_elapsed"] / executor["workers"],
    })
    baseline_s = corrected(untraced["sweep"])
    if workload.executor != "serial":
        # The overhead compares like with like: traced runs are serial.
        config = sweep_config(workload, seed, workdir, "untraced-serial", serial=True)
        serial = run_child("sweep", config, workdir, deadline)
        check.rows(Path(config["dir"]) / "rows.csv")
        check.exit_codes([serial["exit"]])
        baseline_s = corrected(serial["sweep"])
    config = sweep_config(workload, seed, workdir, "traced", serial=True)
    traced = run_child("trace", config, workdir, deadline)
    factors = {
        phase: host_factor(info["sample"]["probes"], info["sample"]["kind"])
        if info["sample"]["probes"] else 1.0
        for phase, info in traced["phases"].items()
    }
    rundir = Path(config["dir"])
    check.rows(rundir / "rows.cold.csv")
    check.rows(rundir / "rows.csv")
    check.exit_codes([p["exit"] for p in traced["phases"].values()])
    idle = sorted(site for site in workload.busy if not traced["calls"].get(site))
    if idle:
        check.problems.append("busy wrappers recorded zero calls: " + ", ".join(idle))
    metrics = layer_metrics(traced, factors, dispatch_s, baseline_s)
    other_share = metrics["trace.other_s"][0] / metrics["trace.sweep_s"][0]
    if other_share > MAX_OTHER_SHARE:
        check.problems.append(
            f"trace.other_s is {other_share:.1%} of the traced sweep "
            f"(limit {MAX_OTHER_SHARE:.0%}): a layer lost its span"
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tables": traced["tables"],
        "walls": {p: info["sample"]["wall"] for p, info in traced["phases"].items()},
        "spans_path": str(rundir / "spans.jsonl"),
        "spans": traced["spans"],
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "checks": check.problems + [check.describe()],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def print_untraced(result: dict) -> None:
    samples = result["samples"]
    print(f"== {result['workload']} · seed {result['seed']}")
    for name, cell in result["metrics"].items():
        detail = ""
        if name in samples:
            summary = samples[name]
            values = summary["values"]
            detail = (
                f"median of {len(values)} ({min(values):.4g} .. "
                f"{max(values):.4g}); raw wall median {summary['raw_median']:.4g}"
            )
        elif name == "fail_ratio":
            detail = f"{result['failed']} of {result['attempted']} rows failed"
        print(f"  {name:<20} {_fmt(cell['value']):>12} {cell['unit']:<9} {detail}")
    for line in result["checks"]:
        print(f"  check: {line}")


def print_traced(result: dict) -> None:
    print(f"== {result['workload']} · seed {result['seed']} · traced (serial executor)")
    for phase, table in result["tables"].items():
        wall = result["walls"][phase]
        print(f"  phase {phase}: traced wall {wall:.4f} s (raw, not host-corrected)")
        print(f"    {'layer':<28} {'calls':>8} {'self s':>10} {'share':>7}")
        total = 0.0
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            total += row["self_s"]
            print(
                f"    {layer:<28} {row['calls']:>8} {row['self_s']:>10.4f} "
                f"{row['self_s'] / wall:>7.1%}"
            )
        print(f"    {'total':<28} {'':>8} {total:>10.4f} {total / wall:>7.1%}")
    print(f"  per-layer metrics ({result['spans']} spans in {result['spans_path']}):")
    for name, cell in result["metrics"].items():
        print(f"    {name:<28} {_fmt(cell['value']):>14} {cell['unit']}")
    for line in result["checks"]:
        print(f"  check: {line}")


def write_record(result: dict, bounds: dict) -> Path:
    """The run's end-to-end metrics as a ``repro-bench/1`` record."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import record

    metrics = {
        name: record.make_metric(
            cell["value"], direction="lower", unit=cell["unit"],
            tolerance=bounds.get(name, 0.0),
        )
        for name, cell in result["metrics"].items()
    }
    bench = f"e2e.{result['workload']}"
    document = record.make_record(bench, metrics, {"seed": result["seed"]})
    path = WORK / "records" / f"BENCH_{bench}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w.name for w in WORKLOADS], default=None,
        help="run one workload (default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measuring time per workload (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="make the traced per-layer run instead",
    )
    parser.add_argument("--out", default=None, help="result JSON path")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"cannot find the program's sources at {SRC}", file=sys.stderr)
        return 2
    # A terminated run unwinds through _wait, which kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The parent imports ``repro`` only for untimed checks and records.
    sys.path.insert(0, str(SRC))
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    selected = [get_workload(args.workload)] if args.workload else list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    try:
        for workload in selected:
            if args.trace:
                result = run_traced(workload, args.seed)
                print_traced(result)
            else:
                result = run_untraced(workload, args.seed, args.seconds)
                print_untraced(result)
                print(f"  record: {write_record(result, bounds)}")
            results[workload.name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else WORK / "results" / (
        f"{args.workload or 'all'}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "trace": bool(args.trace), "workloads": results}, indent=1
    ) + "\n")
    print(f"result: {out}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if len(results) == 1:
        (result,) = results.values()
        metrics = {n: result["metrics"][n] for n in names}
    else:
        metrics = {
            f"{w}.{n}": r["metrics"][n] for w, r in results.items() for n in names
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
