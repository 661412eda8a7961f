"""Command-line interface.

Examples
--------
List experiments and every registered cluster/topology/algorithm/backend::

    python -m repro.cli list
    python -m repro.cli list clusters

Run a declarative scenario file (sweep its workload grid, then fit the
contention signature)::

    python -m repro.cli run --scenario examples/scenarios/edge_core_gige_stress.toml

Run one figure at smoke scale and save its CSV::

    python -m repro.cli run fig06 --scale smoke --csv out/fig06.csv

Characterise a cluster (fit its contention signature)::

    python -m repro.cli characterize gigabit-ethernet --nprocs 16

Predict an All-to-All time from paper-reported signatures::

    python -m repro.cli predict gigabit-ethernet 40 1048576

Run a (clusters x nprocs x sizes x algorithms x seeds) grid on a worker
pool with result caching, streaming rows as points complete::

    python -m repro.cli sweep --clusters gigabit-ethernet,myrinet \
        --nprocs 4,8 --sizes 2kB,32kB,256kB --algorithms direct,bruck \
        --workers 4 --executor process --progress \
        --cache-dir ~/.cache/repro-alltoall/sweeps \
        --csv out/sweep.csv --output out/sweep.jsonl

Trace one instrumented run and export it for Perfetto /
``chrome://tracing`` (``--format jsonl`` for the archival form)::

    python -m repro.cli trace gigabit-ethernet --nprocs 8 --size 32kB \
        --format chrome --out out/trace.json

Track the benchmark trajectory: ingest fresh ``BENCH_*.json`` artifacts
into the run ledger, render per-metric history, and gate a build on the
committed baselines (nonzero exit on regression)::

    python -m repro.cli bench ingest benchmarks/output/
    python -m repro.cli bench report --metric lossless_speedup_n64
    python -m repro.cli bench compare --baseline benchmarks/baselines/ \
        benchmarks/output/

Every ``run``/``sweep``/``fit``/``characterize``/``compare-models``
invocation appends a fingerprinted entry (git sha, python/numpy, cpu
count, wall time, metrics snapshot) to the ledger —
``.repro/ledger.jsonl`` by default, ``REPRO_LEDGER`` overrides the
path or disables it (``REPRO_LEDGER=off``).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import api, __version__
from .obs.export import EXPORT_FORMATS
from .exceptions import (
    ExecutionError,
    FittingError,
    MeasurementError,
    ScenarioError,
    SimulationError,
    UnknownNameError,
)
from .experiments.registry import EXPERIMENTS, run_experiment
from .units import format_time, parse_size

#: Errors a failed sweep point re-raises without ``--keep-going``; a
#: point whose worker died arrives as :class:`ExecutionError`.
_SWEEP_ERRORS = (MeasurementError, ScenarioError, SimulationError, ExecutionError)


def _scenario_key(scenario) -> str | None:
    """Short content hash of a scenario's cache payload (ledger field)."""
    try:
        import hashlib
        import json as _json

        payload = scenario.spec.cache_payload()
        canonical = _json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
    except Exception:
        return None


class _LedgerScope:
    """Record one CLI invocation in the run ledger on exit.

    Captures wall time and the metrics-registry delta of everything the
    command did; extra fields accumulate via :meth:`note`.  Recording is
    best-effort by construction (:mod:`repro.obs.ledger` never raises),
    so a read-only filesystem cannot fail a command.
    """

    def __init__(self, kind: str, **fields) -> None:
        import time as _time

        from .obs.metrics import REGISTRY

        self.kind = kind
        self.fields = {k: v for k, v in fields.items() if v is not None}
        self._start = _time.perf_counter()
        self._before = REGISTRY.snapshot()

    def note(self, **fields) -> None:
        self.fields.update({k: v for k, v in fields.items() if v is not None})

    def finish(self, exit_code: int = 0) -> None:
        import time as _time

        from .obs.ledger import record_run
        from .obs.metrics import REGISTRY, diff_snapshots

        record_run(
            self.kind,
            wall_s=round(_time.perf_counter() - self._start, 4),
            exit_code=exit_code,
            metrics=diff_snapshots(self._before, REGISTRY.snapshot()) or None,
            **self.fields,
        )


#: The in-flight invocation's ledger scope (set by :func:`main`).
_ACTIVE_LEDGER: "_LedgerScope | None" = None


def _ledger_note(**fields) -> None:
    """Attach fields (scenario key, point counts) to the pending entry."""
    if _ACTIVE_LEDGER is not None:
        _ACTIVE_LEDGER.note(**fields)


def _doc_summary(obj) -> str:
    """First docstring line, or empty (user plugins may be undocumented)."""
    lines = (obj.__doc__ or "").splitlines()
    return lines[0].strip() if lines else ""


#: Sections of ``repro-alltoall list`` (name -> row enumerator).
#: Enumerators must emit sorted rows (registry ``names()`` already are;
#: plain dicts like EXPERIMENTS are sorted here) so the listing is
#: byte-stable across runs regardless of registration order.
_LIST_SECTIONS = {
    "experiments": lambda: [
        (exp_id, f"{spec.paper_ref:<14} {spec.description}")
        for exp_id, spec in sorted(EXPERIMENTS.items())
    ],
    "clusters": lambda: [
        (name, api.CLUSTERS.get(name)().description)
        for name in api.list_clusters()
    ],
    "topologies": lambda: [
        (name, _doc_summary(api.TOPOLOGIES.get(name)))
        for name in api.list_topologies()
    ],
    "algorithms": lambda: [
        (name, _doc_summary(api.ALGORITHMS.get(name)))
        for name in api.list_algorithms()
    ],
    "patterns": lambda: [
        (name, _doc_summary(api.PATTERNS.get(name)))
        for name in api.list_patterns()
    ],
    "backends": lambda: [(name, "") for name in api.list_backends()],
    "executors": lambda: [
        (name, _doc_summary(api.EXECUTORS.get(name)))
        for name in api.list_executors()
    ],
    "models": lambda: [
        (name, _doc_summary(api.MODELS.get(name)))
        for name in api.list_models()
    ],
    "engines": lambda: [
        (name, _doc_summary(api.ENGINES.get(name)))
        for name in api.list_engines()
    ],
    "placements": lambda: [
        (name, _doc_summary(api.PLACEMENTS.get(name)))
        for name in api.list_placements()
    ],
    "placement-optimizers": lambda: [
        (name, _doc_summary(api.PLACEMENT_OPTIMIZERS.get(name)))
        for name in api.list_placement_optimizers()
    ],
    "trace-formats": lambda: [
        (name, _doc_summary(fn))
        for name, fn in sorted(EXPORT_FORMATS.items())
    ],
}


def _parse_spec_arg(text: str, kind: str = "pattern"):
    """``name`` or ``name:k=v,k2=v2`` → a ``{"name", "params"}`` dict.

    The shared grammar of ``--pattern`` and ``--placement`` (and the
    ``--optimizer`` of ``optimize-placement``).  Values parse as int,
    then float, then the booleans, else string —
    ``hotspot:targets=2,factor=8`` or ``round-robin:groups=4``.
    """
    name, _, param_part = text.partition(":")
    params = {}
    for item in param_part.split(","):
        if not item.strip():
            continue
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(
                f"bad {kind} parameter {item!r} (expected key=value)"
            )
        raw = raw.strip()
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key.strip()] = value
    return {"name": name.strip(), "params": params}


def _parse_pattern_arg(text: str):
    """``--pattern`` value → a pattern dict for SweepSpec."""
    return _parse_spec_arg(text, "pattern")


def _parse_placement_arg(text: str):
    """``--placement`` value → a placement dict for the spec layer."""
    return _parse_spec_arg(text, "placement")


def _cmd_list(args: argparse.Namespace) -> int:
    # Sections print alphabetically, not in dict-insertion order, so
    # the full listing is deterministic and diffs cleanly as new
    # sections are registered.
    wanted = (
        sorted(_LIST_SECTIONS) if args.what in (None, "all") else [args.what]
    )
    for position, section in enumerate(wanted):
        rows = _LIST_SECTIONS[section]()
        if len(wanted) > 1:
            if position:
                print()
            print(f"{section}:")
        width = max(len(name) for name, _ in rows)
        for name, description in rows:
            print(f"  {name:<{width}}  {description}".rstrip())
    return 0


def _check_engine(name: "str | None") -> bool:
    """Validate an ``--engine`` value *before* any simulation starts.

    Downstream layers reject unknown engines too, but from mid-pipeline
    (a :class:`ValueError` out of the sweep spec, a
    :class:`MeasurementError` out of the measurement loop); checking here
    keeps the failure a one-line stderr message with exit code 2, like
    every other bad-name CLI error.
    """
    if name is not None and name not in api.ENGINES:
        known = ", ".join(api.list_engines())
        print(f"unknown engine {name!r}; known: {known}", file=sys.stderr)
        return False
    return True


def _check_placements(values) -> bool:
    """Validate ``--placement`` strategy names before anything runs.

    Same rationale as :func:`_check_engine`: parameter errors still
    surface downstream, but an unknown *name* should be a one-line
    stderr message with exit code 2, not a mid-pipeline failure.
    """
    for text in values or ():
        name = text.partition(":")[0].strip()
        if name not in api.PLACEMENTS:
            known = ", ".join(api.list_placements())
            print(
                f"unknown placement {name!r}; known: {known}",
                file=sys.stderr,
            )
            return False
    return True


def _with_engine(scenario: "api.Scenario", engine: str) -> "api.Scenario":
    """The scenario with its engine field overridden from the CLI."""
    import dataclasses

    return api.Scenario(dataclasses.replace(scenario.spec, engine=engine))


def _with_placement(scenario: "api.Scenario", text: str) -> "api.Scenario":
    """The scenario with its placement overridden from ``--placement``.

    Raises :class:`ValueError` (which :class:`ScenarioError` subclasses)
    on bad grammar or strategy parameters; callers turn that into
    exit code 2.
    """
    import dataclasses

    from .placement import as_placement

    spec = as_placement(_parse_placement_arg(text))
    return api.Scenario(dataclasses.replace(scenario.spec, placement=spec))


def _resolve_cluster_arg(name: str) -> tuple["api.Scenario", bool]:
    """A cluster name (registry, alias-tolerant) or a scenario file path.

    Only ``.toml``/``.json`` arguments are treated as files, so a
    stray local file named after a cluster can never shadow the
    registry.  Returns ``(scenario, from_file)``; the caller turns
    lookup errors (:class:`UnknownNameError` / :class:`ScenarioError`)
    into exit codes.
    """
    if name.endswith((".toml", ".json")):
        return api.Scenario.from_file(name), True
    return api.Scenario.from_name(name), False


def _load_scenario(path: str) -> "api.Scenario | None":
    """Load a scenario file, printing a clean error on failure."""
    try:
        return api.Scenario.from_file(path)
    except (OSError, ScenarioError, UnknownNameError) as exc:
        print(exc, file=sys.stderr)
        return None


def _print_sweep_summary(result, *, csv=None, jsonl=None, streamed=()) -> None:
    """The shared simulated/cached/elapsed block of sweep-style output.

    *streamed* paths were written incrementally during the run by
    streaming sinks; *csv*/*jsonl* are saved here, post-hoc.
    """
    print(f"simulated : {result.n_simulated}")
    print(f"cached    : {result.n_cached}")
    if result.n_points:
        print(
            f"hit rate  : {result.hit_rate:.0%} "
            f"({result.n_cached}/{result.n_points} points from cache)"
        )
    if result.n_failed:
        print(f"failed    : {result.n_failed}")
    print(f"elapsed   : {result.elapsed:.2f} s")
    for label, path in streamed:
        print(f"{label:<10}: {path}")
    if csv:
        print(f"csv       : {result.save_csv(csv)}")
    if jsonl:
        print(f"jsonl     : {result.save_jsonl(jsonl)}")


def _sweep_sinks(args) -> tuple[tuple, list[tuple[str, str]]]:
    """Streaming sinks for ``--csv``/``--jsonl``/``--output`` flags.

    All three stream: rows are appended and flushed as each point
    lands, so an interrupted sweep keeps every completed row.
    """
    from .exec.sinks import CsvSink, JsonlSink, sink_for

    sinks, streamed = [], []
    if args.csv:
        sinks.append(CsvSink(args.csv))
        streamed.append(("csv", args.csv))
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
        streamed.append(("jsonl", args.jsonl))
    for path in args.output or ():
        sinks.append(sink_for(path))
        streamed.append(("stream", path))
    return tuple(sinks), streamed


def _progress_printer():
    """Per-point progress callback writing one line to stderr."""

    def _report(done: int, total: int, result) -> None:
        point = result.point
        if not result.ok:
            status = f"error: {result.error}"
        elif result.cached:
            status = "cached"
        else:
            status = format_time(result.sample.mean_time)
        print(
            f"[{done}/{total}] {point.cluster} {point.algorithm} "
            f"n={point.n_processes} m={point.msg_size} {status}",
            file=sys.stderr,
            flush=True,
        )

    return _report


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario and args.experiment:
        print(
            "run takes an experiment id or --scenario FILE, not both",
            file=sys.stderr,
        )
        return 2
    if not _check_engine(args.engine):
        return 2
    if args.placement and not _check_placements([args.placement]):
        return 2
    if args.scenario:
        return _run_scenario(args)
    if args.placement:
        # Experiments fix their own rank mappings (table_placement
        # sweeps them internally); only scenario runs take the override.
        print("--placement needs --scenario FILE", file=sys.stderr)
        return 2
    if not args.experiment:
        print("run needs an experiment id or --scenario FILE", file=sys.stderr)
        return 2
    if args.engine:
        # Experiment drivers thread no engine parameter; setting the
        # process-wide default (REPRO_SIM_ENGINE) reaches every
        # measurement they run.
        import os

        from .engines import ENGINE_ENV

        os.environ[ENGINE_ENV] = api.ENGINES.canonical(args.engine)
    _ledger_note(experiment=args.experiment, scale=args.scale)
    result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
    print(result.render())
    if args.csv:
        result.save_csv(args.csv)
        print(f"\nsaved: {args.csv}")
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    """Sweep a scenario file's workload grid, then fit its signature."""
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 2
    if args.engine:
        scenario = _with_engine(scenario, args.engine)
    if args.placement:
        try:
            scenario = _with_placement(scenario, args.placement)
        except ValueError as exc:  # covers ScenarioError
            print(f"invalid --placement: {exc}", file=sys.stderr)
            return 2
    print(f"scenario  : {scenario.describe()}")
    _ledger_note(scenario=args.scenario, scenario_key=_scenario_key(scenario))
    try:
        result = scenario.sweep()
    except _SWEEP_ERRORS as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    print(f"points    : {result.n_points}")
    _print_sweep_summary(result, csv=args.csv)
    try:
        ch = scenario.fit_signature()
    except (FittingError, MeasurementError, SimulationError) as exc:
        print(f"cannot fit signature: {exc}", file=sys.stderr)
        return 1
    print(f"hockney   : {ch.hockney_fit.params}")
    print(f"signature : {ch.signature}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    if not _check_engine(args.engine):
        return 2
    try:
        scenario, from_file = _resolve_cluster_arg(args.cluster)
    except (OSError, UnknownNameError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    cluster = scenario.profile
    workload = scenario.spec.workload
    _ledger_note(cluster=cluster.name, scenario_key=_scenario_key(scenario))
    kwargs = {}
    if args.engine:
        kwargs["engine"] = args.engine
    if not from_file:
        # Plain cluster names keep the historical CLI defaults (n'=16,
        # the pipeline's 8-size ladder); scenario files bring their own
        # workload.
        from .measure.pipeline import DEFAULT_SAMPLE_SIZES

        kwargs["sample_sizes"] = DEFAULT_SAMPLE_SIZES
    try:
        ch = scenario.fit_signature(
            sample_nprocs=(
                args.nprocs
                or (workload.fit_nprocs if from_file else 16)
            ),
            reps=args.reps if args.reps is not None
            else (workload.reps if from_file else 2),
            seed=args.seed if args.seed is not None
            else (workload.seeds[0] if from_file else 0),
            **kwargs,
        )
    except (FittingError, MeasurementError, SimulationError) as exc:
        print(f"cannot fit signature: {exc}", file=sys.stderr)
        return 1
    hockney = ch.hockney_fit.params
    sig = ch.signature
    print(f"cluster     : {cluster.name}")
    print(f"description : {cluster.description}")
    print(f"hockney     : {hockney}")
    print(f"signature   : {sig}")
    if cluster.paper:
        print(
            f"paper       : gamma={cluster.paper.gamma} "
            f"delta={cluster.paper.delta * 1e3:.2f} ms "
            f"M={cluster.paper.threshold} B"
        )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    try:
        scenario, _ = _resolve_cluster_arg(args.cluster)
    except (OSError, UnknownNameError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    size = parse_size(args.msg_size)
    try:
        signature = scenario.paper_signature(size)
    except ScenarioError:
        print("no paper signature recorded for this cluster", file=sys.stderr)
        return 1
    time = signature.predict(args.nprocs, size)
    bound = signature.lower_bound(args.nprocs, size)
    print(f"predicted MPI_Alltoall({args.nprocs} procs, {size} B):")
    print(f"  prediction : {format_time(float(time))}")
    print(f"  lower bound: {format_time(float(bound))}")
    print(f"  signature  : {signature}")
    return 0


def _cmd_optimize_placement(args: argparse.Namespace) -> int:
    try:
        scenario, _ = _resolve_cluster_arg(args.cluster)
    except (OSError, UnknownNameError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    optimizer = _parse_spec_arg(args.optimizer, "optimizer")
    if optimizer["name"] not in api.PLACEMENT_OPTIMIZERS:
        known = ", ".join(api.list_placement_optimizers())
        print(
            f"unknown placement optimizer {optimizer['name']!r}; "
            f"known: {known}",
            file=sys.stderr,
        )
        return 2
    pattern = None
    if args.pattern:
        if args.pattern.partition(":")[0].strip() not in api.PATTERNS:
            known = ", ".join(api.list_patterns())
            print(
                f"unknown pattern {args.pattern.partition(':')[0]!r}; "
                f"known: {known}",
                file=sys.stderr,
            )
            return 2
        pattern = _parse_pattern_arg(args.pattern)
    _ledger_note(
        cluster=scenario.name, optimizer=optimizer["name"],
        scenario_key=_scenario_key(scenario),
    )
    try:
        result = scenario.optimize_placement(
            args.nprocs,
            parse_size(args.size) if args.size is not None else None,
            optimizer=optimizer["name"],
            seed=args.seed,
            params=optimizer["params"] or None,
            pattern=pattern,
        )
    except TypeError as exc:
        # e.g. greedy:iterations=10 — a parameter the optimizer's
        # signature does not accept.
        print(f"invalid optimizer parameters: {exc}", file=sys.stderr)
        return 2
    except (MeasurementError, ScenarioError, SimulationError, ValueError) as exc:
        print(f"cannot optimize placement: {exc}", file=sys.stderr)
        return 1
    workload = scenario.spec.workload
    n = args.nprocs if args.nprocs is not None else workload.fit_nprocs
    print(f"cluster    : {scenario.name}")
    print(f"optimizer  : {result.optimizer} (seed {result.seed}, "
          f"{result.evaluations} evaluations)")
    print(f"identity   : {format_time(result.identity_objective)} "
          "predicted contention (MED bottleneck)")
    print(f"optimized  : {format_time(result.objective)}")
    print(f"ratio      : {result.ratio:.2f}x "
          f"(avoided {format_time(result.improvement)})")
    print(f"permutation: {list(result.permutation)}")
    if result.ratio <= 1.0:
        # Not an error — uniform all-to-all on any fabric, or any
        # traffic on a single switch, is placement-invariant.
        print(
            f"note       : no placement beats identity for this traffic "
            f"at n={n}; the mapping above ties it",
        )
    if args.json:
        import json as _json
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"json       : {path}")
    return 0


def _csv_list(text: str) -> list[str]:
    """Split a comma-separated CLI value, dropping empties."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _model_scenario(args) -> "api.Scenario | None":
    """The fit/compare-models target: a cluster name or scenario file.

    Workload override flags (``--nprocs``/``--sizes``/``--reps``/
    ``--seed``) apply to plain cluster names only; scenario files bring
    their own grid.  Prints a clean error and returns ``None`` on any
    lookup/validation failure.
    """
    overrides = {}
    try:
        if args.nprocs:
            overrides["nprocs"] = tuple(int(n) for n in _csv_list(args.nprocs))
        if args.sizes:
            overrides["sizes"] = tuple(
                parse_size(s) for s in _csv_list(args.sizes)
            )
    except ValueError as exc:
        print(f"invalid workload flags: {exc}", file=sys.stderr)
        return None
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.cluster.endswith((".toml", ".json")):
        if overrides:
            given = ", ".join(
                f"--{f}" for f in ("nprocs", "sizes", "reps", "seed")
                if getattr(args, f) is not None
            )
            print(
                f"a scenario file brings its own workload grid; drop {given}",
                file=sys.stderr,
            )
            return None
        return _load_scenario(args.cluster)
    try:
        return api.Scenario.from_name(args.cluster, **overrides)
    except (UnknownNameError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return None


def _model_samples(args, scenario):
    """Samples for fit/compare: ``--from-rows FILE`` or ``None`` (sweep).

    Rows labelled with a different cluster are dropped (multi-cluster
    sweep files work, and a sweep file measured on another fabric —
    sink files always carry the cluster column — cannot silently fit
    under this target's ping-pong/topology context; unlabelled
    hand-rolled rows are trusted as-is).  Returns
    ``(samples, error_exit_code)``; samples stay ``None`` when the
    scenario should measure its own grid.
    """
    if not args.from_rows:
        return None, None
    from .analysis.io import read_rows
    from .models import samples_from_rows

    try:
        rows = read_rows(args.from_rows)
        samples = samples_from_rows(rows, cluster=scenario.name)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return None, 2
    except (FittingError, ValueError) as exc:
        print(f"cannot load samples from {args.from_rows}: {exc}", file=sys.stderr)
        return None, 2
    if not samples:
        print(
            f"{args.from_rows} holds no usable uniform-pattern rows for "
            f"cluster {scenario.name!r}",
            file=sys.stderr,
        )
        return None, 1
    return samples, None


def _cmd_fit(args: argparse.Namespace) -> int:
    scenario = _model_scenario(args)
    if scenario is None:
        return 2
    samples, code = _model_samples(args, scenario)
    if code is not None:
        return code
    from .models import get_model, score_fit

    name = args.model or scenario.spec.model
    try:
        model = get_model(name)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"scenario  : {scenario.describe()}")
    print(f"model     : {model.name}")
    _ledger_note(
        cluster=scenario.name, model=model.name,
        scenario_key=_scenario_key(scenario),
    )
    try:
        fitted = scenario.fit_model(model.name, samples=samples)
        used = samples if samples is not None else scenario.grid_samples()
        score = score_fit(fitted, used)
    except (FittingError, MeasurementError, ScenarioError) as exc:
        print(f"cannot fit {model.name}: {exc}", file=sys.stderr)
        return 1
    schema = {spec.name: spec for spec in model.param_schema}
    width = max(len(n) for n in schema)
    for pname, value in sorted(fitted.params.items()):
        spec = schema[pname]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        unit = f" {spec.unit}" if spec.unit else ""
        print(f"  {pname:<{width}} = {shown}{unit:<5} {spec.description}")
    print(
        f"in-sample : mape={score.mape:.2f}% rmse={format_time(score.rmse)} "
        f"over {score.n_samples} samples"
    )
    return 0


def _cmd_compare_models(args: argparse.Namespace) -> int:
    scenario = _model_scenario(args)
    if scenario is None:
        return 2
    samples, code = _model_samples(args, scenario)
    if code is not None:
        return code
    models = _csv_list(args.models) if args.models else None
    print(f"scenario  : {scenario.describe()}")
    _ledger_note(
        cluster=scenario.name, scenario_key=_scenario_key(scenario)
    )
    try:
        comparison = scenario.compare_models(
            models, samples=samples, k=args.k
        )
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (FittingError, MeasurementError, ScenarioError) as exc:
        print(f"cannot compare models: {exc}", file=sys.stderr)
        return 1
    print(comparison.render())
    if not any(r.ok for r in comparison.reports):
        # The table above shows each model's reason; a comparison that
        # produced zero fits is a failure, not a ranking.
        print("no model could be fitted on these samples", file=sys.stderr)
        return 1
    if comparison.reports and comparison.reports[0].ok:
        best = comparison.reports[0]
        print(
            f"best      : {best.model} ({comparison.ranked_by} "
            f"{comparison.rank_metric_of(best):.2f}% over "
            f"{comparison.n_samples} samples)"
        )
    if args.json:
        import json as _json
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(comparison.to_dict(), indent=2) + "\n")
        print(f"json      : {path}")
    return 0


def _scenario_sweep_models(args, scenario, result) -> int:
    """``sweep --scenario FILE --models ...``: compare on the sweep's
    samples under the scenario's own profile/ping-pong context."""
    samples = [
        r.sample for r in result.results
        if r.ok and r.point.pattern is None and r.point.placement is None
    ]
    if not samples:
        print(
            "model comparison skipped: no successful uniform-pattern, "
            "identity-placement points (the zoo models predict the "
            "regular All-to-All under the default mapping)",
            file=sys.stderr,
        )
        return 0
    try:
        comparison = scenario.compare_models(
            tuple(_csv_list(args.models)), samples=samples
        )
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (FittingError, MeasurementError, ScenarioError) as exc:
        # e.g. the post-sweep ping-pong context measurement failing —
        # the sweep itself already succeeded and streamed/cached.
        print(f"model comparison failed: {exc}", file=sys.stderr)
        return 1
    print(f"\nmodel comparison — {scenario.name}:")
    print(comparison.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not _check_engine(args.engine):
        return 2
    try:
        scenario, _ = _resolve_cluster_arg(args.cluster)
    except (OSError, UnknownNameError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        size = parse_size(args.size) if args.size is not None else None
    except ValueError as exc:
        print(f"invalid --size: {exc}", file=sys.stderr)
        return 2
    try:
        observation = scenario.trace(
            args.nprocs,
            size,
            seed=args.seed,
            algorithm=args.algorithm,
            engine=args.engine,
        )
    except (MeasurementError, ScenarioError, SimulationError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    # Without --out the serialized trace goes to stdout, so the
    # human-readable summary moves to stderr to keep stdout parseable.
    info = sys.stdout if args.out else sys.stderr
    print(f"cluster   : {scenario.name}", file=info)
    print(observation.render(args.top), file=info)
    if args.out:
        path = observation.export(args.out, args.format)
        print(f"trace     : {path} ({args.format})", file=info)
    else:
        document = EXPORT_FORMATS[args.format](observation.trace)
        sys.stdout.write(document)
        if not document.endswith("\n"):
            sys.stdout.write("\n")
    return 0


def _cmd_bench_ingest(args: argparse.Namespace) -> int:
    """Load BENCH_*.json records into the run ledger."""
    from .obs.bench import load_records
    from .obs.ledger import default_ledger

    try:
        records = load_records(args.paths)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not records:
        print("no schema-conforming bench records found", file=sys.stderr)
        return 1
    ledger = default_ledger()
    if not ledger.enabled:
        print(
            "ledger disabled (REPRO_LEDGER); nothing ingested",
            file=sys.stderr,
        )
        return 1
    for record in records:
        ledger.record("bench", bench=record.get("bench"), record=record)
    print(f"ingested {len(records)} bench record(s) into {ledger.path}")
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """Render the per-metric trajectory recorded in the ledger."""
    from .obs.bench import render_trajectory
    from .obs.ledger import Ledger, default_ledger

    ledger = Ledger(args.ledger) if args.ledger else default_ledger()
    entries = ledger.entries(kind="bench")
    print(render_trajectory(entries, bench=args.bench, metric=args.metric))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Gate current bench records against committed baselines."""
    from .obs.bench import compare, load_records, render_findings

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.paths)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not baseline:
        print("no schema-conforming baseline records", file=sys.stderr)
        return 2
    if not current:
        print("no schema-conforming current records", file=sys.stderr)
        return 2
    findings = compare(baseline, current)
    print(render_findings(findings))
    bad = [f for f in findings if not f.ok]
    _ledger_note(tracked=len(findings), regressions=len(bad))
    return 1 if bad else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import ResultCache, SweepRunner, SweepSpec, default_cache_dir

    if not _check_engine(args.engine):
        return 2
    if not _check_placements(args.placement):
        return 2
    if args.heartbeat is not None and args.heartbeat <= 0:
        print(
            "invalid sweep options: --heartbeat must be positive",
            file=sys.stderr,
        )
        return 2
    cache = None if args.no_cache else ResultCache(
        args.cache_dir or default_cache_dir()
    )
    try:
        runner = SweepRunner(
            workers=args.workers,
            cache=cache,
            executor=args.executor,
            retries=args.retries,
            on_error="keep" if args.keep_going else "raise",
        )
        sinks, streamed = _sweep_sinks(args)
    except ValueError as exc:
        print(f"invalid sweep options: {exc}", file=sys.stderr)
        return 2
    progress = _progress_printer() if args.progress else None

    # --models is absent here on purpose: it is a post-processing hook,
    # not a grid axis, so it composes with --scenario sweeps too.
    axis_flags = (
        "clusters", "nprocs", "sizes", "algorithms", "pattern",
        "placement", "seeds", "reps",
    )
    if args.scenario:
        given = [f"--{f}" for f in axis_flags if getattr(args, f) is not None]
        if given:
            print(
                f"--scenario brings its own workload grid; drop {', '.join(given)}",
                file=sys.stderr,
            )
            return 2
        scenario = _load_scenario(args.scenario)
        if scenario is None:
            return 2
        if args.engine:
            scenario = _with_engine(scenario, args.engine)
        if args.heartbeat is not None:
            from .obs.heartbeat import HeartbeatSink

            sinks = sinks + (HeartbeatSink(args.heartbeat),)
        _ledger_note(
            scenario=args.scenario, scenario_key=_scenario_key(scenario)
        )
        try:
            result = scenario.sweep(runner=runner, sinks=sinks, progress=progress)
        except _SWEEP_ERRORS as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 1
        print(f"sweep     : {scenario.describe()}")
        print(f"workers   : {runner.workers} ({runner.executor_name} executor)")
        print(f"cache     : {cache.root if cache is not None else 'disabled'}")
        _print_sweep_summary(result, streamed=streamed)
        if args.profile:
            print(result.profile().render())
        if args.models:
            code = _scenario_sweep_models(args, scenario, result)
            if code:
                return code
        return 1 if result.n_failed else 0

    try:
        spec = SweepSpec(
            clusters=tuple(_csv_list(args.clusters or "gigabit-ethernet")),
            nprocs=tuple(int(n) for n in _csv_list(args.nprocs or "4,8")),
            sizes=tuple(
                parse_size(s) for s in _csv_list(args.sizes or "2kB,32kB,256kB")
            ),
            algorithms=tuple(_csv_list(args.algorithms or "direct")),
            patterns=(
                tuple(_parse_pattern_arg(p) for p in args.pattern)
                if args.pattern
                else (None,)
            ),
            placements=(
                tuple(_parse_placement_arg(p) for p in args.placement)
                if args.placement
                else (None,)
            ),
            seeds=tuple(int(s) for s in _csv_list(args.seeds or "0")),
            reps=args.reps if args.reps is not None else 1,
            models=tuple(_csv_list(args.models)) if args.models else (),
            engine=args.engine,
        )
    except ValueError as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    if args.heartbeat is not None:
        from .obs.heartbeat import HeartbeatSink

        sinks = sinks + (HeartbeatSink(args.heartbeat, total=spec.n_points),)
    _ledger_note(spec=spec.describe(), n_points=spec.n_points)
    try:
        result = runner.run(spec, sinks=sinks, progress=progress)
    except KeyError as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2
    except FittingError as exc:
        # The post-sweep model comparison failed; the points themselves
        # are already cached/streamed.
        print(f"model comparison failed: {exc}", file=sys.stderr)
        return 1
    except _SWEEP_ERRORS as exc:
        # e.g. a pattern whose matrix degenerates at some grid point
        # (shift:offset=n) — report cleanly, not as a traceback.
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    print(f"sweep     : {spec.describe()}")
    print(f"workers   : {runner.workers} ({runner.executor_name} executor)")
    print(f"cache     : {cache.root if cache is not None else 'disabled'}")
    _print_sweep_summary(result, streamed=streamed)
    if args.profile:
        print(result.profile().render())
    if spec.models and not result.comparisons:
        print(
            "model comparison skipped: no successful uniform-pattern "
            "points (the zoo models predict the regular All-to-All)",
            file=sys.stderr,
        )
    for cluster_name, comparison in sorted((result.comparisons or {}).items()):
        print(f"\nmodel comparison — {cluster_name}:")
        print(comparison.render())
    if not sinks:
        slowest = sorted(
            (r for r in result.results if r.ok),
            key=lambda r: r.sample.mean_time, reverse=True,
        )[:5]
        print("slowest points:")
        for r in slowest:
            print(
                f"  {r.point.cluster:<18} {r.point.algorithm:<7} "
                f"n={r.point.n_processes:<3} m={r.point.msg_size:<8} "
                f"{format_time(r.sample.mean_time)}"
            )
    return 1 if result.n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-alltoall",
        description="All-to-All contention modeling (CLUSTER 2006 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list",
        help="list experiments and registered clusters/topologies/"
             "algorithms/backends",
    )
    p_list.add_argument(
        "what", nargs="?", default="all",
        choices=["all", *_LIST_SECTIONS],
        help="section to list (default: all)",
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment or a scenario file")
    p_run.add_argument(
        "experiment", nargs="?", choices=sorted(EXPERIMENTS), default=None
    )
    p_run.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="sweep + characterise a declarative scenario (.toml/.json)",
    )
    p_run.add_argument("--scale", default="default",
                       choices=["smoke", "default", "full"])
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--csv", default=None, help="save data rows to CSV")
    p_run.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulation engine: fluid (reference, default) or vector "
             "(batched; see `list engines`)",
    )
    p_run.add_argument(
        "--placement", default=None, metavar="NAME[:K=V,...]",
        help="rank→host mapping override for --scenario runs, e.g. "
             "round-robin:groups=4 (see `list placements`)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_char = sub.add_parser(
        "characterize", help="fit a cluster's contention signature"
    )
    p_char.add_argument(
        "cluster",
        help="registered cluster name (alias-tolerant) or scenario file",
    )
    p_char.add_argument("--nprocs", type=int, default=None)
    p_char.add_argument("--reps", type=int, default=None)
    p_char.add_argument("--seed", type=int, default=None)
    p_char.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulation engine for the All-to-All sweep (the ping-pong "
             "stays on the reference fluid engine; see `list engines`)",
    )
    p_char.set_defaults(func=_cmd_characterize)

    def _add_model_workload_flags(p) -> None:
        """Shared fit/compare-models target + workload-override flags."""
        p.add_argument(
            "cluster",
            help="registered cluster name (alias-tolerant) or scenario file",
        )
        p.add_argument(
            "--nprocs", default=None,
            help="comma-separated process counts for the fit grid "
                 "(cluster names only; default: 4,8)",
        )
        p.add_argument(
            "--sizes", default=None,
            help="comma-separated message sizes, bytes or strings like "
                 "256kB (cluster names only)",
        )
        p.add_argument("--reps", type=int, default=None,
                       help="repetitions per grid point")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--from-rows", default=None, metavar="FILE",
            help="fit on rows from a sweep CSV/JSONL file instead of "
                 "measuring the grid (typed via analysis.io.read_rows)",
        )

    p_fit = sub.add_parser(
        "fit", help="fit one cost model on a cluster or scenario grid"
    )
    _add_model_workload_flags(p_fit)
    p_fit.add_argument(
        "--model", default=None, metavar="NAME",
        help="registered cost model (default: the scenario's model field, "
             "i.e. the paper's contention signature; see `list models`)",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser(
        "compare-models",
        help="fit several cost models on the same samples and rank them "
             "by cross-validated error",
    )
    _add_model_workload_flags(p_cmp)
    p_cmp.add_argument(
        "--models", default=None,
        help="comma-separated model names (default: every registered "
             "built-in; see `list models`)",
    )
    p_cmp.add_argument(
        "--k", type=int, default=4,
        help="cross-validation fold count (default: 4)",
    )
    p_cmp.add_argument(
        "--json", default=None, metavar="FILE",
        help="save the comparison report as JSON",
    )
    p_cmp.set_defaults(func=_cmd_compare_models)

    p_pred = sub.add_parser(
        "predict", help="predict an All-to-All time from paper signatures"
    )
    p_pred.add_argument(
        "cluster",
        help="registered cluster name (alias-tolerant) or scenario file",
    )
    p_pred.add_argument("nprocs", type=int)
    p_pred.add_argument("msg_size", help="bytes or size string like 256kB")
    p_pred.set_defaults(func=_cmd_predict)

    p_opt = sub.add_parser(
        "optimize-placement",
        help="search for a contention-minimising rank→host mapping "
             "(predicted MED objective, no simulation)",
    )
    p_opt.add_argument(
        "cluster",
        help="registered cluster name (alias-tolerant) or scenario file",
    )
    p_opt.add_argument(
        "--nprocs", type=int, default=None,
        help="process count (default: the workload's fit n')",
    )
    p_opt.add_argument(
        "--size", default=None, metavar="SIZE",
        help="message size, bytes or a string like 256kB (default: the "
             "workload's largest size)",
    )
    p_opt.add_argument(
        "--pattern", default=None, metavar="NAME[:K=V,...]",
        help="traffic pattern to optimise for (default: the workload's "
             "pattern; the uniform All-to-All is placement-invariant)",
    )
    p_opt.add_argument(
        "--optimizer", default="greedy", metavar="NAME[:K=V,...]",
        help="search strategy, e.g. greedy or anneal:iterations=8000 "
             "(see `list placement-optimizers`; default: greedy)",
    )
    p_opt.add_argument("--seed", type=int, default=None,
                       help="search seed (default: the workload's first)")
    p_opt.add_argument(
        "--json", default=None, metavar="FILE",
        help="save the search result (objectives, permutation) as JSON",
    )
    p_opt.set_defaults(func=_cmd_optimize_placement)

    p_trace = sub.add_parser(
        "trace",
        help="run one instrumented simulation and export its trace "
             "(Chrome/Perfetto JSON or JSONL) plus a contention report",
    )
    p_trace.add_argument(
        "cluster",
        help="registered cluster name (alias-tolerant) or scenario file",
    )
    p_trace.add_argument(
        "--nprocs", type=int, default=None,
        help="process count (default: the workload's fit n')",
    )
    p_trace.add_argument(
        "--size", default=None, metavar="SIZE",
        help="message size, bytes or a string like 256kB (default: the "
             "workload's first size)",
    )
    p_trace.add_argument(
        "--algorithm", default=None, metavar="NAME",
        help="All-to-All algorithm (default: the scenario's; see "
             "`list algorithms`)",
    )
    p_trace.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulation engine: fluid (reference, default) or vector "
             "(batched; see `list engines`)",
    )
    p_trace.add_argument("--seed", type=int, default=None)
    p_trace.add_argument(
        "--format", default="chrome", choices=sorted(EXPORT_FORMATS),
        help="export format (default: chrome; see `list trace-formats`)",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the trace document to FILE (default: stdout, with "
             "the summary on stderr)",
    )
    p_trace.add_argument(
        "--top", type=int, default=5,
        help="bottleneck links shown in the contention report (default: 5)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a measurement grid on a worker pool with result caching",
    )
    p_sweep.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="sweep a declarative scenario file instead of the axis flags",
    )
    p_sweep.add_argument(
        "--clusters", default=None,
        help="comma-separated cluster names (default: gigabit-ethernet)",
    )
    p_sweep.add_argument(
        "--nprocs", default=None,
        help="comma-separated process counts (default: 4,8)",
    )
    p_sweep.add_argument(
        "--sizes", default=None,
        help="comma-separated message sizes, bytes or strings like 256kB "
             "(default: 2kB,32kB,256kB)",
    )
    p_sweep.add_argument(
        "--algorithms", default=None,
        help="comma-separated algorithm names (default: direct; see "
             "`list algorithms`)",
    )
    p_sweep.add_argument(
        "--pattern", action="append", default=None, metavar="NAME[:K=V,...]",
        help="traffic pattern axis entry, e.g. hotspot:targets=2,factor=8 "
             "(repeatable; default: the uniform regular All-to-All; see "
             "`list patterns`)",
    )
    p_sweep.add_argument(
        "--placement", action="append", default=None, metavar="NAME[:K=V,...]",
        help="rank→host mapping axis entry, e.g. round-robin:groups=4 "
             "(repeatable; default: the identity mapping; see "
             "`list placements`)",
    )
    p_sweep.add_argument(
        "--seeds", default=None, help="comma-separated base seeds (default: 0)"
    )
    p_sweep.add_argument("--reps", type=int, default=None,
                         help="repetitions per point (default: 1)")
    p_sweep.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulation engine for every point: fluid (reference, "
             "default) or vector (batched; composes with --scenario; "
             "see `list engines`)",
    )
    p_sweep.add_argument(
        "--models", default=None,
        help="comma-separated cost-model names to fit per cluster on the "
             "finished sweep (post-processing, never an axis; composes "
             "with --scenario; see `list models`)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="worker process count"
    )
    p_sweep.add_argument(
        "--executor", default=None, metavar="NAME",
        help="execution backend for cache-missed points: serial, process "
             "(persistent warm worker pool, reused across runs; a dead "
             "worker fails only its own point; alias futures), or a "
             "user-registered executor (default: process when "
             "--workers > 1, else serial; see `list executors`)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failed point up to N times before recording its "
             "error (default: 0)",
    )
    p_sweep.add_argument(
        "--keep-going", action="store_true",
        help="record failed points as error rows and finish the sweep "
             "(exit 1) instead of aborting on the first failure",
    )
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="print one line per completed point to stderr",
    )
    p_sweep.add_argument(
        "--profile", action="store_true",
        help="print a timing/cache profile after the summary (in-worker "
             "simulation seconds, executor overhead, slowest points)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_SWEEP_CACHE or "
             "~/.cache/repro-alltoall/sweeps)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true", help="always simulate"
    )
    p_sweep.add_argument(
        "--csv", default=None,
        help="stream rows to a CSV file as points complete",
    )
    p_sweep.add_argument(
        "--jsonl", default=None,
        help="stream rows to a JSONL file as points complete",
    )
    p_sweep.add_argument(
        "--output", action="append", default=None, metavar="FILE",
        help="stream rows to FILE, sink picked by extension "
             "(.csv or .jsonl; repeatable)",
    )
    p_sweep.add_argument(
        "--heartbeat", nargs="?", const=5.0, type=float, default=None,
        metavar="SEC",
        help="print a live progress line (rows/sec, hit rate, ETA, top "
             "metric deltas) to stderr every SEC seconds (default: 5)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser(
        "bench",
        help="track the benchmark trajectory: ingest BENCH_*.json into "
             "the run ledger, report per-metric history, gate on baselines",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bi = bench_sub.add_parser(
        "ingest",
        help="append schema-conforming bench records to the run ledger",
    )
    p_bi.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="BENCH_*.json files or directories holding them",
    )
    p_bi.set_defaults(func=_cmd_bench_ingest)
    p_br = bench_sub.add_parser(
        "report",
        help="render the per-metric trajectory recorded in the ledger",
    )
    p_br.add_argument(
        "--bench", default=None, metavar="NAME",
        help="only this benchmark (default: all)",
    )
    p_br.add_argument(
        "--metric", default=None, metavar="NAME",
        help="only this metric (default: all)",
    )
    p_br.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="read this ledger file (default: the active run ledger)",
    )
    p_br.set_defaults(func=_cmd_bench_report)
    p_bc = bench_sub.add_parser(
        "compare",
        help="compare current bench records against committed baselines; "
             "exit 1 when a tracked metric regresses beyond its tolerance",
    )
    p_bc.add_argument(
        "--baseline", action="append", required=True, metavar="PATH",
        help="baseline record files or directories (repeatable)",
    )
    p_bc.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="current BENCH_*.json files or directories",
    )
    p_bc.set_defaults(func=_cmd_bench_compare)
    return parser


#: Commands recorded in the run ledger.  Pure introspection (``list``,
#: ``predict``) stays out; everything that measures, fits, searches, or
#: gates appends a fingerprinted entry.
_LEDGERED = {
    "run", "sweep", "characterize", "fit", "compare-models",
    "optimize-placement", "bench",
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    global _ACTIVE_LEDGER
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in _LEDGERED:
        return args.func(args)
    kind = args.command
    if kind == "bench":
        kind = f"bench-{args.bench_command}"
    _ACTIVE_LEDGER = _LedgerScope(
        kind, argv=list(argv) if argv is not None else sys.argv[1:]
    )
    code = 1
    try:
        code = args.func(args)
        return code
    finally:
        scope, _ACTIVE_LEDGER = _ACTIVE_LEDGER, None
        scope.finish(code)


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe early;
        # detach stdout so interpreter shutdown does not re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
