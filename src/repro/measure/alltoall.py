"""All-to-All timing measurements on a virtual cluster.

Each sample is the mean of *reps* independent runs (the paper averages
100 measures per (message size, process count) point; the default here
is smaller because every run is a full simulation — pass ``reps=100`` to
match the paper's averaging exactly).

Irregular exchanges: pass ``pattern=`` (a
:class:`~repro.traffic.PatternSpec`, a registered pattern name, or a
``{"name": ..., "params": ...}`` dict) and the point is simulated with
the matrix-driven alltoallv rank programs over the pattern's (n, n)
byte matrix, ``msg_size`` acting as the pattern's scale.  The uniform
pattern collapses to the legacy scalar path bit-for-bit.

Rank placement: pass ``placement=`` (a
:class:`~repro.placement.PlacementSpec`, a registered strategy name, a
dict, or an explicit permutation) and rank *i*'s traffic is routed
through host ``perm[i]`` instead of host *i* — the one behavioural
change; RNG streams stay keyed by rank, so a placed run and an identity
run replay identical draws.  Identity collapses to the legacy
no-placement path bit-for-bit.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np

from ..clusters.profiles import ClusterProfile
from ..core.signature import AlltoallSample
from ..engines import default_engine
from ..exceptions import MeasurementError, ScenarioError, UnknownNameError
from ..obs.metrics import REGISTRY
from ..placement import apply_placement, as_placement
from ..registry import ALGORITHMS, ENGINES
from ..simmpi.collectives import variant_for
from ..simnet.rng import RngFactory
from ..traffic import PatternSpec, as_pattern

__all__ = ["measure_alltoall", "sweep_grid"]


def _resolve_program(algorithm: str, pattern: "PatternSpec | None"):
    """Map (algorithm, pattern) to the rank program actually simulated.

    Returns ``(program, stream_tag)`` where *stream_tag* is the
    algorithm name used in RNG stream derivation — the alltoallv
    variant's canonical name for irregular points, the scalar name
    (historical stream naming, cache-compatible) otherwise.
    """
    try:
        canonical = ALGORITHMS.canonical(algorithm)
        resolved = variant_for(canonical, irregular=pattern is not None)
    except UnknownNameError as exc:
        raise MeasurementError(exc.args[0]) from None
    except ValueError as exc:
        raise MeasurementError(str(exc)) from None
    return ALGORITHMS.get(resolved), resolved


def _resolve_engine(engine: "str | None"):
    """Canonicalise an engine choice (``None`` → process-wide default)."""
    try:
        if engine is None:
            engine = default_engine()
        name = ENGINES.canonical(engine)
        return name, ENGINES.get(name)
    except UnknownNameError as exc:
        raise MeasurementError(exc.args[0]) from None


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for one engine call.

    A simulation keeps hundreds of thousands of small objects alive
    (events, closures, schedule tuples) and frees almost nothing cyclic
    until it returns, so collections during the run only re-walk live
    objects.  Results do not depend on collection timing.  The caller's
    collector state is restored on exit, also when the engine raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def measure_alltoall(
    cluster: ClusterProfile,
    n_processes: int,
    msg_size: int,
    *,
    reps: int = 3,
    seed: int = 0,
    algorithm: str = "direct",
    pattern=None,
    engine=None,
    placement=None,
    observe: bool = False,
) -> AlltoallSample:
    """Measure one (n, m) All-to-All point; returns the averaged sample.

    With *pattern* set (and not trivially uniform), the point runs the
    pattern's byte matrix through the matching alltoallv program; the
    matrix itself is derived deterministically from
    ``(pattern, n, msg_size, seed)`` and is identical across reps.

    With *placement* set (and not trivially identity), rank traffic is
    routed through the placed hosts (see :mod:`repro.placement`); the
    permutation is validated against *n_processes* up front.

    *engine* picks the simulation engine (an entry of
    :data:`repro.registry.ENGINES`; ``None`` defers to
    :func:`repro.engines.default_engine`).  Per-rep RNG seeds are
    engine-independent, so engines are compared on identical draws.
    Each engine call (lowering plus replay, on any engine) runs with
    the cyclic garbage collector paused; the caller's collector state
    is restored afterwards.  Every rep adds its
    :class:`~repro.simmpi.RunResult` counts to the ``sim.*`` counters
    of :data:`repro.obs.metrics.REGISTRY` (``sim.runs``,
    ``sim.solves``, ``sim.epochs``, ``sim.events``, ``sim.losses``,
    ``sim.stalls``), labelled with the engine's registry name.

    With ``observe=True`` the **first repetition** runs instrumented —
    a recording :class:`~repro.simnet.trace.Trace` and a per-link
    :class:`~repro.obs.LinkTimeline` — and the sample carries an
    ``observed`` attribute (a :class:`~repro.obs.Observation`: trace,
    timeline, and the MED :class:`~repro.obs.ContentionReport`).  This
    is an opt-in rider: it never enters cache payloads, and observation
    does not perturb timings or RNG draws (the instrumented rep replays
    the same seed).
    """
    if n_processes < 2:
        raise MeasurementError("All-to-All needs at least two processes")
    if msg_size < 1:
        raise MeasurementError("msg_size must be >= 1 byte")
    if reps < 1:
        raise MeasurementError("reps must be >= 1")
    try:
        pattern = as_pattern(pattern)
        placement = as_placement(placement)
        if placement is not None:
            # Validate eagerly (explicit perms pin their n, strategies
            # may reject it) instead of mid-simulation in a worker.
            placement.permutation(n_processes)
            cluster = apply_placement(cluster, placement)
    except ScenarioError as exc:
        raise MeasurementError(exc.args[0]) from None
    program, stream_tag = _resolve_program(algorithm, pattern)
    if pattern is None:
        run_arg: object = int(msg_size)
        stream_prefix = f"alltoall/{stream_tag}/{n_processes}/{msg_size}"
    else:
        try:
            matrix = pattern.matrix(n_processes, msg_size, seed=seed)
        except ValueError as exc:
            # Generator-level parameter failures (e.g. hotspot targets
            # exceeding n) surface as measurement errors, not tracebacks.
            raise MeasurementError(
                f"pattern {pattern.key()} cannot build a matrix at "
                f"(n={n_processes}, m={msg_size}): {exc}"
            ) from None
        if not np.any(matrix - np.diag(np.diag(matrix))):
            raise MeasurementError(
                f"pattern {pattern.key()} yields no network traffic at "
                f"(n={n_processes}, m={msg_size}, seed={seed}); nothing "
                "to measure"
            )
        run_arg = matrix
        stream_prefix = (
            f"alltoallv/{stream_tag}/{pattern.key()}/{n_processes}/{msg_size}"
        )
    engine_name, engine_fn = _resolve_engine(engine)
    obs_trace = obs_timeline = obs_topology = None
    if observe:
        try:
            ENGINES.check_params(engine_name, ("trace", "timeline"))
        except ScenarioError as exc:
            raise MeasurementError(
                f"engine {engine_name!r} does not support observation "
                f"(trace=/timeline= keyword arguments): {exc}"
            ) from None
        from ..obs import LinkTimeline
        from ..simnet.trace import Trace

        obs_topology = cluster.topology(n_processes)
        obs_trace = Trace()
        obs_timeline = LinkTimeline.for_topology(obs_topology)
    factory = RngFactory(seed)
    times = np.empty(reps)
    for rep in range(reps):
        rep_seed = factory.child(f"{stream_prefix}/{rep}").seed
        with _collector_paused():
            if observe and rep == 0:
                result = engine_fn(
                    cluster, n_processes, program, run_arg, rep_seed,
                    trace=obs_trace, timeline=obs_timeline,
                )
            else:
                result = engine_fn(cluster, n_processes, program, run_arg, rep_seed)
        times[rep] = result.duration
        # Always-on self-measurement: a handful of counter bumps per
        # rep, orders of magnitude below the simulation they describe.
        for name, amount in (
            ("sim.runs", 1),
            ("sim.epochs", result.epochs),
            ("sim.solves", result.solves),
            ("sim.events", result.events_processed),
            ("sim.losses", result.total_losses),
            ("sim.stalls", result.stalls),
        ):
            REGISTRY.counter(name).inc(amount, engine=engine_name)
    REGISTRY.counter("measure.samples").inc(1, engine=engine_name)
    sample = AlltoallSample(
        n_processes=n_processes,
        msg_size=int(msg_size),
        mean_time=float(times.mean()),
        std_time=float(times.std(ddof=1)) if reps > 1 else 0.0,
        reps=reps,
    )
    if observe:
        from ..obs import ContentionReport, Observation

        if pattern is None:
            matrix = np.full((n_processes, n_processes), int(msg_size))
            np.fill_diagonal(matrix, 0)
        observation = Observation(
            engine=engine_name,
            duration=float(times[0]),
            trace=obs_trace,
            timeline=obs_timeline,
            report=ContentionReport.from_timeline(
                obs_timeline, obs_topology, matrix
            ),
        )
        # Opt-in observability rider; never enters cache payloads.
        object.__setattr__(sample, "observed", observation)
    return sample


def sweep_grid(
    cluster: ClusterProfile,
    n_values,
    sizes,
    *,
    reps: int = 3,
    seed: int = 0,
    algorithm: str = "direct",
    pattern=None,
    engine=None,
    placement=None,
    runner=None,
    scenario=None,
    progress=None,
) -> list[AlltoallSample]:
    """(n, m) grid sweep, n-major; a fit at one n′ is ``[n′] x sizes``.

    Routed through the sweep engine: pass a configured
    :class:`~repro.sweeps.SweepRunner` (or set ``REPRO_SWEEP_WORKERS`` /
    ``REPRO_SWEEP_EXECUTOR`` / ``REPRO_SWEEP_CACHE``) to parallelise and
    cache the points.  *scenario* (a :class:`~repro.scenario.ScenarioSpec`)
    enters the cache keys and lets misses fan out to workers even for
    non-registry profiles; *progress* is called per landed point.
    """
    # Imported lazily: repro.sweeps builds on this module.
    from ..sweeps.runner import default_runner
    from ..sweeps.spec import SweepPoint

    try:
        points = [
            SweepPoint(
                cluster=cluster.name,
                n_processes=int(n),
                msg_size=int(size),
                algorithm=algorithm,
                seed=seed,
                reps=reps,
                pattern=pattern,
                engine=engine,
                placement=placement,
            )
            for n in n_values
            for size in sizes
        ]
    except ValueError as exc:
        # Preserve the measure layer's exception hierarchy.
        raise MeasurementError(str(exc)) from None
    if runner is None:
        runner = default_runner()
    return runner.run_points(
        points, profile=cluster, scenario=scenario, progress=progress
    ).samples
