"""Simulation engines: pluggable strategies for running one measurement rep.

An *engine* is a callable

    ``engine(cluster, n_processes, program, run_arg, seed) -> RunResult``

that simulates one repetition of a rank program on a cluster profile.
Engines are registered in :data:`repro.registry.ENGINES` (decorator:
``@repro.registry.register_engine``), mirroring the cluster / topology /
executor plugin axes.  Both built-ins lower the program to a static
phase schedule (:mod:`repro.simmpi.lowering`) and replay it with the
one MPI protocol layer (:mod:`repro.simmpi.protocol`: eager/rendezvous,
per-pair FIFO channels, receiver demux, jitter); they differ only in
the network model that moves the wire bytes:

``fluid`` (default)
    The event-driven fluid network (:mod:`repro.simnet.fluid`), reached
    through :class:`repro.simmpi.runtime.Runtime`: max-min fairness is
    re-solved on every flow event, and TCP losses come from a
    competing-exponential clock.  This is the correctness oracle (its
    small-n results are frozen as golden data), and the default keeps
    every existing cache key bit-identical.

``vector``
    The batched epoch network (:mod:`repro.simnet.vector`), which
    advances all active flows in synchronized epochs.  Matches
    ``fluid`` to floating-point roundoff on lossless, jitter-free
    configurations.  It runs a lossless GigE n=64 point about 10x
    faster than ``fluid`` (``benchmarks/bench_engine.py``), and it
    alone reaches thousands of ranks: jitter-free n=1024 takes about
    3–3.5 s and n=2048 about 14 s on a 2-vCPU host.  Loss-enabled
    profiles run on a vectorized port of the TCP loss overlay that
    samples the same stochastic process through different random
    streams, so lossy runs match ``fluid`` statistically (distribution,
    not bit-exact).

Programs that cannot be lowered (wildcard receives, ``ctx.now``, reads
of a receive's status) raise :class:`~repro.exceptions.LoweringError`
on both engines.

The measurement layer adds each run's :class:`~repro.simmpi.RunResult`
counts to the ``sim.*`` metric counters, labelled with the engine's
registry name (a user-registered engine's included).

The process-wide default is ``fluid`` unless the ``REPRO_SIM_ENGINE``
environment variable names another registered engine (see
:func:`default_engine`).
"""

from __future__ import annotations

import os

from .exceptions import UnknownNameError
from .registry import ENGINES, register_engine
from .simmpi.lowering import lower_program
from .simnet.vector import VectorSimulator

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV",
    "default_engine",
    "run_fluid",
    "run_vector",
]

#: Engine used when neither caller nor environment picks one.  Keep at
#: ``fluid``: cache keys omit the engine when it is the default, so the
#: default engine defines what historical cache entries mean.
DEFAULT_ENGINE = "fluid"

#: Environment variable overriding the process-wide default engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"


@register_engine("fluid", aliases=("reference", "event-driven"))
def run_fluid(cluster, n_processes, program, run_arg, seed, *,
              trace=None, timeline=None):
    """Reference event-driven engine (protocol replay + fluid network).

    *trace* / *timeline* are the opt-in observability hooks (see
    :mod:`repro.obs`); both default to off and the default call shape
    is unchanged for registry users.
    """
    runtime = cluster.runtime(
        n_processes, seed=seed, trace=trace, timeline=timeline
    )
    return runtime.run(program, run_arg)


@register_engine("vector", aliases=("batched",))
def run_vector(cluster, n_processes, program, run_arg, seed, *,
               trace=None, timeline=None):
    """Batched engine: lower to a phase schedule, advance flows in epochs.

    Same opt-in *trace* / *timeline* hooks as the fluid engine; the
    vector engine additionally emits ``vector.epoch`` records when
    tracing.
    """
    lowered = lower_program(program, n_processes, run_arg)
    simulator = VectorSimulator(
        cluster.topology(n_processes),
        cluster.transport,
        nprocs=n_processes,
        loss_params=cluster.loss,
        hol_penalty=cluster.hol,
        start_skew_scale=cluster.start_skew_scale,
        seed=seed,
        trace=trace,
        timeline=timeline,
    )
    return simulator.run(lowered)


def default_engine() -> str:
    """The engine to use when a caller does not pick one.

    ``REPRO_SIM_ENGINE`` overrides the built-in default; a value naming
    no registered engine raises :class:`~repro.exceptions.UnknownNameError`
    immediately (matching the ``REPRO_SWEEP_EXECUTOR`` contract) rather
    than silently measuring with the wrong engine.
    """
    raw = os.environ.get(ENGINE_ENV)
    if raw is not None and raw.strip():
        try:
            return ENGINES.canonical(raw)
        except UnknownNameError as exc:
            raise UnknownNameError(f"{ENGINE_ENV}: {exc}") from None
    return DEFAULT_ENGINE
