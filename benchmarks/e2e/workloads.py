"""The end-to-end workloads: what each one runs, and why it was chosen.

A workload is one ``repro-alltoall sweep`` invocation driven as a
closed loop by a single client.  The benchmark seed ``S`` is turned
into the argv (or scenario TOML) the program receives; the program
never sees ``S`` itself.  Every workload is sized so one cold sweep
takes a few seconds on a 2-core machine and averages enough
independent points that the sweep time moves little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["Workload", "WORKLOADS", "get_workload", "sweep_argv", "scenario_toml"]

#: Wrapped call sites that record calls on every workload's traced run
#: (see ``spans.TARGETS``).  A busy site that records zero calls fails
#: the traced run, so a refactor cannot silently blind a layer.
_COMMON_BUSY = frozenset({
    "repro.sweeps.runner:profile_fingerprint",
    "repro.sweeps.runner:point_key",
    "repro.sweeps.cache:ResultCache.get",
    "repro.sweeps.cache:ResultCache.put",
    "repro.exec.task:run_task",
    "repro.exec.task:measure_alltoall",
    "repro.clusters.profiles:ClusterProfile.topology",
    "repro.exec.sinks:CsvSink.write",
    "repro.obs.metrics:MetricsRegistry.snapshot",
})

_VECTOR_BUSY = _COMMON_BUSY | {
    "repro.simnet.vector:max_min_allocation",
    "repro.simnet.vector:VectorSimulator.run",
    "repro.engines:lower_program",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``grid(seeds, workdir)`` returns the sweep's grid arguments, which
    expand to ``points`` rows; benchmark seed ``S`` maps to sweep seeds
    ``k*S .. k*S+k-1`` with ``k = seeds_per_run``.  ``executor`` /
    ``workers`` are what the untraced run uses; the traced run always
    swaps in the serial executor so every span stays in one process.
    ``busy`` names the wrapped call sites that must record calls when
    this workload is traced.  ``signature`` workloads fit the paper's
    contention signature and report its error.
    """

    name: str
    why: str
    grid: Callable[[list[int], Path], list[str]]
    points: int
    busy: frozenset
    executor: str = "serial"
    workers: int = 1
    seeds_per_run: int = 1
    signature: bool = False

    def seeds(self, seed: int) -> list[int]:
        """The sweep seeds derived from the benchmark seed."""
        k = self.seeds_per_run
        return list(range(k * seed, k * seed + k))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _paper_fluid(seeds: list[int], workdir: Path) -> list[str]:
    return [
        "sweep", "--clusters", "fast-ethernet,gigabit-ethernet,myrinet",
        "--nprocs", "4,8,12", "--sizes", "1kB,8kB,64kB,256kB",
        "--reps", "2", "--seeds", _csv(seeds),
        "--models", "hockney,signature",
    ]


def _vector_lossy(seeds: list[int], workdir: Path) -> list[str]:
    return [
        "sweep", "--clusters", "gigabit-ethernet,fast-ethernet",
        "--nprocs", "16,24", "--sizes", "4kB,64kB",
        "--pattern", "uniform", "--pattern", "hotspot:targets=2,factor=4",
        "--engine", "vector", "--reps", "2", "--seeds", _csv(seeds),
    ]


def scenario_toml(seeds: list[int]) -> str:
    """The ``vector-scale`` scenario: lossless, jitter-free GigE at large n.

    Synchronised starts collapse each run to a handful of epochs, so the
    cost is lowering and per-message protocol replay, not the solve.
    """
    return (
        "[scenario]\n"
        'name = "e2e-vector-scale"\n'
        'base = "gigabit-ethernet"\n'
        'engine = "vector"\n'
        "max_hosts = 1024\n"
        "start_skew_scale = 0.0\n"
        "\n"
        "[scenario.transport]\n"
        "jitter_scale = 0.0\n"
        "\n"
        "[scenario.loss]\n"
        "enabled = false\n"
        "\n"
        "[scenario.workload]\n"
        "nprocs = [128, 192, 256]\n"
        "sizes = [4096]\n"
        f"seeds = [{_csv(seeds)}]\n"
        "reps = 1\n"
    )


def _vector_scale(seeds: list[int], workdir: Path) -> list[str]:
    path = workdir / "vector-scale.toml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario_toml(seeds))
    return ["sweep", "--scenario", str(path)]


def _sweep_overhead(seeds: list[int], workdir: Path) -> list[str]:
    return [
        "sweep", "--clusters", "fast-ethernet,gigabit-ethernet,myrinet",
        "--nprocs", "4,6,8", "--sizes", "1kB,4kB,16kB,64kB",
        "--pattern", "uniform", "--pattern", "hotspot:targets=1,factor=4",
        "--placement", "identity", "--placement", "round-robin:groups=2",
        "--engine", "vector", "--reps", "1", "--seeds", _csv(seeds),
    ]


def sweep_argv(
    workload: Workload, seed: int, workdir: Path, *, cache_dir: Path,
    output: Path, serial: bool = False,
) -> list[str]:
    """Full ``repro.cli.main`` argv: grid plus cache, output and executor."""
    executor, workers = ("serial", 1) if serial else (
        workload.executor, workload.workers
    )
    return workload.grid(workload.seeds(seed), workdir) + [
        "--cache-dir", str(cache_dir), "--output", str(output),
        "--executor", executor, "--workers", str(workers),
    ]


WORKLOADS = (
    Workload(
        name="paper-fluid",
        why=(
            "The paper's (n, m) characterisation on three clusters with a "
            "(gamma, delta) fit: default fluid engine, event runtime, "
            "max-min solve and loss overlay."
        ),
        grid=_paper_fluid,
        points=36,
        busy=_COMMON_BUSY | {
            "repro.simnet.fluid:max_min_allocation",
            "repro.simmpi.runtime:Runtime.run",
            "repro.simnet.loss:LossModel.flow_hazards",
            "repro.sweeps.spec:SweepSpec.points",
            "repro.models.selection:compare_for_sweep",
        },
        signature=True,
    ),
    Workload(
        name="vector-lossy",
        why=(
            "Lossy GigE and Fast Ethernet with jitter on the vector engine: "
            "many desynchronised epochs, so the epoch solve and loss "
            "hazards dominate."
        ),
        grid=_vector_lossy,
        points=16,
        busy=_VECTOR_BUSY | {
            "repro.simnet.loss:LossModel.flow_hazards",
            "repro.sweeps.spec:SweepSpec.points",
            "repro.traffic.spec:PatternSpec.matrix",
        },
    ),
    Workload(
        name="vector-scale",
        why=(
            "Lossless jitter-free GigE at n=128..256 from a scenario file: "
            "few epochs, so lowering and per-message protocol replay "
            "dominate; topology size and memory matter."
        ),
        grid=_vector_scale,
        points=3,
        busy=_VECTOR_BUSY | {"repro.api:Scenario.sweep_points"},
    ),
    Workload(
        name="sweep-overhead",
        why=(
            "864 tiny vector points on a 2-worker pool: the largest share "
            "of fixed per-point costs (keys, cache, dispatch, sinks, "
            "snapshots) of any workload; the rerun reads the same cache."
        ),
        grid=_sweep_overhead,
        points=864,
        busy=_VECTOR_BUSY | {
            "repro.simnet.loss:LossModel.flow_hazards",
            "repro.sweeps.spec:SweepSpec.points",
            "repro.traffic.spec:PatternSpec.matrix",
            "repro.measure.alltoall:apply_placement",
        },
        executor="process",
        workers=2,
        seeds_per_run=6,
    ),
)


def get_workload(name: str) -> Workload:
    """Look a workload up by name (``KeyError`` names the known ones)."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r}; known: {known}")
