"""Shared experiment machinery.

Every figure/table of the paper's evaluation is a registry entry
(:mod:`.registry`) whose runner takes ``(scale, *, seed)`` and returns
an :class:`ExperimentResult`.  Four scales bound simulation cost:

* ``smoke``   — seconds; used by the test suite to check wiring & shape;
* ``bench``   — the ``default`` grids at fewer repetitions; used by the
  benchmark harness;
* ``default`` — tens of seconds;
* ``full``    — paper-fidelity grids; minutes (run explicitly).

Results carry named series or surfaces plus the rendered ASCII figure,
so a bench run prints the same rows/curves the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..analysis.ascii_plot import line_plot, scatter_plot, surface_table
from ..analysis.io import rows_from_series, write_csv
from ..clusters.profiles import ClusterProfile, get_cluster
from ..core.hockney import HockneyParams
from ..core.signature import ContentionSignature, SignatureFit, fit_signature
from ..measure.alltoall import sweep_grid
from ..measure.pingpong import hockney_from_pingpong, measure_pingpong

__all__ = [
    "SCALES",
    "Scale",
    "ExperimentResult",
    "reference_hockney",
    "reference_fit",
    "reference_signature",
    "sample_sizes_for",
]


@dataclass(frozen=True)
class Scale:
    """Cost preset: repetition counts for the measurement layers."""

    name: str
    reps: int
    pingpong_reps: int

    def __post_init__(self) -> None:
        if self.reps < 1 or self.pingpong_reps < 1:
            raise ValueError("repetitions must be >= 1")


SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", reps=1, pingpong_reps=1),
    "bench": Scale("bench", reps=1, pingpong_reps=2),
    "default": Scale("default", reps=2, pingpong_reps=3),
    "full": Scale("full", reps=5, pingpong_reps=10),
}


def resolve_scale(scale: str | Scale) -> Scale:
    """Accept a scale name or object."""
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; known: {', '.join(SCALES)}"
        ) from None


@dataclass
class ExperimentResult:
    """Output of one experiment: data + how to show it.

    ``kind`` selects the renderer:

    * ``lines``   — :attr:`series` as multi-series x/y curves;
    * ``scatter`` — :attr:`scatter_xy` cloud with :attr:`series` overlays;
    * ``surface`` — :attr:`surfaces` (name -> (n, m) grid) tables.
    """

    exp_id: str
    title: str
    paper_ref: str
    kind: str = "lines"
    xlabel: str = "x"
    ylabel: str = "y"
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    scatter_xy: tuple[np.ndarray, np.ndarray] | None = None
    surfaces: dict[str, np.ndarray] = field(default_factory=dict)
    n_values: np.ndarray | None = None
    m_values: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self, width: int = 68) -> str:
        """ASCII figure + notes (what a bench run prints)."""
        header = f"[{self.exp_id}] {self.title}  ({self.paper_ref})"
        blocks = [header, "=" * len(header)]
        if self.kind == "lines":
            blocks.append(
                line_plot(
                    self.series, title=self.title, xlabel=self.xlabel,
                    ylabel=self.ylabel, width=width,
                )
            )
        elif self.kind == "scatter":
            assert self.scatter_xy is not None
            blocks.append(
                scatter_plot(
                    self.scatter_xy[0], self.scatter_xy[1],
                    overlay=self.series, title=self.title,
                    xlabel=self.xlabel, ylabel=self.ylabel, width=width,
                )
            )
        elif self.kind == "surface":
            assert self.n_values is not None and self.m_values is not None
            for name, grid in self.surfaces.items():
                blocks.append(
                    surface_table(
                        self.n_values.tolist(), self.m_values.tolist(), grid,
                        title=f"{name} — completion time (s)",
                    )
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown result kind {self.kind!r}")
        for note in self.notes:
            blocks.append(f"note: {note}")
        return "\n".join(blocks)

    def to_rows(self) -> tuple[list[str], list[dict[str, object]]]:
        """Tabular view (CSV-ready) of the primary data."""
        if self.kind in ("lines", "scatter") and self.series:
            return rows_from_series(self.series, x_name=self.xlabel)
        if self.kind == "scatter" and self.scatter_xy is not None:
            xs, ys = self.scatter_xy
            rows = [
                {"x": float(x), "y": float(y)} for x, y in zip(xs, ys)
            ]
            return ["x", "y"], rows
        if self.kind == "surface":
            assert self.n_values is not None and self.m_values is not None
            fieldnames = ["surface", "n", "m", "value"]
            rows = []
            for name, grid in self.surfaces.items():
                for i, n in enumerate(self.n_values):
                    for j, m in enumerate(self.m_values):
                        rows.append(
                            {
                                "surface": name,
                                "n": int(n),
                                "m": int(m),
                                "value": float(grid[i, j]),
                            }
                        )
            return fieldnames, rows
        raise ValueError("result carries no tabular data")

    def save_csv(self, path) -> None:
        """Persist the tabular view."""
        fieldnames, rows = self.to_rows()
        write_csv(path, fieldnames, rows)


def sample_sizes_for(scale: Scale, *, max_size: int = 1_258_291) -> list[int]:
    """Message-size ladder used by the fit figures (x up to ~1.2e6 B).

    Small sizes (2-32 KiB) are included so the affine threshold M is
    locatable by the breakpoint scan (the paper reports M = 2 kB / 8 kB).
    """
    if scale.name == "smoke":
        ladder = [2_048, 65_536, 262_144, 524_288, 1_048_576]
    elif scale.name == "full":
        ladder = [2_048, 4_096, 8_192, 16_384, 32_768] + list(
            range(65_536, max_size + 1, 65_536)
        )
    else:  # default / bench
        ladder = [
            2_048, 8_192, 32_768,
            65_536, 131_072, 262_144, 393_216, 524_288,
            786_432, 1_048_576, 1_258_291,
        ]
    return [s for s in ladder if s <= max_size]


@lru_cache(maxsize=64)
def _hockney_cached(
    cluster_name: str, pingpong_reps: int, seed: int
) -> HockneyParams:
    cluster = get_cluster(cluster_name)
    pingpong = measure_pingpong(cluster, reps=pingpong_reps, seed=seed)
    return hockney_from_pingpong(pingpong).params


def reference_hockney(
    cluster: ClusterProfile, scale: Scale, *, seed: int = 0
) -> HockneyParams:
    """Hockney α/β for a cluster (cached per scale & seed)."""
    return _hockney_cached(cluster.name, scale.pingpong_reps, seed)


@lru_cache(maxsize=64)
def _fit_cached(
    cluster_name: str,
    nprocs: int,
    scale_name: str,
    seed: int,
    delta_mode: str,
) -> SignatureFit:
    cluster = get_cluster(cluster_name)
    scale = SCALES[scale_name]
    hockney = reference_hockney(cluster, scale, seed=seed)
    # Routed through the sweep engine: the process-wide runner supplies
    # the execution backend (REPRO_SWEEP_WORKERS / REPRO_SWEEP_EXECUTOR,
    # a persistent warm pool across figures) and the on-disk result
    # cache (REPRO_SWEEP_CACHE) on top of this in-memory lru_cache.
    samples = sweep_grid(
        cluster, [nprocs], sample_sizes_for(scale), reps=scale.reps,
        seed=seed + 1,
    )
    return fit_signature(samples, hockney, delta_mode=delta_mode)


def reference_fit(
    cluster: ClusterProfile,
    nprocs: int,
    scale: Scale,
    *,
    seed: int = 0,
    delta_mode: str = "per_round",
) -> SignatureFit:
    """The §8 signature fit at sample size *nprocs*, with its samples (cached).

    Caching matters: figures 6/7/8 (and 9/10/11, 12/13/14) share one
    fit per network, exactly as the paper reuses the n′ sample fit
    across its figures; the fit figure plots the fit's own samples.
    """
    return _fit_cached(cluster.name, nprocs, scale.name, seed, delta_mode)


def reference_signature(
    cluster: ClusterProfile,
    nprocs: int,
    scale: Scale,
    *,
    seed: int = 0,
    delta_mode: str = "per_round",
) -> ContentionSignature:
    """The signature of :func:`reference_fit` (cached)."""
    return reference_fit(
        cluster, nprocs, scale, seed=seed, delta_mode=delta_mode
    ).signature

