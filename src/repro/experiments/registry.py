"""Experiment registry: map experiment ids to runners.

``run_experiment("fig06")`` is the single entry point used by the CLI,
the benchmark harness and the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .common import ExperimentResult
from . import (
    fig04_two_beta,
    fig05_small_messages,
    stress,
    table_model_shootout,
    table_placement,
    table_signatures,
)
from .validation import TESTBEDS, Testbed, error_figure, fit_figure, surface_figure

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: id, what it reproduces, and its runner."""

    exp_id: str
    paper_ref: str
    description: str
    runner: Callable[..., ExperimentResult]


def _testbed_specs(row: Testbed) -> Iterator[ExperimentSpec]:
    """A §8 testbed's fit, surface and error figures, numbered from its fit."""
    figures = (
        (fit_figure, f"{row.label} fit at {row.n_prime} {row.fit_hosts} ({row.fitted})"),
        (surface_figure, f"{row.label} prediction surface"),
        (error_figure, f"{row.label} estimation error vs process count"),
    )
    for fig, (make, description) in enumerate(figures, start=row.fit_fig):
        exp_id, paper_ref = f"fig{fig:02d}", f"Fig. {fig}"
        yield ExperimentSpec(
            exp_id, paper_ref, description, partial(make, exp_id, paper_ref, row)
        )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.exp_id: spec
    for spec in [
        ExperimentSpec(
            "fig02", "Fig. 2",
            "average bandwidth vs simultaneous connections (GigE stress)",
            stress.bandwidth_figure,
        ),
        ExperimentSpec(
            "fig03", "Fig. 3",
            "individual 32 MB transmission times under flood (GigE)",
            stress.transmission_figure,
        ),
        ExperimentSpec(
            "fig04", "Fig. 4",
            "two-beta synthetic prediction vs measurement, 40 procs GigE",
            fig04_two_beta.run,
        ),
        ExperimentSpec(
            "fig05", "Fig. 5",
            "small-message non-linearity surface (GigE, 256 B steps)",
            fig05_small_messages.run,
        ),
        *(spec for row in TESTBEDS for spec in _testbed_specs(row)),
        ExperimentSpec(
            "tableS", "§8 parameters",
            "fitted signatures vs paper values, all three networks",
            table_signatures.run,
        ),
        ExperimentSpec(
            "tableM", "§8 claim",
            "cost-model shootout: Hockney vs contention-signature error "
            "gap, all three networks",
            table_model_shootout.run,
        ),
        ExperimentSpec(
            "tableP", "§4 analysis",
            "rank placement: avoided vs incurred contention on the "
            "edge-core GigE stress fabric, predicted and simulated",
            table_placement.run,
        ),
    ]
}


def run_experiment(
    exp_id: str, scale: str = "default", *, seed: int = 0
) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        spec = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None
    return spec.runner(scale, seed=seed)
