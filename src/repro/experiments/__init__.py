"""The paper's figures and tables as runnable experiments.

The experiment ↔ paper mapping is :data:`.registry.EXPERIMENTS`; the
three §8 networks whose fit, surface and error figures it binds are the
rows of :data:`.validation.TESTBEDS`.
"""

from .common import SCALES, ExperimentResult, Scale
from .registry import EXPERIMENTS, ExperimentSpec, run_experiment

__all__ = [
    "SCALES",
    "ExperimentResult",
    "Scale",
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_experiment",
]
