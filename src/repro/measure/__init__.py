"""Measurement harness: ping-pong, stress flood, All-to-All timing."""

from .alltoall import measure_alltoall, sweep_grid
from .backends import Mpi4pyBackend, SimBackend, get_backend
from .pingpong import (
    PingPongResult,
    hockney_from_pingpong,
    measure_pingpong,
)
from .pipeline import (
    DEFAULT_SAMPLE_SIZES,
    Characterization,
    characterize_cluster,
)
from .stress import StressRun, StressSweep, run_stress, stress_sweep

__all__ = [
    "measure_alltoall",
    "sweep_grid",
    "Mpi4pyBackend",
    "SimBackend",
    "get_backend",
    "PingPongResult",
    "hockney_from_pingpong",
    "measure_pingpong",
    "DEFAULT_SAMPLE_SIZES",
    "Characterization",
    "characterize_cluster",
    "StressRun",
    "StressSweep",
    "run_stress",
    "stress_sweep",
]
