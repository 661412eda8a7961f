"""MPI-like simulated runtime (substrate).

Replaces LAM-MPI/MPICH on the paper's clusters; the stack behaviour it
models is listed in :mod:`.transport`.
"""

from .collectives import (
    ALLTOALLV_VARIANTS,
    MATRIX_ALGORITHMS,
    alltoall_bruck,
    alltoall_direct,
    alltoall_ring,
    alltoall_rounds,
    alltoallv_direct,
    alltoallv_rounds,
)
from .lowering import (
    ANY_SOURCE,
    ANY_TAG,
    LoweredProgram,
    RankContext,
    Segment,
    lower_program,
)
from .protocol import ProtocolReplay, RunResult
from .runtime import RankProgram, Runtime
from .transport import TransportParams

__all__ = [
    "ALLTOALLV_VARIANTS",
    "MATRIX_ALGORITHMS",
    "alltoall_bruck",
    "alltoall_direct",
    "alltoall_ring",
    "alltoall_rounds",
    "alltoallv_direct",
    "alltoallv_rounds",
    "LoweredProgram",
    "Segment",
    "lower_program",
    "ANY_SOURCE",
    "ANY_TAG",
    "ProtocolReplay",
    "RankContext",
    "RankProgram",
    "RunResult",
    "Runtime",
    "TransportParams",
]
