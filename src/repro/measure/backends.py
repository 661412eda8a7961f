"""Measurement backends: simulator (default) and optional mpi4py.

The measurement pipeline is backend-agnostic: a backend provides raw
timing primitives (one-way point-to-point times and All-to-All
completion times).  The simulator backend wraps the modules in this
package; the mpi4py backend runs the same probes on a *real* cluster
when ``mpi4py`` is importable and the script is launched under
``mpiexec``, in place of the simulated clusters of :mod:`repro.simnet`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..clusters.profiles import ClusterProfile
from ..exceptions import BackendUnavailableError
from ..registry import BACKENDS, register_backend
from .alltoall import measure_alltoall
from .pingpong import measure_pingpong

__all__ = ["SimBackend", "Mpi4pyBackend", "get_backend"]


@dataclass(frozen=True)
class SimBackend:
    """Timing primitives measured on the fluid simulator."""

    cluster: ClusterProfile

    @property
    def name(self) -> str:
        return f"sim:{self.cluster.name}"

    def pingpong_times(self, sizes, *, reps: int = 5, seed: int = 0) -> np.ndarray:
        """Mean one-way time per size."""
        result = measure_pingpong(self.cluster, sizes, reps=reps, seed=seed)
        return result.one_way_times

    def alltoall_time(
        self, n_processes: int, msg_size: int, *, reps: int = 3, seed: int = 0
    ) -> float:
        """Mean completion time of one All-to-All point."""
        sample = measure_alltoall(
            self.cluster, n_processes, msg_size, reps=reps, seed=seed
        )
        return sample.mean_time


class Mpi4pyBackend:
    """Timing primitives measured with mpi4py on a live cluster.

    Only usable when mpi4py is installed and the process group was
    launched with an MPI launcher.  The probes mirror the paper exactly:
    ``MPI_Alltoall`` on byte buffers, barrier-synchronised, max-reduced.
    """

    def __init__(self) -> None:
        try:
            from mpi4py import MPI  # noqa: PLC0415 - optional dependency
        except ImportError as exc:
            raise BackendUnavailableError(
                "mpi4py is not installed; use SimBackend or install "
                "repro[mpi] and launch under mpiexec"
            ) from exc
        self._mpi = MPI
        self.comm = MPI.COMM_WORLD

    @property
    def name(self) -> str:
        return f"mpi4py:{self.comm.Get_size()}procs"

    def pingpong_times(self, sizes, *, reps: int = 5, seed: int = 0) -> np.ndarray:
        """Mean one-way time per size between ranks 0 and 1."""
        MPI = self._mpi
        comm = self.comm
        rank = comm.Get_rank()
        # Materialise once: a generator argument would be exhausted by
        # len(list(...)) and then yield zero measurements.
        sizes = [int(size) for size in sizes]
        out = np.zeros(len(sizes))
        for idx, size in enumerate(sizes):
            buf = np.zeros(int(size), dtype=np.uint8)
            times = []
            for _ in range(reps):
                comm.Barrier()
                start = time.perf_counter()
                if rank == 0:
                    comm.Send([buf, MPI.BYTE], dest=1, tag=1)
                    comm.Recv([buf, MPI.BYTE], source=1, tag=2)
                elif rank == 1:
                    comm.Recv([buf, MPI.BYTE], source=0, tag=1)
                    comm.Send([buf, MPI.BYTE], dest=0, tag=2)
                times.append((time.perf_counter() - start) / 2.0)
            out[idx] = float(np.mean(times))
        return np.asarray(comm.bcast(out if rank == 0 else None, root=0))

    def alltoall_time(
        self, n_processes: int, msg_size: int, *, reps: int = 3, seed: int = 0
    ) -> float:
        """Mean barrier-synchronised MPI_Alltoall time (max over ranks)."""
        MPI = self._mpi
        comm = self.comm
        size = comm.Get_size()
        if n_processes != size:
            raise BackendUnavailableError(
                f"live run has {size} ranks; requested {n_processes}"
            )
        send = np.zeros(size * msg_size, dtype=np.uint8)
        recv = np.zeros_like(send)
        samples = []
        for _ in range(reps):
            comm.Barrier()
            start = time.perf_counter()
            comm.Alltoall([send, MPI.BYTE], [recv, MPI.BYTE])
            local = time.perf_counter() - start
            samples.append(comm.allreduce(local, op=MPI.MAX))
        return float(np.mean(samples))


@register_backend("sim", aliases=("simulator",))
def _make_sim_backend(cluster: ClusterProfile | None = None) -> SimBackend:
    if cluster is None:
        raise ValueError("sim backend requires a cluster profile")
    return SimBackend(cluster)


@register_backend("mpi4py", aliases=("mpi",))
def _make_mpi4py_backend(cluster: ClusterProfile | None = None) -> Mpi4pyBackend:
    return Mpi4pyBackend()


def get_backend(kind: str, cluster: ClusterProfile | None = None):
    """Backend factory, resolved through the backend registry.

    Built-ins: ``"sim"`` (needs a cluster) and ``"mpi4py"``; register
    additional backends with ``@repro.api.register_backend``.  Unknown
    kinds raise :class:`~repro.exceptions.UnknownNameError` (a
    ``ValueError``, as this function always raised).
    """
    return BACKENDS.get(kind)(cluster)
