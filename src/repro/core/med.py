"""Message exchange digraph (MED) — the paper's §5 formalism.

The total exchange problem is described by a weighted digraph
``dG(V, E)`` whose vertices are processes and whose arcs carry the size
of the message to send.  This module provides the digraph (an int64
weight matrix plus a boolean arc mask), the degree/bandwidth quantities
the lower bounds need, and constructors for the regular All-to-All plus
arbitrary (alltoallv-style) personalised exchanges.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MED"]


class MED:
    """A message exchange digraph.

    Arc ``(i, j)`` with weight ``w`` means process *i* must send *w*
    bytes to process *j*.  Self-loops are excluded (a process's message
    to itself never crosses the network — paper §5 counts n data items
    per process "including itself" but the wire bounds only involve the
    other n-1).  An arc may weigh zero bytes: it still costs a start-up,
    so it counts in the degrees.
    """

    def __init__(self, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._weights = np.zeros((n_processes, n_processes), dtype=np.int64)
        self._arcs = np.zeros((n_processes, n_processes), dtype=bool)

    # -- constructors ----------------------------------------------------

    @classmethod
    def alltoall(cls, n_processes: int, msg_size: int) -> "MED":
        """Regular All-to-All: every ordered pair exchanges *msg_size*."""
        if msg_size < 0:
            raise ValueError("msg_size must be >= 0")
        med = cls(n_processes)
        med._arcs = ~np.eye(n_processes, dtype=bool)
        med._weights[med._arcs] = msg_size
        return med

    @classmethod
    def from_matrix(cls, weights) -> "MED":
        """Personalised exchange from a (n, n) weight matrix (diag ignored).

        Every positive off-diagonal entry is an arc, its weight truncated
        to whole bytes (so a fractional entry below 1 is a zero-byte arc).
        """
        W = np.asarray(weights)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weights must be a square matrix")
        med = cls(W.shape[0])
        med._arcs = W > 0
        np.fill_diagonal(med._arcs, False)
        med._weights[med._arcs] = W[med._arcs].astype(np.int64)
        return med

    # -- mutation ----------------------------------------------------------

    def add_message(self, src: int, dst: int, nbytes: int) -> None:
        """Add (or accumulate onto) the arc src -> dst."""
        self._check_vertex(src)
        self._check_vertex(dst)
        if src == dst:
            raise ValueError("self-messages are not part of a MED")
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        self._weights[src, dst] += nbytes
        self._arcs[src, dst] = True

    def _check_vertex(self, node: int) -> None:
        if not 0 <= node < self.n_processes:
            raise ValueError(
                f"no process {node} in a MED of {self.n_processes} processes"
            )

    # -- queries -----------------------------------------------------------

    @property
    def n_processes(self) -> int:
        """Number of vertices."""
        return len(self._weights)

    @property
    def n_messages(self) -> int:
        """Number of arcs."""
        return int(self._arcs.sum())

    @property
    def arcs(self) -> np.ndarray:
        """Read-only (n, n) boolean mask of the arcs (zero-byte ones too)."""
        view = self._arcs.view()
        view.flags.writeable = False
        return view

    def weight(self, src: int, dst: int) -> int:
        """Bytes to send src -> dst (0 when no arc)."""
        self._check_vertex(src)
        self._check_vertex(dst)
        return int(self._weights[src, dst])

    def out_degree(self, node: int) -> int:
        """Δs(p): number of distinct destinations of *node*."""
        self._check_vertex(node)
        return int(self._arcs[node].sum())

    def in_degree(self, node: int) -> int:
        """Δr(p): number of distinct sources of *node*."""
        self._check_vertex(node)
        return int(self._arcs[:, node].sum())

    @property
    def max_out_degree(self) -> int:
        """Δs = max over processes of the out-degree."""
        return int(self._arcs.sum(axis=1).max())

    @property
    def max_in_degree(self) -> int:
        """Δr = max over processes of the in-degree."""
        return int(self._arcs.sum(axis=0).max())

    def send_bytes(self, node: int) -> int:
        """Total bytes *node* must send (Σ_j w_{node,j})."""
        self._check_vertex(node)
        return int(self._weights[node].sum())

    def recv_bytes(self, node: int) -> int:
        """Total bytes *node* must receive (Σ_i w_{i,node})."""
        self._check_vertex(node)
        return int(self._weights[:, node].sum())

    @property
    def max_send_bytes(self) -> int:
        """max_i Σ_j w_{i,j} — the ts bottleneck numerator."""
        return int(self._weights.sum(axis=1).max())

    @property
    def max_recv_bytes(self) -> int:
        """max_j Σ_i w_{i,j} — the tr bottleneck numerator."""
        return int(self._weights.sum(axis=0).max())

    def is_regular_alltoall(self) -> bool:
        """Whether this MED is a complete digraph with uniform weights."""
        n = self.n_processes
        if self.n_messages != n * (n - 1):
            return False
        return np.unique(self._weights[self._arcs]).size <= 1

    def to_matrix(self) -> np.ndarray:
        """Dense (n, n) weight matrix with zero diagonal (a copy)."""
        return self._weights.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MED(n={self.n_processes}, messages={self.n_messages})"
