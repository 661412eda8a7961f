"""All-to-all algorithms (rank programs for the simulated runtime).

Implements the paper's Direct Exchange (Algorithm 1) in the two flavours
found in 2006-era MPI libraries, plus two classic baselines:

* :func:`alltoall_direct` — post **all** receives and sends at once, then
  wait for everything (LAM-MPI's basic linear algorithm; this realises the
  paper's premise that "all communications are started simultaneously"
  and is the algorithm measured throughout the evaluation);
* :func:`alltoall_rounds` — the literal Algorithm 1: n-1 rounds of
  ``sendrecv`` with destination rotation ``p_(i+t) mod n`` and blocking at
  each round (MPICH1-style pairwise progression);
* :func:`alltoall_bruck` — Bruck et al.'s log-round algorithm: ⌈log2 n⌉
  rounds exchanging aggregated blocks; latency-optimal, bandwidth-
  suboptimal (each item travels multiple hops);
* :func:`alltoall_ring` — store-and-forward neighbour ring: step s moves
  (n-s) blocks one hop right; the paper's §4 explains why such forwarding
  only wins when latency dominates bandwidth.

The direct and rounds progressions also exist in generalised
*alltoallv* form (:func:`alltoallv_direct`, :func:`alltoallv_rounds`):
they take a full (n, n) byte matrix — per-destination send counts, with
the diagonal as the local self-copy — and realise exactly the arcs of
the corresponding :class:`~repro.core.med.MED` (zero-weight pairs post
no message, as in MPI's alltoallv).  Each rank reads only its own row
(sends) and column (receives), so the uniform scalar algorithms are
thin wrappers handing the shared body the row and column of
``msg_size`` without building the (n, n) matrix: the two paths are
operation-for-operation identical on regular exchanges.  The direct
body posts a rank's receives, then its sends, as two batched posts
(``irecv_many``, ``isend_many``); the other programs post one
operation at a time.  Byte counts — ``msg_size`` and every matrix
entry a rank reads — must be whole, finite and non-negative
(:func:`~repro.simmpi.lowering.byte_count`): a NaN or fractional entry
is rejected, never rounded.

Scalar algorithms take ``(ctx, msg_size)``, alltoallv algorithms take
``(ctx, matrix)``; all are registered in the algorithm registry
(:data:`repro.registry.ALGORITHMS`); add new algorithms with
``@repro.api.register_algorithm("name")`` — no edit here required.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Generator

import numpy as np

from ..registry import register_algorithm
from .lowering import RankContext, byte_count

__all__ = [
    "alltoall_direct",
    "alltoall_rounds",
    "alltoall_bruck",
    "alltoall_ring",
    "alltoallv_direct",
    "alltoallv_rounds",
    "ALLTOALLV_VARIANTS",
    "MATRIX_ALGORITHMS",
    "variant_for",
    "TAG_ALLTOALL",
]

TAG_ALLTOALL = 77


def _rank_row_column(ctx: RankContext, matrix) -> tuple[list, list]:
    """The rank's row and column of a per-pair byte matrix, as int lists.

    Checks the shape against the communicator size, and only the row
    and column this rank reads: every entry is some rank's row, so
    lowering checks each once, O(n²) in all, not O(n³).  Each entry
    must be a whole, finite byte count (:func:`byte_count`) and >= 0.
    """
    W = np.asarray(matrix)
    n, me = ctx.size, ctx.rank
    if W.ndim != 2 or W.shape != (n, n):
        raise ValueError(
            f"alltoallv needs an ({n}, {n}) byte matrix, got shape {W.shape}"
        )
    outbound, inbound = W[me], W[:, me]
    floats = W.dtype.kind == "f"
    if floats:
        entries = np.concatenate((outbound, inbound))
        whole = np.isfinite(entries) & (entries == np.trunc(entries))
        if not whole.all():
            byte_count(entries[~whole][0])  # raises the byte-count error
    if outbound.min() < 0 or inbound.min() < 0:
        raise ValueError("alltoallv matrix entries must be >= 0")
    outbound, inbound = outbound.tolist(), inbound.tolist()
    if floats:  # whole floats as the exact ints the posts record
        return list(map(int, outbound)), list(map(int, inbound))
    return outbound, inbound


def _uniform_row_column(n: int, msg_size: int) -> tuple[list, list]:
    """A rank's row and column of the regular All-to-All's matrix."""
    row = [byte_count(msg_size)] * n
    return row, row


def _direct_exchange(
    ctx: RankContext, outbound: list, inbound: list
) -> Generator[Any, None, None]:
    """The direct exchange of one rank's row (*outbound*) and column
    (*inbound*): the body of :func:`alltoallv_direct`.

    Round t receives from ``me - t`` and sends to ``me + t``; every
    receive is posted, then every send, each side as one batch that
    skips the zero-byte pairs.  Entries are non-negative ints, so
    nonzero means positive.
    """
    n, me = ctx.size, ctx.rank
    # Round t's destination is peers[t - 1] and its source peers[-t].
    peers = [*range(me + 1, n), *range(me)]
    sizes = outbound[me + 1:] + outbound[:me]
    srcs = list(compress(peers, inbound[me + 1:] + inbound[:me]))[::-1]
    dsts = list(compress(peers, sizes))
    requests = []
    if srcs:
        requests.append(ctx.irecv_many(srcs, tag=TAG_ALLTOALL))
    if dsts:
        requests.append(
            ctx.isend_many(dsts, list(filter(None, sizes)), tag=TAG_ALLTOALL)
        )
    ctx.local_copy(outbound[me])
    if requests:
        yield requests


def _pairwise_rounds(
    ctx: RankContext, outbound: list, inbound: list
) -> Generator[Any, None, None]:
    """The pairwise rounds of one rank's row and column: the body of
    :func:`alltoallv_rounds`."""
    n, me = ctx.size, ctx.rank
    ctx.local_copy(outbound[me])
    for t in range(1, n):
        dst = (me + t) % n
        src = (me - t) % n
        batch = []
        if outbound[dst] > 0:
            batch.append(ctx.isend(dst, outbound[dst], tag=TAG_ALLTOALL + t))
        if inbound[src] > 0:
            batch.append(ctx.irecv(src, tag=TAG_ALLTOALL + t))
        if batch:
            yield batch


@register_algorithm("alltoallv-direct", aliases=("vdirect",))
def alltoallv_direct(ctx: RankContext, matrix) -> Generator[Any, None, None]:
    """Irregular direct exchange: all of the matrix's arcs at once.

    The generalisation of :func:`alltoall_direct` to per-pair byte
    counts: receives are pre-posted, destinations rotate by rank so
    round t pairs ``i -> i+t``, and nothing blocks until every posted
    transfer completes.  Pairs with zero weight exchange no message at
    all (they are not MED arcs); the diagonal is the local self-copy.
    """
    yield from _direct_exchange(ctx, *_rank_row_column(ctx, matrix))


@register_algorithm("alltoallv-rounds", aliases=("vrounds", "vpairwise"))
def alltoallv_rounds(ctx: RankContext, matrix) -> Generator[Any, None, None]:
    """Irregular Algorithm 1: blocking pairwise rounds over matrix arcs.

    Round t exchanges with the rotated pair ``(me+t, me-t)``; a rank
    whose round carries no arc in either direction skips the round
    entirely (no barrier), matching pairwise alltoallv progressions.
    """
    yield from _pairwise_rounds(ctx, *_rank_row_column(ctx, matrix))


@register_algorithm("direct", aliases=("linear",))
def alltoall_direct(
    ctx: RankContext, msg_size: int
) -> Generator[Any, None, None]:
    """Direct exchange, all transfers simultaneous (LAM-style).

    Receives are posted before sends (standard practice: pre-posting
    avoids unexpected-queue traffic), destinations rotate by rank so that
    round t pairs ``i -> i+t`` — but nothing blocks between rounds, so the
    network sees all n-1 outbound messages of every process at once.
    Thin wrapper: runs the body of :func:`alltoallv_direct` on the
    rank's row and column of the uniform matrix, which posts the
    identical operation sequence without building the matrix.
    """
    yield from _direct_exchange(ctx, *_uniform_row_column(ctx.size, msg_size))


@register_algorithm("rounds", aliases=("pairwise",))
def alltoall_rounds(
    ctx: RankContext, msg_size: int
) -> Generator[Any, None, None]:
    """Paper Algorithm 1, literally: blocking sendrecv per round.

    Thin wrapper over the body of :func:`alltoallv_rounds` on the
    rank's row and column of the uniform matrix.
    """
    yield from _pairwise_rounds(ctx, *_uniform_row_column(ctx.size, msg_size))


@register_algorithm("bruck")
def alltoall_bruck(
    ctx: RankContext, msg_size: int
) -> Generator[Any, None, None]:
    """Bruck algorithm: ⌈log2 n⌉ rounds of aggregated block exchange.

    In round k every rank sends, to ``me + 2^k``, the blocks whose
    relative destination offset has bit k set — ``count_k`` blocks of
    *msg_size* bytes each.  Items travel up to ⌈log2 n⌉ hops, trading
    bandwidth for start-ups.
    """
    n, me = ctx.size, ctx.rank
    ctx.local_copy(msg_size)
    if n == 1:
        return
    k = 0
    while (1 << k) < n:
        distance = 1 << k
        count = sum(1 for j in range(1, n) if (j >> k) & 1)
        dst = (me + distance) % n
        src = (me - distance) % n
        send_req = ctx.isend(dst, count * msg_size, tag=TAG_ALLTOALL + k)
        recv_req = ctx.irecv(src, tag=TAG_ALLTOALL + k)
        yield [send_req, recv_req]
        k += 1


@register_algorithm("ring")
def alltoall_ring(
    ctx: RankContext, msg_size: int
) -> Generator[Any, None, None]:
    """Store-and-forward neighbour ring.

    Step s (1..n-1) forwards the (n-s) blocks still in transit one hop to
    the right; blocks destined to the local rank drop out.  Total bytes
    per link: m·n(n-1)/2 — the bandwidth-hostile baseline of §4.
    """
    n, me = ctx.size, ctx.rank
    ctx.local_copy(msg_size)
    right = (me + 1) % n
    left = (me - 1) % n
    for step in range(1, n):
        payload = (n - step) * msg_size
        send_req = ctx.isend(right, payload, tag=TAG_ALLTOALL + step)
        recv_req = ctx.irecv(left, tag=TAG_ALLTOALL + step)
        yield [send_req, recv_req]


#: Scalar algorithm -> its matrix-driven generalisation (canonical
#: names).  The measurement layer lowers pattern-based points through
#: this map; algorithms absent here (bruck, ring — their forwarding
#: schedules assume uniform blocks) reject irregular patterns.
ALLTOALLV_VARIANTS = {
    "direct": "alltoallv-direct",
    "rounds": "alltoallv-rounds",
}

#: Algorithms whose rank programs take an (n, n) byte matrix instead of
#: a scalar msg_size.
MATRIX_ALGORITHMS = frozenset(ALLTOALLV_VARIANTS.values())


def variant_for(algorithm: str, *, irregular: bool) -> str:
    """The canonical program name serving an exchange of the given kind.

    *algorithm* must already be registry-canonical.  Regular exchanges
    return the scalar program; irregular ones lower through
    :data:`ALLTOALLV_VARIANTS` (matrix algorithms pass through).  The
    single source of the compatibility rules — raises :class:`ValueError`
    for unsupported combinations; callers re-wrap in their layer's
    exception type.
    """
    if not irregular:
        if algorithm in MATRIX_ALGORITHMS:
            raise ValueError(
                f"algorithm {algorithm!r} takes a byte matrix; give it an "
                "irregular traffic pattern or use its scalar counterpart"
            )
        return algorithm
    if algorithm in MATRIX_ALGORITHMS:
        return algorithm
    variant = ALLTOALLV_VARIANTS.get(algorithm)
    if variant is None:
        raise ValueError(
            f"algorithm {algorithm!r} has no alltoallv variant; irregular "
            f"patterns support: {', '.join(sorted(ALLTOALLV_VARIANTS))} "
            f"(or {', '.join(sorted(MATRIX_ALGORITHMS))} directly)"
        )
    return variant
