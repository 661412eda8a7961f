"""Lowering: compile rank programs into static phase schedules.

The reference interpreter (:class:`repro.simmpi.runtime.Runtime`) drives
every rank's generator step by step, matching sends to receives with
runtime queues.  For the collectives this repo studies that generality
is unused: the communication structure of ``direct``, ``rounds``,
``bruck``, ``ring`` and the ``alltoallv_*`` variants depends only on
``(n, msg_size/matrix)`` — never on wildcards, message contents, or the
simulation clock.  This module exploits that: it *records* one dry run
of each rank's generator and emits a :class:`LoweredProgram`, a static
schedule of

* **messages** — one int64 column per field (``src``, ``dst``, ``tag``,
  ``nbytes``, ``seq``, ``send_segment``, ``recv_segment``), indexed by
  message id (send order).  Each send is paired with its receive at
  compile time: the runtime's FIFO matching reduces to positional
  pairing when both sides use concrete source/tag keys and delivery is
  per-pair in-order, so the k-th send of a (src, dst, tag) class pairs
  with the k-th receive of that class.  One stable ``np.lexsort`` per
  side lines the classes up;
* **segments** — the spans of each rank's program between ``yield``
  points, each with its ordered operation list and the *gate* (the set
  of requests the yield blocks on) that must complete before the next
  segment posts.

Recording appends to flat per-field lists; no per-message object is
built beyond the operation and gate tuples the segments carry.

Segment k+1 of a rank depends on gate k; a message edges from its send
segment on the source rank to its receive segment on the destination —
together these are the phase dependency graph that batched engines
(:mod:`repro.simnet.vector`) execute without ever resuming a Python
generator mid-simulation.

Programs whose behaviour cannot be known statically — wildcard receives
(``ANY_SOURCE``/``ANY_TAG``), reads of ``ctx.now``, or send/receive
counts that do not pair up — raise :class:`~repro.exceptions.LoweringError`;
callers fall back to the reference interpreter for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable

import numpy as np

from ..exceptions import LoweringError
from .request import ANY_SOURCE, ANY_TAG

__all__ = [
    "Segment",
    "LoweredProgram",
    "lower_program",
]


@dataclass(frozen=True)
class Segment:
    """One span of a rank's program between two yields.

    ``ops`` is the ordered list of operations the span executes:
    ``("send", mid)``, ``("recv", mid)`` or ``("copy", nbytes)``.  The
    op order is semantically load-bearing — it fixes per-pair sequence
    numbers, jitter draws and submit-queue arrival order.  ``gate`` is
    the tuple of ``(kind, mid)`` requests the terminating yield blocks
    on, or ``None`` for the trailing segment (program runs to
    ``StopIteration``).
    """

    rank: int
    index: int
    ops: tuple[tuple, ...]
    gate: tuple[tuple[str, int], ...] | None


@dataclass(frozen=True, eq=False)
class LoweredProgram:
    """A rank program compiled to a static phase schedule.

    Message columns are read-only int64 arrays indexed by message id.
    ``seq`` is the per-ordered-pair (src, dst) sequence number — the
    same numbering the runtime uses for its non-overtaking guarantee.
    Messages with ``src == dst`` are *local*: they never touch the wire
    and model the rank's message to itself.
    """

    nprocs: int
    src: np.ndarray
    dst: np.ndarray
    tag: np.ndarray
    nbytes: np.ndarray
    seq: np.ndarray
    send_segment: np.ndarray
    recv_segment: np.ndarray
    segments: tuple[tuple[Segment, ...], ...]  # [rank][segment index]

    @property
    def n_messages(self) -> int:
        """Number of matched messages (wire and local)."""
        return len(self.src)

    @property
    def local(self) -> np.ndarray:
        """Boolean mask of local (self-addressed) messages."""
        return self.src == self.dst

    @property
    def n_phases(self) -> int:
        """Largest segment count over all ranks (phases of the schedule)."""
        return max(len(segs) for segs in self.segments)

    def flow_matrix(self, phase: int) -> np.ndarray:
        """(n, n) byte matrix of messages *posted* in segment *phase*.

        Row = source rank, column = destination; the diagonal holds
        local self-copies posted in that phase.  Ranks with fewer
        segments than *phase* contribute nothing.
        """
        matrix = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        posted = self.send_segment == phase
        np.add.at(matrix, (self.src[posted], self.dst[posted]), self.nbytes[posted])
        return matrix

    def dependency_edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Cross-rank dependency edges ``((src, send_seg), (dst, recv_seg))``.

        Together with the implicit intra-rank chain (segment k+1 waits
        on gate k) these are the full dependency structure of the
        schedule.
        """
        remote = ~self.local
        return [
            ((src, send_seg), (dst, recv_seg))
            for src, send_seg, dst, recv_seg in zip(
                self.src[remote].tolist(),
                self.send_segment[remote].tolist(),
                self.dst[remote].tolist(),
                self.recv_segment[remote].tolist(),
            )
        ]

    def describe(self) -> str:
        """One-line shape summary."""
        local = int(np.count_nonzero(self.local))
        return (
            f"{self.nprocs} ranks, {self.n_phases} phases, "
            f"{self.n_messages - local} wire messages, {local} local copies"
        )


class _SendToken:
    """What a recorded ``isend`` returns: its gate entry ``("send", mid)``."""

    __slots__ = ("entry",)

    def __init__(self, mid: int) -> None:
        self.entry = ("send", mid)


class _RecvToken:
    """What a recorded ``irecv`` returns; ``entry`` is set once matched."""

    __slots__ = ("entry",)

    def __init__(self) -> None:
        self.entry: tuple[str, int] | None = None


class _RecordingContext:
    """Stand-in for :class:`~repro.simmpi.runtime.RankContext` that records."""

    def __init__(self, recorder: "_Recorder", rank: int) -> None:
        self._recorder = recorder
        self.rank = rank

    @property
    def size(self) -> int:
        return self._recorder.nprocs

    def isend(self, dst: int, nbytes: int, *, tag: int = 0) -> _SendToken:
        return self._recorder.record_send(self.rank, int(dst), int(nbytes), int(tag))

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> _RecvToken:
        return self._recorder.record_recv(self.rank, int(src), int(tag))

    def sendrecv(
        self, dst: int, nbytes: int, src: int, *, tag: int = 0
    ) -> Generator[Any, None, _RecvToken]:
        send_tok = self.isend(dst, nbytes, tag=tag)
        recv_tok = self.irecv(src, tag=tag)
        yield [send_tok, recv_tok]
        return recv_tok

    def local_copy(self, nbytes: int) -> None:
        self._recorder.record_copy(int(nbytes))

    @property
    def now(self) -> float:
        raise LoweringError(
            "rank program reads ctx.now: time-dependent programs cannot "
            "be lowered to a static schedule (use the fluid engine)"
        )


class _Recorder:
    """Flat per-field columns of the operations recorded so far.

    Ranks are recorded one after another, so message ids follow send
    order and receive ids follow post order within each rank.
    ``segment`` is the current rank's span index (its yield count).
    Span op lists hold the tokens themselves for sends and receives and
    ``("copy", nbytes)`` tuples for copies; tokens become their gate
    entries once the receives are matched.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.send_src: list[int] = []
        self.send_dst: list[int] = []
        self.send_tag: list[int] = []
        self.send_nbytes: list[int] = []
        self.send_seq: list[int] = []
        self.send_segment: list[int] = []
        self.recv_src: list[int] = []
        self.recv_dst: list[int] = []
        self.recv_tag: list[int] = []
        self.recv_segment: list[int] = []
        self.recv_tokens: list[_RecvToken] = []
        self.segment = 0
        self._next_seq: dict[int, int] = {}  # dst -> next seq of this rank
        self._current_ops: list = []

    def start_rank(self) -> None:
        self.segment = 0
        self._next_seq = {}

    def record_send(self, rank: int, dst: int, nbytes: int, tag: int) -> _SendToken:
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        if not 0 <= dst < self.nprocs:
            raise ValueError(f"destination rank {dst} out of range")
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        token = _SendToken(len(self.send_src))
        self.send_src.append(rank)
        self.send_dst.append(dst)
        self.send_tag.append(tag)
        self.send_nbytes.append(nbytes)
        self.send_seq.append(seq)
        self.send_segment.append(self.segment)
        self._current_ops.append(token)
        return token

    def record_recv(self, rank: int, src: int, tag: int) -> _RecvToken:
        if src == ANY_SOURCE or tag == ANY_TAG:
            raise LoweringError(
                "rank program posts a wildcard receive (ANY_SOURCE/ANY_TAG): "
                "its matching depends on runtime arrival order and cannot "
                "be lowered (use the fluid engine)"
            )
        if not 0 <= src < self.nprocs:
            raise ValueError(f"source rank {src} out of range")
        token = _RecvToken()
        self.recv_src.append(src)
        self.recv_dst.append(rank)
        self.recv_tag.append(tag)
        self.recv_segment.append(self.segment)
        self.recv_tokens.append(token)
        self._current_ops.append(token)
        return token

    def record_copy(self, nbytes: int) -> None:
        self._current_ops.append(("copy", nbytes))

    def take_ops(self) -> list:
        ops = self._current_ops
        self._current_ops = []
        self.segment += 1
        return ops


def _as_tokens(yielded: Any) -> list:
    """Mirror ``Runtime._as_requests`` for recorded tokens."""
    if isinstance(yielded, (_SendToken, _RecvToken)):
        return [yielded]
    if isinstance(yielded, Iterable):
        tokens = list(yielded)
        if not all(isinstance(t, (_SendToken, _RecvToken)) for t in tokens):
            raise TypeError("programs must yield Request objects")
        return tokens
    raise TypeError(
        f"programs must yield Request or iterable of Request, got {yielded!r}"
    )


def _class_order(src: np.ndarray, dst: np.ndarray, tag: np.ndarray) -> np.ndarray:
    """Stable order grouping (src, dst, tag) classes, FIFO within each."""
    return np.lexsort((tag, dst, src))


def _unmatched_error(send_keys: np.ndarray, recv_keys: np.ndarray) -> LoweringError:
    """Describe the first (src, dst, tag) class whose counts differ."""
    sends, send_counts = np.unique(send_keys, axis=0, return_counts=True)
    recvs, recv_counts = np.unique(recv_keys, axis=0, return_counts=True)
    count_of = {tuple(k): [int(c), 0] for k, c in zip(sends.tolist(), send_counts)}
    for key, count in zip(recvs.tolist(), recv_counts):
        count_of.setdefault(tuple(key), [0, 0])[1] = int(count)
    for (src, dst, tag), (n_send, n_recv) in sorted(count_of.items()):
        if n_send != n_recv:
            return LoweringError(
                f"unmatched traffic {src}->{dst} tag={tag}: "
                f"{n_send} send(s) vs {n_recv} receive(s) "
                "(the reference runtime would deadlock)"
            )
    raise AssertionError("class counts agree")  # pragma: no cover


def lower_program(
    program, nprocs: int, *args: Any, **kwargs: Any
) -> LoweredProgram:
    """Compile *program* at *nprocs* ranks into a :class:`LoweredProgram`.

    The program is called exactly as the runtime would call it —
    ``program(ctx, *args, **kwargs)`` per rank — against a recording
    context.  Raises :class:`~repro.exceptions.LoweringError` for
    programs that cannot be scheduled statically, and mirrors the
    runtime's :class:`ValueError`/:class:`TypeError` contracts for
    malformed programs.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    recorder = _Recorder(nprocs)
    raw_segments: list[list[tuple]] = []  # [rank] -> [(ops, gate_tokens|None)]
    for rank in range(nprocs):
        ctx = _RecordingContext(recorder, rank)
        recorder.start_rank()
        gen = program(ctx, *args, **kwargs)
        if not isinstance(gen, Generator):
            raise TypeError(
                "rank program must be a generator function "
                f"(got {type(gen).__name__})"
            )
        spans: list[tuple] = []
        while True:
            try:
                yielded = next(gen)
            except StopIteration:
                spans.append((recorder.take_ops(), None))
                break
            spans.append((recorder.take_ops(), _as_tokens(yielded)))
        raw_segments.append(spans)

    def column(values: list[int]) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    src = column(recorder.send_src)
    dst = column(recorder.send_dst)
    tag = column(recorder.send_tag)
    recv_src = column(recorder.recv_src)
    recv_dst = column(recorder.recv_dst)
    recv_tag = column(recorder.recv_tag)

    # Static matching: within each (src, dst, tag) class both sides are
    # FIFO (sends by per-pair seq, receives by post order), so the k-th
    # send pairs with the k-th receive — exactly what the runtime's
    # queue scan produces for concrete keys under in-order delivery.
    # Stable class sorts line both sides up position by position.
    send_order = _class_order(src, dst, tag)
    recv_order = _class_order(recv_src, recv_dst, recv_tag)
    send_keys = np.stack([src, dst, tag], axis=1)[send_order]
    recv_keys = np.stack([recv_src, recv_dst, recv_tag], axis=1)[recv_order]
    if send_keys.shape != recv_keys.shape or not np.array_equal(send_keys, recv_keys):
        raise _unmatched_error(send_keys, recv_keys)
    mid_of_recv = np.empty(len(recv_order), dtype=np.int64)
    mid_of_recv[recv_order] = send_order
    recv_segment = np.empty(len(send_order), dtype=np.int64)
    recv_segment[send_order] = column(recorder.recv_segment)[recv_order]
    for token, mid in zip(recorder.recv_tokens, mid_of_recv.tolist()):
        token.entry = ("recv", mid)

    segments: list[tuple[Segment, ...]] = []
    for rank, spans in enumerate(raw_segments):
        rank_segments = []
        for index, (ops, gate_tokens) in enumerate(spans):
            rank_segments.append(
                Segment(
                    rank=rank,
                    index=index,
                    ops=tuple(
                        op if op.__class__ is tuple else op.entry for op in ops
                    ),
                    gate=(
                        None
                        if gate_tokens is None
                        else tuple(token.entry for token in gate_tokens)
                    ),
                )
            )
        segments.append(tuple(rank_segments))

    columns = {
        "src": src,
        "dst": dst,
        "tag": tag,
        "nbytes": column(recorder.send_nbytes),
        "seq": column(recorder.send_seq),
        "send_segment": column(recorder.send_segment),
        "recv_segment": recv_segment,
    }
    for values in columns.values():
        values.setflags(write=False)
    return LoweredProgram(nprocs=nprocs, segments=tuple(segments), **columns)
