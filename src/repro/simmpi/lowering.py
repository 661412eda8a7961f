"""Lowering: compile rank programs into static phase schedules.

Both engines run a rank program the same way: this module *records*
one dry run of each rank's generator against :class:`RankContext` and
emits a :class:`LoweredProgram`, which the shared protocol replay
(:mod:`repro.simmpi.protocol`) then executes over the engine's network
model.  For the collectives this repo studies, the communication
structure of ``direct``, ``rounds``, ``bruck``, ``ring`` and the
``alltoallv_*`` variants depends only on ``(n, msg_size/matrix)`` —
never on wildcards, message contents, or the simulation clock — so a
static schedule loses nothing.  The schedule is all columns:

* **messages** — one int64 column per field (``src``, ``dst``, ``tag``,
  ``nbytes``, ``seq``, ``send_segment``, ``recv_segment``), indexed by
  message id (send order).  Each send is paired with its receive at
  compile time: MPI's FIFO matching reduces to positional pairing when
  both sides use concrete source/tag keys and delivery is per-pair
  in-order, so the k-th send of a (src, dst, tag) class pairs with the
  k-th receive of that class.  One stable ``np.lexsort`` per side lines
  the classes up;
* **segments** — the spans of each rank's program between ``yield``
  points, numbered rank-major.  Segment *g*'s operations are
  ``op_kind``/``op_arg`` over ``op_ptr[g]:op_ptr[g+1]`` and its *gate*
  (the requests the yield blocks on, which must complete before the
  next segment posts) is ``gate_kind``/``gate_mid`` over
  ``gate_ptr[g]:gate_ptr[g+1]``; rank *r* owns segments
  ``rank_segments[r]:rank_segments[r+1]``.

Recording writes plain ints to typed arrays (:mod:`array`), only what
the op order cannot tell (a send's destination, tag, size and
per-pair seq, a receive's source and tag, a copy's size, each op's
kind, each gate entry); ranks, segment indices and op arguments follow
array-wide from the segment bounds.  A single post (``isend``,
``irecv``) appends one element per column; a batched post
(``isend_many``, ``irecv_many``) checks its whole batch and extends
each column once, and its one request stands for its posts' gate
entries in post order.  The direct exchange posts each rank's
receives and sends as two batches: two posts per rank, not two per
message (a batch still counts per-pair seq one send at a time).  No
per-operation object outlives the program's own request handles.

Segment k+1 of a rank depends on gate k; a message edges from its send
segment on the source rank to its receive segment on the destination —
together these are the phase dependency graph the replay executes
without ever resuming a Python generator mid-simulation.

Programs whose behaviour cannot be known statically raise
:class:`~repro.exceptions.LoweringError`: wildcard receives
(``ANY_SOURCE``/``ANY_TAG``), reads of ``ctx.now``, reads of a
receive's status (``source``, ``tag``, ``nbytes``), send/receive counts
that do not pair up, and waits on a request another rank posted.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import LoweringError

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "OP_SEND",
    "OP_RECV",
    "OP_COPY",
    "RankContext",
    "Segment",
    "byte_count",
    "LoweredProgram",
    "lower_program",
]

#: Wildcard source and tag for :meth:`RankContext.irecv`.  Matching is
#: static, so posting either raises :class:`~repro.exceptions.LoweringError`.
ANY_SOURCE = -1
ANY_TAG = -1

#: Operation kinds of the ``op_kind`` column; gates use the first two.
#: ``op_arg`` holds the message id of a send or receive and the byte
#: count of a local copy.
OP_SEND = 0
OP_RECV = 1
OP_COPY = 2

_KIND_NAMES = ("send", "recv", "copy")


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

    Every field but ``nprocs`` is a read-only NumPy column.  Message
    columns are int64 and indexed by message id.  ``seq`` is the
    per-ordered-pair (src, dst) sequence number — the numbering the
    replay uses for its non-overtaking guarantee.  Messages with
    ``src == dst`` are *local*: they never touch the wire and model the
    rank's message to itself.  The segment columns are CSR over the
    rank-major segment numbering (see the module docstring);
    :attr:`segments` shows them as :class:`Segment` objects.
    """

    nprocs: int
    src: np.ndarray
    dst: np.ndarray
    tag: np.ndarray
    nbytes: np.ndarray
    seq: np.ndarray
    send_segment: np.ndarray
    recv_segment: np.ndarray
    rank_segments: np.ndarray  # (nprocs + 1,)
    op_ptr: np.ndarray  # (n_segments + 1,)
    op_kind: np.ndarray  # int8, OP_SEND / OP_RECV / OP_COPY
    op_arg: np.ndarray
    gate_ptr: np.ndarray  # (n_segments + 1,)
    gate_kind: np.ndarray  # int8, OP_SEND / OP_RECV
    gate_mid: np.ndarray

    @property
    def n_messages(self) -> int:
        """Number of matched messages (wire and local)."""
        return len(self.src)

    @property
    def n_segments(self) -> int:
        """Number of segments over all ranks."""
        return len(self.op_ptr) - 1

    @property
    def local(self) -> np.ndarray:
        """Boolean mask of local (self-addressed) messages."""
        return self.src == self.dst

    @property
    def n_phases(self) -> int:
        """Largest segment count over all ranks (phases of the schedule)."""
        return int(np.diff(self.rank_segments).max())

    @property
    def segments(self) -> tuple[tuple[Segment, ...], ...]:
        """The schedule as ``[rank][segment index]`` :class:`Segment` objects.

        Built from the columns on every access, for inspection and
        tests; the replay reads the columns.
        """
        bounds = self.rank_segments.tolist()
        op_ptr = self.op_ptr.tolist()
        gate_ptr = self.gate_ptr.tolist()
        ops = [
            (_KIND_NAMES[kind], arg)
            for kind, arg in zip(self.op_kind.tolist(), self.op_arg.tolist())
        ]
        gates = [
            (_KIND_NAMES[kind], mid)
            for kind, mid in zip(self.gate_kind.tolist(), self.gate_mid.tolist())
        ]
        return tuple(
            tuple(
                Segment(
                    rank=rank,
                    index=g - bounds[rank],
                    ops=tuple(ops[op_ptr[g]:op_ptr[g + 1]]),
                    gate=(
                        None
                        if g == bounds[rank + 1] - 1
                        else tuple(gates[gate_ptr[g]:gate_ptr[g + 1]])
                    ),
                )
                for g in range(bounds[rank], bounds[rank + 1])
            )
            for rank in range(self.nprocs)
        )

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


def _whole(value, what: str) -> int:
    """*value* as an int: ValueError naming it unless it is a whole, finite
    number (an int, a NumPy integer or an integral float).

    The one check of every rank and tag lowering reads, in single and
    batched posts alike, and under :func:`byte_count`'s sign check of
    every size.  A fractional rank, tag or size would lower as another
    one, and a NaN or infinite one as none, so none is rounded.
    """
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan
        whole = None
    if whole != value:
        raise ValueError(f"a {what} must be a whole, finite number, got {value!r}")
    return whole


def byte_count(nbytes) -> int:
    """*nbytes* as an int: ValueError unless it is a whole, finite number >= 0.

    The one check of every byte count lowering reads: a post's size, a
    local copy's size and, in :mod:`~repro.simmpi.collectives`, each
    entry of a rank's row and column of the byte matrix.
    """
    count = _whole(nbytes, "byte count")
    if count < 0:
        raise ValueError("message size must be >= 0")
    return count


class _Request:
    """What a recorded post returns: its ``count`` gate entries.

    A send's gate entry is ``mid << 1`` and a receive's ``index << 1 | 1``
    (its post index).  A batch's posts are consecutive, so its entries
    are ``code``, ``code + 2``, … in post order; a single post has one.
    """

    __slots__ = ("code", "count")

    def __init__(self, code: int, count: int = 1) -> None:
        self.code = code
        self.count = count

    def __getattr__(self, name: str):
        if name in ("source", "tag", "nbytes") and self.code & 1:
            raise LoweringError(
                f"rank program reads a receive's status ({name}): matching "
                "is static, so a receive's status is unknown while the "
                "program is recorded"
            )
        raise AttributeError(name)


class RankContext:
    """Per-rank API visible to programs (an MPI communicator analogue).

    Each call records operations of the rank's static schedule; the
    returned requests are what the program yields to block on them.
    A batched post (:meth:`isend_many`, :meth:`irecv_many`) records the
    operations of the single posts it stands for, in order, with the
    same checks, and returns one request for all of them.
    """

    def __init__(self, recorder: "_Recorder", rank: int) -> None:
        self._recorder = recorder
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self._recorder.nprocs

    def isend(self, dst: int, nbytes: int, *, tag: int = 0) -> _Request:
        """Post a nonblocking send of *nbytes* to rank *dst*.

        The rank, size and tag must be whole, finite numbers; a
        fractional or non-finite one raises :class:`ValueError`.
        """
        return self._recorder.record_send(dst, nbytes, tag)

    def isend_many(
        self, dsts: Sequence[int], nbytes: Sequence[int], *, tag: int = 0
    ) -> _Request:
        """Post ``isend(dsts[i], nbytes[i], tag=tag)`` for each *i*, in order.

        One request covers every send; a batch with a bad entry posts
        nothing and raises the error that entry's :meth:`isend` raises.
        """
        return self._recorder.record_sends(dsts, nbytes, tag)

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> _Request:
        """Post a nonblocking receive from *src* with *tag*.

        The wildcard defaults raise :class:`~repro.exceptions.LoweringError`,
        and a fractional or non-finite rank or tag :class:`ValueError`.
        """
        return self._recorder.record_recv(src, tag)

    def irecv_many(self, srcs: Sequence[int], *, tag: int = ANY_TAG) -> _Request:
        """Post ``irecv(src, tag=tag)`` for each of the ranks *srcs*, in order.

        One request covers every receive, and reading its status raises
        as a single receive's does; a batch with a bad entry posts
        nothing and raises the error that entry's :meth:`irecv` raises.
        """
        return self._recorder.record_recvs(srcs, tag)

    def sendrecv(
        self, dst: int, nbytes: int, src: int, *, tag: int = 0
    ) -> Generator[Any, None, _Request]:
        """Blocking combined send+receive (one Algorithm-1 round)."""
        send_tok = self.isend(dst, nbytes, tag=tag)
        recv_tok = self.irecv(src, tag=tag)
        yield [send_tok, recv_tok]
        return recv_tok

    def local_copy(self, nbytes: int) -> None:
        """Account for the rank's message to itself (never hits the wire)."""
        self._recorder.record_copy(byte_count(nbytes))

    @property
    def now(self) -> float:
        """Unavailable: reading the clock raises LoweringError."""
        raise LoweringError(
            "rank program reads ctx.now: time-dependent programs cannot "
            "be lowered to a static schedule, which both engines replay"
        )


class _Recorder:
    """Typed-array columns of the operations recorded so far.

    Ranks are recorded one after another, so message ids follow send
    order, receive indices follow post order, and segments are numbered
    rank-major.  Only what the op order cannot tell is recorded per
    operation; :func:`lower_program` derives the rest array-wide.  A
    batched post checks its whole batch and then extends each column
    once.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.dst = array("q")
        self.tag = array("q")
        self.nbytes = array("q")
        self.seq = array("q")
        self.recv_src = array("q")
        self.recv_tag = array("q")
        self.copy_nbytes = array("q")
        self.op_kind = array("b")
        self.op_ptr = array("q", [0])
        self.gate_code = array("q")
        self.gate_ptr = array("q", [0])
        self.rank_segments = array("q", [0])
        self._next_seq: dict[int, int] = {}  # dst -> next seq of this rank

    def start_rank(self) -> None:
        self._next_seq = {}

    def end_rank(self) -> None:
        self.rank_segments.append(len(self.op_ptr) - 1)

    def _checked_send(self, dst, nbytes) -> tuple[int, int]:
        """A send's checks after its tag's; returns its rank and size."""
        dst = _whole(dst, "rank")
        nbytes = byte_count(nbytes)
        if not 0 <= dst < self.nprocs:
            raise ValueError(f"destination rank {dst} out of range")
        return dst, nbytes

    def _checked_recv(self, src, tag: int) -> int:
        """A receive's checks after its tag's; returns its rank."""
        src = _whole(src, "rank")
        if src == ANY_SOURCE or tag == ANY_TAG:
            raise LoweringError(
                "rank program posts a wildcard receive (ANY_SOURCE/ANY_TAG): "
                "its matching depends on arrival order, and both engines "
                "match statically"
            )
        if not 0 <= src < self.nprocs:
            raise ValueError(f"source rank {src} out of range")
        return src

    def record_send(self, dst, nbytes, tag) -> _Request:
        tag = _whole(tag, "tag")
        dst, nbytes = self._checked_send(dst, nbytes)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        request = _Request(len(self.dst) << 1)
        self.dst.append(dst)
        self.tag.append(tag)
        self.nbytes.append(nbytes)
        self.seq.append(seq)
        self.op_kind.append(OP_SEND)
        return request

    def record_sends(self, dsts, sizes, tag) -> _Request:
        tag = _whole(tag, "tag")
        count = len(dsts)
        if len(sizes) != count:
            raise ValueError(
                f"isend_many needs one size per destination, got {len(sizes)} "
                f"sizes for {count} destinations"
            )
        try:
            ranks, nbytes = array("q", dsts), array("q", sizes)
        except TypeError:  # a float or another non-int rank or size
            ranks = None
        if ranks is None or (
            count and (min(ranks) < 0 or max(ranks) >= self.nprocs or min(nbytes) < 0)
        ):
            # The single posts' checks, in post order, raise the first error.
            ranks, nbytes = (
                array("q", column) for column in zip(*map(self._checked_send, dsts, sizes))
            )
        request = _Request(len(self.dst) << 1, count)
        next_seq, seqs = self._next_seq, self.seq
        for dst in ranks:
            seq = next_seq.get(dst, 0)
            next_seq[dst] = seq + 1
            seqs.append(seq)
        self.dst.extend(ranks)
        self.tag.extend(array("q", [tag]) * count)
        self.nbytes.extend(nbytes)
        self.op_kind.frombytes(bytes([OP_SEND]) * count)
        return request

    def record_recv(self, src, tag) -> _Request:
        tag = _whole(tag, "tag")
        src = self._checked_recv(src, tag)
        request = _Request(len(self.recv_src) << 1 | 1)
        self.recv_src.append(src)
        self.recv_tag.append(tag)
        self.op_kind.append(OP_RECV)
        return request

    def record_recvs(self, srcs, tag) -> _Request:
        tag = _whole(tag, "tag")
        try:
            ranks = array("q", srcs)
        except TypeError:  # a float or another non-int rank
            ranks = None
        if ranks is None or (
            len(ranks) and (tag == ANY_TAG or min(ranks) < 0 or max(ranks) >= self.nprocs)
        ):
            # The single posts' checks, in post order, raise the first error.
            ranks = array("q", [self._checked_recv(src, tag) for src in srcs])
        count = len(ranks)
        request = _Request(len(self.recv_src) << 1 | 1, count)
        self.recv_src.extend(ranks)
        self.recv_tag.extend(array("q", [tag]) * count)
        self.op_kind.frombytes(bytes([OP_RECV]) * count)
        return request

    def record_copy(self, nbytes: int) -> None:
        self.copy_nbytes.append(nbytes)
        self.op_kind.append(OP_COPY)

    def end_segment(self, yielded: Any = None, *, last: bool = False) -> None:
        """Close the current span; *yielded* (unless *last*) is its gate."""
        self.op_ptr.append(len(self.op_kind))
        if not last:
            for request in _as_requests(yielded):
                if request.count == 1:
                    self.gate_code.append(request.code)
                else:
                    self.gate_code.extend(
                        range(request.code, request.code + 2 * request.count, 2)
                    )
        self.gate_ptr.append(len(self.gate_code))


def _as_requests(yielded: Any) -> Iterable[_Request]:
    """The requests a ``yield`` blocks on: one request or an iterable."""
    if isinstance(yielded, _Request):
        return (yielded,)
    if isinstance(yielded, Iterable):
        requests = list(yielded)
        for request in requests:
            if not isinstance(request, _Request):
                raise TypeError("programs must yield Request objects")
        return requests
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
                "(a run would deadlock)"
            )
    raise AssertionError("class counts agree")  # pragma: no cover


def lower_program(
    program, nprocs: int, *args: Any, **kwargs: Any
) -> LoweredProgram:
    """Compile *program* at *nprocs* ranks into a :class:`LoweredProgram`.

    The program is called as ``program(ctx, *args, **kwargs)`` per rank,
    with *ctx* a recording :class:`RankContext`.  Raises
    :class:`~repro.exceptions.LoweringError` for programs that cannot be
    scheduled statically, :class:`ValueError` for out-of-range ranks or
    sizes that are negative or not whole, finite numbers
    (:func:`byte_count`) and :class:`TypeError` for programs that are
    not generators or yield something other than requests.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    recorder = _Recorder(nprocs)
    for rank in range(nprocs):
        ctx = RankContext(recorder, rank)
        recorder.start_rank()
        gen = program(ctx, *args, **kwargs)
        if not isinstance(gen, Generator):
            raise TypeError(
                "rank program must be a generator function "
                f"(got {type(gen).__name__})"
            )
        for yielded in gen:
            recorder.end_segment(yielded)
        recorder.end_segment(last=True)
        recorder.end_rank()

    def column(values: array) -> np.ndarray:
        # Shares the recorder's buffer: no copy.
        return np.frombuffer(values, dtype=np.dtype(values.typecode))

    def lengths(ptr: np.ndarray) -> np.ndarray:
        # np.diff, without its Python overhead on small programs.
        return ptr[1:] - ptr[:-1]

    # Where each op sits: its rank and its rank-local segment index.
    rank_segments = column(recorder.rank_segments)
    op_ptr = column(recorder.op_ptr)
    op_kind = column(recorder.op_kind)
    segments_per_rank = lengths(rank_segments)
    segment_rank = np.repeat(np.arange(nprocs), segments_per_rank)
    segment_index = np.arange(len(segment_rank)) - np.repeat(
        rank_segments[:-1], segments_per_rank
    )
    op_segment = np.repeat(np.arange(len(segment_rank)), lengths(op_ptr))
    is_send, is_recv = op_kind == OP_SEND, op_kind == OP_RECV
    send_at, recv_at = op_segment[is_send], op_segment[is_recv]
    del op_segment

    src = segment_rank[send_at]
    dst = column(recorder.dst)
    tag = column(recorder.tag)
    recv_src = column(recorder.recv_src)
    recv_dst = segment_rank[recv_at]
    recv_tag = column(recorder.recv_tag)

    # Static matching: within each (src, dst, tag) class both sides are
    # FIFO (sends by per-pair seq, receives by post order), so the k-th
    # send pairs with the k-th receive — exactly what MPI's queue scan
    # produces for concrete keys under in-order delivery.
    # Stable class sorts line both sides up position by position.
    send_order = _class_order(src, dst, tag)
    recv_order = _class_order(recv_src, recv_dst, recv_tag)
    if len(send_order) != len(recv_order) or not all(
        (sent[send_order] == posted[recv_order]).all()
        for sent, posted in ((src, recv_src), (dst, recv_dst), (tag, recv_tag))
    ):
        raise _unmatched_error(
            np.stack([src, dst, tag], axis=1)[send_order],
            np.stack([recv_src, recv_dst, recv_tag], axis=1)[recv_order],
        )
    mid_of_recv = np.empty(len(recv_order), dtype=np.int64)
    mid_of_recv[recv_order] = send_order
    recv_segment = np.empty(len(send_order), dtype=np.int64)
    recv_segment[mid_of_recv] = segment_index[recv_at]
    del send_order, recv_order, recv_src, recv_dst, recv_tag

    op_arg = np.empty(len(op_kind), dtype=np.int64)
    op_arg[is_send] = np.arange(len(src))
    op_arg[is_recv] = mid_of_recv
    op_arg[op_kind == OP_COPY] = column(recorder.copy_nbytes)
    gate_code = column(recorder.gate_code)
    gate_kind = (gate_code & 1).astype(np.int8)
    gate_mid = gate_code >> 1
    waits_on_recv = gate_kind == OP_RECV
    gate_mid[waits_on_recv] = mid_of_recv[gate_mid[waits_on_recv]]

    gate_ptr = column(recorder.gate_ptr)
    waiter = np.repeat(segment_rank, lengths(gate_ptr))
    poster = np.where(gate_kind == OP_SEND, src[gate_mid], dst[gate_mid])
    if (waiter != poster).any():
        first = int(np.flatnonzero(waiter != poster)[0])
        raise LoweringError(
            f"rank {int(waiter[first])} waits on a request rank "
            f"{int(poster[first])} posted: a request belongs to the rank "
            "that posted it"
        )

    columns = {
        "src": src,
        "dst": dst,
        "tag": tag,
        "nbytes": column(recorder.nbytes),
        "seq": column(recorder.seq),
        "send_segment": segment_index[send_at],
        "recv_segment": recv_segment,
        "rank_segments": rank_segments,
        "op_ptr": op_ptr,
        "op_kind": op_kind,
        "op_arg": op_arg,
        "gate_ptr": gate_ptr,
        "gate_kind": gate_kind,
        "gate_mid": gate_mid,
    }
    for values in columns.values():
        values.setflags(write=False)
    return LoweredProgram(nprocs=nprocs, **columns)
