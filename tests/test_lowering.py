"""Lowering: the columnar schedule, static FIFO matching, and error paths."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import LoweringError
from repro.registry import ALGORITHMS
from repro.simmpi.collectives import (
    MATRIX_ALGORITHMS,
    TAG_ALLTOALL,
    alltoall_direct,
    alltoallv_direct,
)
from repro.simmpi.lowering import ANY_SOURCE, ANY_TAG, LoweredProgram, lower_program

COLUMNS = ("src", "dst", "tag", "nbytes", "seq", "send_segment", "recv_segment")
#: Every column of a LoweredProgram.
ALL_COLUMNS = COLUMNS + (
    "rank_segments", "op_ptr", "op_kind", "op_arg", "gate_ptr", "gate_kind", "gate_mid",
)

#: A sparse alltoallv matrix: rank 2 sends nothing (zero row), rank 3
#: receives nothing (zero column), and rank 4 neither sends nor
#: receives, so it posts no request at all.
SPARSE = np.array(
    [
        [5, 100, 0, 0, 0],
        [300, 0, 7, 0, 0],
        [0, 0, 9, 0, 0],
        [40, 50, 60, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)


def _lower(name: str, n: int, msg_size: int = 1_000) -> LoweredProgram:
    if name in MATRIX_ALGORITHMS:
        return lower_program(ALGORITHMS.get(name), len(SPARSE), SPARSE)
    return lower_program(ALGORITHMS.get(name), n, msg_size)


def _walk(lowered: LoweredProgram):
    """Yield ``(rank, segment index, kind, arg)`` for every op in order."""
    for rank, segments in enumerate(lowered.segments):
        for segment in segments:
            for kind, arg in segment.ops:
                yield rank, segment.index, kind, arg


def check_schedule(lowered: LoweredProgram) -> None:
    """Structural invariants every lowered schedule must satisfy."""
    n_messages = lowered.n_messages
    for name in COLUMNS:
        values = getattr(lowered, name)
        assert values.dtype == np.int64 and values.shape == (n_messages,)
        assert not values.flags.writeable
    assert len(lowered.segments) == lowered.nprocs

    # The op and gate columns are CSR over the rank-major segments.
    n_segments = lowered.n_segments
    assert lowered.rank_segments.tolist() == np.cumsum(
        [0] + [len(segments) for segments in lowered.segments]
    ).tolist()
    for ptr, kind, arg in (
        ("op_ptr", "op_kind", "op_arg"), ("gate_ptr", "gate_kind", "gate_mid")
    ):
        bounds = getattr(lowered, ptr)
        assert bounds.shape == (n_segments + 1,) and bounds[0] == 0
        assert np.all(np.diff(bounds) >= 0)
        assert getattr(lowered, kind).dtype == np.int8
        for name in (ptr, kind, arg):
            values = getattr(lowered, name)
            assert not values.flags.writeable
            assert len(values) == (n_segments + 1 if name == ptr else bounds[-1])

    sends: dict[int, tuple[int, int]] = {}
    recvs: dict[int, tuple[int, int]] = {}
    for rank, index, kind, arg in _walk(lowered):
        if kind == "send":
            assert arg not in sends
            sends[arg] = (rank, index)
        elif kind == "recv":
            assert arg not in recvs
            recvs[arg] = (rank, index)
        else:
            assert kind == "copy" and arg >= 0
    # Every message is posted once on each side, where its columns say.
    assert sorted(sends) == sorted(recvs) == list(range(n_messages))
    for mid in range(n_messages):
        assert sends[mid] == (lowered.src[mid], lowered.send_segment[mid])
        assert recvs[mid] == (lowered.dst[mid], lowered.recv_segment[mid])

    # Segments are numbered in order; only the last one has no gate,
    # and a gate waits only on requests its rank already posted.
    for rank, segments in enumerate(lowered.segments):
        assert [s.index for s in segments] == list(range(len(segments)))
        assert all(s.rank == rank for s in segments)
        assert [s.gate is None for s in segments] == (
            [False] * (len(segments) - 1) + [True]
        )
        for segment in segments[:-1]:
            for kind, mid in segment.gate:
                posted = sends[mid] if kind == "send" else recvs[mid]
                assert posted[0] == rank and posted[1] <= segment.index

    # Per-pair sequence numbers count sends in message-id order.
    next_seq: dict[tuple[int, int], int] = defaultdict(int)
    for mid in range(n_messages):
        pair = (int(lowered.src[mid]), int(lowered.dst[mid]))
        assert lowered.seq[mid] == next_seq[pair]
        next_seq[pair] += 1


def check_fifo_pairing(lowered: LoweredProgram) -> None:
    """The k-th receive of a (src, dst, tag) class gets its k-th send."""
    sends_of: dict[tuple, list[int]] = defaultdict(list)
    for mid in range(lowered.n_messages):
        key = (lowered.src[mid], lowered.dst[mid], lowered.tag[mid])
        sends_of[key].append(mid)
    seen: dict[tuple, int] = defaultdict(int)
    for rank, _index, kind, mid in _walk(lowered):
        if kind != "recv":
            continue
        key = (lowered.src[mid], rank, lowered.tag[mid])
        assert sends_of[key][seen[key]] == mid
        seen[key] += 1
    assert seen == {key: len(mids) for key, mids in sends_of.items()}


@pytest.mark.parametrize("name", ALGORITHMS.names())
@pytest.mark.parametrize("n", (1, 2, 5, 8))
def test_builtin_schedules_are_well_formed(name, n):
    lowered = _lower(name, n)
    check_schedule(lowered)
    check_fifo_pairing(lowered)


class TestBuiltinShapes:
    def test_direct(self):
        n, m = 4, 1_000
        lowered = _lower("direct", n, m)
        assert lowered.n_messages == n * (n - 1)
        assert lowered.n_phases == 2
        assert set(lowered.tag.tolist()) == {TAG_ALLTOALL}
        assert not lowered.send_segment.any() and not lowered.recv_segment.any()
        assert not lowered.seq.any()
        # Rank r sends to r+1, r+2, ... in that order.
        for rank in range(n):
            dsts = lowered.dst[lowered.src == rank].tolist()
            assert dsts == [(rank + t) % n for t in range(1, n)]
        for rank, (first, last) in enumerate(lowered.segments):
            kinds = [kind for kind, _ in first.ops]
            # Receives are pre-posted, then sends, then the self-copy.
            assert kinds == ["recv"] * (n - 1) + ["send"] * (n - 1) + ["copy"]
            assert first.ops[-1] == ("copy", m)
            assert sorted(first.gate) == sorted(
                op for op in first.ops if op[0] != "copy"
            )
            assert last.ops == () and last.gate is None
        expected = np.full((n, n), m)
        np.fill_diagonal(expected, 0)
        np.testing.assert_array_equal(lowered.flow_matrix(0), expected)
        assert not lowered.flow_matrix(1).any()
        assert lowered.describe() == (
            "4 ranks, 2 phases, 12 wire messages, 0 local copies"
        )

    def test_rounds(self):
        n, m = 5, 700
        lowered = _lower("rounds", n, m)
        assert lowered.n_phases == n
        for mid in range(lowered.n_messages):
            src, dst = int(lowered.src[mid]), int(lowered.dst[mid])
            t = (dst - src) % n
            assert lowered.tag[mid] == TAG_ALLTOALL + t
            # Round t is segment t-1 on both sides.
            assert lowered.send_segment[mid] == lowered.recv_segment[mid] == t - 1
        for segments in lowered.segments:
            for segment in segments[:-1]:
                assert sorted(k for k, _ in segment.gate) == ["recv", "send"]
        edges = lowered.dependency_edges()
        assert len(edges) == n * (n - 1)
        assert all(s[1] == d[1] for s, d in edges)

    def test_bruck(self):
        n, m = 6, 100
        lowered = _lower("bruck", n, m)
        rounds = math.ceil(math.log2(n))
        assert lowered.n_messages == n * rounds
        for k in range(rounds):
            count = sum(1 for j in range(1, n) if (j >> k) & 1)
            in_round = lowered.send_segment == k
            assert (lowered.nbytes[in_round] == count * m).all()
            assert ((lowered.dst[in_round] - lowered.src[in_round]) % n
                    == (1 << k)).all()

    def test_ring(self):
        n, m = 5, 10
        lowered = _lower("ring", n, m)
        assert ((lowered.dst - lowered.src) % n == 1).all()
        for step in range(1, n):
            in_step = lowered.send_segment == step - 1
            assert (lowered.nbytes[in_step] == (n - step) * m).all()
        # Every message of a pair shares the one ring channel, in order.
        assert sorted(lowered.seq[lowered.src == 0].tolist()) == list(range(n - 1))

    def test_single_rank_has_no_messages(self):
        lowered = _lower("direct", 1)
        assert lowered.n_messages == 0
        assert lowered.segments[0][0].ops == (("copy", 1_000),)
        assert lowered.segments[0][0].gate is None


class TestSparseAlltoallv:
    ARCS = {
        (src, dst): int(SPARSE[src, dst])
        for src in range(len(SPARSE))
        for dst in range(len(SPARSE))
        if src != dst and SPARSE[src, dst] > 0
    }

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    def test_messages_are_the_nonzero_arcs(self, name):
        lowered = _lower(name, len(SPARSE))
        got = {
            (s, d): b
            for s, d, b in zip(
                lowered.src.tolist(), lowered.dst.tolist(), lowered.nbytes.tolist()
            )
        }
        assert got == self.ARCS
        assert lowered.n_messages == len(self.ARCS)
        assert not lowered.local.any()
        expected = SPARSE.copy()
        np.fill_diagonal(expected, 0)
        total = sum(lowered.flow_matrix(p) for p in range(lowered.n_phases))
        np.testing.assert_array_equal(total, expected)

    def test_direct_zero_row_and_idle_rank(self):
        lowered = _lower("alltoallv-direct", len(SPARSE))
        # Rank 2 only receives, so its single gate holds receives only.
        rank2 = lowered.segments[2]
        assert {kind for kind, _ in rank2[0].gate} == {"recv"}
        assert rank2[0].ops[-1] == ("copy", 9)
        # Rank 4 neither sends nor receives: one ungated segment.
        (idle,) = lowered.segments[4]
        assert idle.ops == (("copy", 0),) and idle.gate is None

    def test_rounds_skip_rounds_without_arcs(self):
        lowered = _lower("alltoallv-rounds", len(SPARSE))
        n = len(SPARSE)
        for rank, segments in enumerate(lowered.segments):
            active_rounds = [
                t for t in range(1, n)
                if SPARSE[rank, (rank + t) % n] or SPARSE[(rank - t) % n, rank]
            ]
            assert len(segments) == len(active_rounds) + 1
            for segment, t in zip(segments, active_rounds):
                for kind, mid in segment.gate:
                    assert lowered.tag[mid] == TAG_ALLTOALL + t


def _class_program(plan):
    """Rank program replaying *plan*: ``{rank: [[(op, peer, tag), ...], ...]}``.

    Each inner list is one segment; ``op`` is ``"send"`` or ``"recv"``.
    """

    def program(ctx):
        for span in plan.get(ctx.rank, []):
            requests = []
            for op, peer, tag in span:
                if op == "send":
                    requests.append(ctx.isend(peer, 8, tag=tag))
                else:
                    requests.append(ctx.irecv(peer, tag=tag))
            if requests:
                yield requests

    return program


class TestFifoMatching:
    def test_kth_receive_pairs_with_kth_send_of_its_class(self):
        # Rank 0 interleaves two tag classes to rank 1; rank 1 posts
        # them in a different class order across three segments.
        plan = {
            0: [[("send", 1, 5), ("send", 1, 6), ("send", 1, 5)],
                [("send", 1, 6), ("send", 1, 5)]],
            1: [[("recv", 0, 6)],
                [("recv", 0, 5), ("recv", 0, 5), ("recv", 0, 6)],
                [("recv", 0, 5)]],
        }
        lowered = lower_program(_class_program(plan), 2)
        check_schedule(lowered)
        check_fifo_pairing(lowered)
        recv_mids = [arg for _, _, kind, arg in _walk(lowered) if kind == "recv"]
        # Sends: mid 0 (tag 5), 1 (6), 2 (5), 3 (6), 4 (5).
        assert recv_mids == [1, 0, 2, 3, 4]
        assert lowered.recv_segment.tolist() == [1, 0, 1, 1, 2]
        assert lowered.seq.tolist() == [0, 1, 2, 3, 4]

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1),
                        st.integers(0, 1),
                    ),
                    max_size=12,
                ),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_random_programs_pair_fifo(self, case):
        n, messages, rnd = case
        plan: dict[int, list] = defaultdict(list)
        inbound: dict[int, list] = defaultdict(list)
        for src, dst, tag in messages:
            plan[src].append([("send", dst, tag)])
            inbound[dst].append(("recv", src, tag))
        for dst, recvs in inbound.items():
            rnd.shuffle(recvs)
            plan[dst].append(recvs)
        lowered = lower_program(_class_program(dict(plan)), n)
        assert lowered.n_messages == len(messages)
        check_schedule(lowered)
        check_fifo_pairing(lowered)


class TestErrors:
    def test_wildcard_source(self):
        def program(ctx):
            yield ctx.irecv()

        with pytest.raises(LoweringError, match="wildcard"):
            lower_program(program, 2)

    def test_wildcard_tag(self):
        def program(ctx):
            yield ctx.irecv(0)

        with pytest.raises(LoweringError, match="wildcard"):
            lower_program(program, 2)

    def test_send_without_receive(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 10, tag=5)

        with pytest.raises(
            LoweringError,
            match=r"unmatched traffic 0->1 tag=5: 1 send\(s\) vs 0 receive\(s\)",
        ):
            lower_program(program, 2)

    def test_receive_without_send(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.irecv(1, tag=3)

        with pytest.raises(
            LoweringError,
            match=r"unmatched traffic 1->0 tag=3: 0 send\(s\) vs 1 receive\(s\)",
        ):
            lower_program(program, 2)

    def test_count_mismatch_within_a_class(self):
        def program(ctx):
            if ctx.rank == 0:
                yield [ctx.isend(1, 10, tag=2), ctx.isend(1, 10, tag=2)]
            else:
                yield ctx.irecv(0, tag=2)

        with pytest.raises(
            LoweringError,
            match=r"unmatched traffic 0->1 tag=2: 2 send\(s\) vs 1 receive\(s\)",
        ):
            lower_program(program, 2)

    def test_tag_mismatch_reports_a_class(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 10, tag=1)
            else:
                yield ctx.irecv(0, tag=2)

        with pytest.raises(LoweringError, match=r"unmatched traffic 0->1 tag=1"):
            lower_program(program, 2)

    def test_wait_on_another_ranks_request(self):
        shared = []

        def program(ctx):
            if ctx.rank == 0:
                shared.append(ctx.isend(1, 10, tag=0))
                yield shared[0]
            else:
                yield [ctx.irecv(0, tag=0), shared[0]]

        with pytest.raises(
            LoweringError, match="rank 1 waits on a request rank 0 posted"
        ):
            lower_program(program, 2)

    def test_non_generator_program(self):
        def program(ctx):
            return None

        with pytest.raises(TypeError, match="generator function"):
            lower_program(program, 2)

    def test_yield_of_a_non_request(self):
        def program(ctx):
            yield 42

        with pytest.raises(TypeError, match="must yield Request"):
            lower_program(program, 2)

    def test_yield_of_a_list_with_a_non_request(self):
        def program(ctx):
            yield [ctx.isend(ctx.rank, 1, tag=0), "not a request"]

        with pytest.raises(TypeError, match="Request objects"):
            lower_program(program, 2)

    @pytest.mark.parametrize(
        "program, match",
        [
            (lambda ctx: iter([ctx.isend(0, -1)]), "size"),
            (lambda ctx: iter([ctx.isend(7, 1)]), "destination"),
            (lambda ctx: iter([ctx.irecv(7, tag=0)]), "source"),
        ],
    )
    def test_malformed_requests(self, program, match):
        def generator(ctx):
            yield from program(ctx)

        with pytest.raises(ValueError, match=match):
            lower_program(generator, 2)

    def test_needs_a_rank(self):
        with pytest.raises(ValueError, match="at least one rank"):
            lower_program(_class_program({}), 0)


def per_op_direct_exchange(ctx, outbound, inbound):
    """The direct exchange posted one operation at a time: the reference
    the batched body in :mod:`repro.simmpi.collectives` must equal."""
    n, me = ctx.size, ctx.rank
    requests = []
    for t in range(1, n):
        src = (me - t) % n
        if inbound[src] > 0:
            requests.append(ctx.irecv(src, tag=TAG_ALLTOALL))
    for t in range(1, n):
        dst = (me + t) % n
        if outbound[dst] > 0:
            requests.append(ctx.isend(dst, outbound[dst], tag=TAG_ALLTOALL))
    ctx.local_copy(outbound[me])
    if requests:
        yield requests


def per_op_alltoallv_direct(ctx, matrix):
    W = np.asarray(matrix)
    yield from per_op_direct_exchange(ctx, W[ctx.rank].tolist(), W[:, ctx.rank].tolist())


def per_op_direct(ctx, msg_size):
    row = [msg_size] * ctx.size
    yield from per_op_direct_exchange(ctx, row, row)


def assert_same_program(lowered: LoweredProgram, expected: LoweredProgram) -> None:
    assert lowered.nprocs == expected.nprocs
    for name in ALL_COLUMNS:
        got, want = getattr(lowered, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@st.composite
def sparse_matrices(draw):
    """Sparse non-negative int64 (n, n) matrices, some rows, columns and
    the diagonal zeroed."""
    n = draw(st.integers(1, 24))
    W = draw(arrays(np.int64, (n, n), elements=st.integers(0, 70_000), fill=st.just(0)))
    W[draw(st.lists(st.integers(0, n - 1), max_size=3)), :] = 0
    W[:, draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0
    if draw(st.booleans()):
        np.fill_diagonal(W, 0)
    return W


def _single_and_batch_program(single, batch):
    """Rank 0 runs *single* or *batch* (each a ``ctx -> request`` post)."""

    def program(ctx, use_batch):
        if ctx.rank == 0:
            yield (batch if use_batch else single)(ctx)

    return program


class TestBatchedPosts:
    @given(W=sparse_matrices())
    def test_alltoallv_direct_equals_per_op_posts(self, W):
        n = len(W)
        assert_same_program(
            lower_program(alltoallv_direct, n, W),
            lower_program(per_op_alltoallv_direct, n, W),
        )

    @given(n=st.integers(1, 24), m=st.sampled_from([0, 1, 777, 4096]))
    def test_direct_equals_per_op_posts(self, n, m):
        assert_same_program(
            lower_program(alltoall_direct, n, m), lower_program(per_op_direct, n, m)
        )

    def test_seq_continues_across_single_and_batched_sends(self):
        def program(ctx):
            if ctx.rank == 0:
                first = ctx.isend(1, 10, tag=3)
                batch = ctx.isend_many([1, 2, 1], [20, 30, 40], tag=3)
                yield [first, batch, ctx.isend(1, 50, tag=3)]
            elif ctx.rank == 1:
                yield [ctx.irecv_many([0, 0], tag=3), ctx.irecv(0, tag=3),
                       ctx.irecv_many([0], tag=3)]
            else:
                yield ctx.irecv(0, tag=3)

        lowered = lower_program(program, 3)
        check_schedule(lowered)
        check_fifo_pairing(lowered)
        assert lowered.dst.tolist() == [1, 1, 2, 1, 1]
        assert lowered.nbytes.tolist() == [10, 20, 30, 40, 50]
        assert lowered.seq.tolist() == [0, 1, 0, 2, 3]
        # Rank 1's receives pair in post order with the sends to it.
        recv_mids = [mid for rank, _, kind, mid in _walk(lowered)
                     if kind == "recv" and rank == 1]
        assert recv_mids == [0, 1, 3, 4]

    def test_gate_entries_follow_post_order(self):
        def program(ctx):
            if ctx.rank == 0:
                sends = ctx.isend_many([1, 1], [5, 6], tag=0)
                recv = ctx.irecv(1, tag=1)
                yield [recv, sends]
            else:
                recvs = ctx.irecv_many([0, 0], tag=0)
                yield recvs
                yield ctx.isend(0, 7, tag=1)

        (first, _), (only, second, _) = lower_program(program, 2).segments
        assert first.gate == (("recv", 2), ("send", 0), ("send", 1))
        assert only.gate == (("recv", 0), ("recv", 1))
        assert second.gate == (("send", 2),)

    def test_batched_receive_refuses_status_reads(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend_many([1], [8], tag=0)
            else:
                request = ctx.irecv_many([0], tag=0)
                yield request
                request.source

        with pytest.raises(LoweringError, match=r"receive's status \(source\)"):
            lower_program(program, 2)

    @pytest.mark.parametrize(
        "single, batch",
        [
            (lambda ctx: ctx.isend(1, -1), lambda ctx: ctx.isend_many([1, 1], [4, -1])),
            (lambda ctx: ctx.isend(7, 1), lambda ctx: ctx.isend_many([1, 7], [1, 1])),
            (lambda ctx: ctx.isend(-1, 1), lambda ctx: ctx.isend_many([-1], [1])),
            (lambda ctx: ctx.isend(1, 2.5), lambda ctx: ctx.isend_many([1], [2.5])),
            (lambda ctx: ctx.irecv(7, tag=0), lambda ctx: ctx.irecv_many([1, 7], tag=0)),
            (lambda ctx: ctx.irecv(ANY_SOURCE, tag=0),
             lambda ctx: ctx.irecv_many([1, ANY_SOURCE], tag=0)),
            (lambda ctx: ctx.irecv(1, tag=ANY_TAG), lambda ctx: ctx.irecv_many([1, 1])),
        ],
        ids=["size", "destination", "negative-destination", "fractional-size",
             "source", "wildcard-source", "wildcard-tag"],
    )
    def test_malformed_batch_raises_the_single_posts_error(self, single, batch):
        program = _single_and_batch_program(single, batch)
        with pytest.raises((ValueError, LoweringError)) as expected:
            lower_program(program, 2, False)
        with pytest.raises(type(expected.value)) as raised:
            lower_program(program, 2, True)
        assert str(raised.value) == str(expected.value)

    def test_malformed_batch_posts_nothing(self):
        def program(ctx):
            for post in (
                lambda: ctx.isend_many([1, 2, 7], [1, 1, 1]),
                lambda: ctx.isend_many([1, 1], [1, 1.5]),
                lambda: ctx.irecv_many([1, 7], tag=0),
            ):
                with pytest.raises(ValueError):
                    post()
            yield from ()

        lowered = lower_program(program, 3)
        assert lowered.n_messages == 0 and lowered.op_kind.size == 0

    def test_one_size_per_destination(self):
        program = _single_and_batch_program(None, lambda ctx: ctx.isend_many([1, 1], [4]))
        with pytest.raises(ValueError, match="one size per destination"):
            lower_program(program, 2, True)


#: The byte matrix of the three misbehaviours of a float matrix: a NaN
#: entry that posts no message, a 0.4 entry that posts 0 bytes and a
#: 1.5 entry that posts 1.
FLOAT_MATRIX = [[0, 1.5, 2], [float("nan"), 0, 3], [1, 0.4, 0]]
WHOLE_FINITE = "byte count must be a whole, finite number"


class TestByteCounts:
    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    @pytest.mark.parametrize(
        "where, value",
        [((1, 0), float("nan")), ((2, 1), 0.4), ((0, 1), 1.5), ((1, 2), float("inf"))],
        ids=["nan", "below-one", "fractional", "inf"],
    )
    def test_matrix_entries_must_be_whole_and_finite(self, name, where, value):
        W = np.array([[0, 1, 2], [1, 0, 3], [1, 1, 0]], dtype=np.float64)
        W[where] = value
        with pytest.raises(ValueError, match=WHOLE_FINITE):
            lower_program(ALGORITHMS.get(name), 3, W)

    def test_the_float_matrix_is_rejected(self):
        with pytest.raises(ValueError, match=WHOLE_FINITE):
            lower_program(alltoallv_direct, 3, np.array(FLOAT_MATRIX))

    @pytest.mark.parametrize("name", sorted(set(ALGORITHMS.names()) - MATRIX_ALGORITHMS))
    @pytest.mark.parametrize("msg_size", [10.7, float("nan"), float("inf")])
    def test_message_size_must_be_whole_and_finite(self, name, msg_size):
        with pytest.raises(ValueError, match=WHOLE_FINITE):
            lower_program(ALGORITHMS.get(name), 3, msg_size)

    @pytest.mark.parametrize(
        "post",
        [
            lambda ctx: ctx.isend(1, 2.5),
            lambda ctx: ctx.isend(1, float("inf")),
            lambda ctx: ctx.isend_many([1], [float("nan")]),
            lambda ctx: ctx.local_copy(1.5),
            lambda ctx: ctx.local_copy(float("inf")),
        ],
        ids=["isend", "isend-inf", "isend_many-nan", "local_copy", "local_copy-inf"],
    )
    def test_posts_take_whole_finite_sizes(self, post):
        def program(ctx):
            if ctx.rank == 0:
                post(ctx)
            yield from ()

        with pytest.raises(ValueError, match=WHOLE_FINITE):
            lower_program(program, 2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_integral_floats_lower_as_ints(self, n):
        assert_same_program(
            lower_program(alltoall_direct, n, 4096.0), lower_program(alltoall_direct, n, 4096)
        )
        W = np.arange(n * n, dtype=np.int64).reshape(n, n) * 512
        for name in sorted(MATRIX_ALGORITHMS):
            program = ALGORITHMS.get(name)
            assert_same_program(
                lower_program(program, n, W.astype(np.float64)), lower_program(program, n, W)
            )


#: Bad ranks and tags: a fractional rank or tag once lowered truncated,
#: and a non-finite one raised whatever int() raised.
NAN, INF = float("nan"), float("inf")


class TestRanksAndTags:
    def test_whole_numbers_lower_as_ints(self):
        # NumPy integers and integral floats, in single and batched posts.
        def program(ctx, number):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                yield [
                    ctx.isend(number(peer), 8, tag=number(3)),
                    ctx.isend_many([number(peer)], [8], tag=number(4)),
                ]
            else:
                yield [
                    ctx.irecv(number(peer), tag=number(3)),
                    ctx.irecv_many([number(peer)], tag=number(4)),
                ]

        expected = lower_program(program, 2, int)
        for number in (np.int64, float, np.float64):
            assert_same_program(lower_program(program, 2, number), expected)

    @pytest.mark.parametrize(
        "post, value",
        [
            (lambda ctx: ctx.isend(1.5, 8), "1.5"),
            (lambda ctx: ctx.isend(1.5, 8, tag=0.9), "0.9"),  # the tag is checked first
            (lambda ctx: ctx.isend(NAN, 8), "nan"),
            (lambda ctx: ctx.irecv(0.2, tag=0), "0.2"),
            (lambda ctx: ctx.irecv(1, tag=INF), "inf"),
            (lambda ctx: ctx.isend_many([1.5], [8]), "1.5"),
            (lambda ctx: ctx.isend_many([1], [8], tag=INF), "inf"),
            (lambda ctx: ctx.irecv_many([NAN], tag=0), "nan"),
            (lambda ctx: ctx.irecv_many([1], tag=2.5), "2.5"),
        ],
        ids=[
            "isend-rank", "isend-tag", "isend-nan-rank", "irecv-rank", "irecv-inf-tag",
            "isend_many-rank", "isend_many-inf-tag", "irecv_many-nan-rank",
            "irecv_many-tag",
        ],
    )
    def test_fractional_or_non_finite_raises_naming_the_value(self, post, value):
        def program(ctx):
            if ctx.rank == 0:
                yield post(ctx)

        with pytest.raises(
            ValueError, match=rf"(rank|tag) must be a whole, finite number, got {value}$"
        ):
            lower_program(program, 2)

    @pytest.mark.parametrize(
        "single, batch",
        [
            (lambda ctx: ctx.isend(2.5, 1), lambda ctx: ctx.isend_many([1, 2.5], [1, 1])),
            (lambda ctx: ctx.isend(1, 1, tag=0.5),
             lambda ctx: ctx.isend_many([1, 1], [1, 1], tag=0.5)),
            (lambda ctx: ctx.isend(0.5, -1), lambda ctx: ctx.isend_many([0.5, 1], [-1, 1])),
            (lambda ctx: ctx.irecv(INF, tag=0), lambda ctx: ctx.irecv_many([1, INF], tag=0)),
            (lambda ctx: ctx.irecv(1, tag=1.5), lambda ctx: ctx.irecv_many([1, 1], tag=1.5)),
        ],
        ids=["send-rank", "send-tag", "send-rank-before-size", "recv-rank", "recv-tag"],
    )
    def test_bad_batch_posts_nothing_and_raises_its_entrys_error(self, single, batch):
        program = _single_and_batch_program(single, batch)
        with pytest.raises(ValueError) as expected:
            lower_program(program, 2, False)

        def caught(ctx):
            if ctx.rank == 0:
                with pytest.raises(ValueError) as raised:
                    batch(ctx)
                assert str(raised.value) == str(expected.value)
            yield from ()

        lowered = lower_program(caught, 2)
        assert lowered.n_messages == 0 and lowered.op_kind.size == 0
