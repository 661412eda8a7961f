"""Lowering: the columnar schedule, static FIFO matching, and error paths."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import LoweringError
from repro.registry import ALGORITHMS
from repro.simmpi.collectives import MATRIX_ALGORITHMS, TAG_ALLTOALL
from repro.simmpi.lowering import LoweredProgram, lower_program

COLUMNS = ("src", "dst", "tag", "nbytes", "seq", "send_segment", "recv_segment")

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
