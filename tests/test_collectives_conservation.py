"""Byte-conservation property tests for the All-to-All algorithms.

Every scalar algorithm realises the same logical operation: each rank
contributes one *msg_size* block per peer and must end up holding one
block per peer.  The algorithms differ wildly in how many bytes they
put on the wire (Bruck and ring forward blocks through intermediate
ranks), but the *retained* payload — bytes received and not forwarded
onwards, plus the rank's own originated data — is invariant:

    retained(rank) = received(rank) - (sent(rank) - originated(rank))
                   = (n - 1) * msg_size        (= direct's received total)

The alltoallv algorithms generalise this to arbitrary (n, n) byte
matrices: they must deliver *exactly* the arc weights of the matrix's
MED — per ordered pair, not just in aggregate — including matrices with
whole zero rows/columns (ranks that send or receive nothing).

The harness below executes the real generator programs against a fake
context that records every isend/irecv and matches them up by
(src, dst, tag), so the assertions exercise the actual send sizes the
implementations emit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.med import MED
from repro.registry import ALGORITHMS
from repro.simmpi.collectives import ALLTOALLV_VARIANTS, MATRIX_ALGORITHMS
from repro.simmpi.lowering import lower_program

#: Scalar (uniform msg_size) algorithms — the historical four.
SCALAR_ALGORITHMS = sorted(set(ALGORITHMS.names()) - set(MATRIX_ALGORITHMS))


class _RecordingContext:
    """Stand-in for RankContext: records traffic, never simulates."""

    def __init__(self, rank: int, size: int, log: dict) -> None:
        self.rank = rank
        self._size = size
        self._log = log

    @property
    def size(self) -> int:
        return self._size

    def isend(self, dst, nbytes, *, tag=0):
        self._log["sends"].append((self.rank, dst, tag, int(nbytes)))
        return object()

    def irecv(self, src, *, tag=0):
        self._log["recvs"].append((src, self.rank, tag))
        return object()

    def isend_many(self, dsts, nbytes, *, tag=0):
        for dst, size in zip(dsts, nbytes, strict=True):
            self.isend(dst, size, tag=tag)
        return object()

    def irecv_many(self, srcs, *, tag=0):
        for src in srcs:
            self.irecv(src, tag=tag)
        return object()

    def local_copy(self, nbytes):
        self._log["local"].append((self.rank, int(nbytes)))


def run_algorithm(name: str, n: int, arg) -> dict:
    """Exhaust every rank's program; return matched traffic totals.

    *arg* is the scalar msg_size for uniform algorithms or the byte
    matrix for alltoallv ones — exactly what the runtime would pass.
    """
    log = {"sends": [], "recvs": [], "local": [], "pairs": {}}
    program = ALGORITHMS.get(name)
    for rank in range(n):
        ctx = _RecordingContext(rank, n, log)
        for _ in program(ctx, arg):
            pass  # requests would be waited on; accounting already done

    # Match receives to sends by (src, dst, tag), FIFO per channel.
    channels: dict[tuple, list[int]] = {}
    for src, dst, tag, nbytes in log["sends"]:
        channels.setdefault((src, dst, tag), []).append(nbytes)
    received = [0] * n
    for src, dst, tag in log["recvs"]:
        queue = channels.get((src, dst, tag))
        assert queue, f"{name}: recv ({src}->{dst}, tag {tag}) has no matching send"
        nbytes = queue.pop(0)
        received[dst] += nbytes
        log["pairs"][(src, dst)] = log["pairs"].get((src, dst), 0) + nbytes
    unmatched = {k: v for k, v in channels.items() if v}
    assert not unmatched, f"{name}: sends never received: {unmatched}"

    sent = [0] * n
    for src, _dst, _tag, nbytes in log["sends"]:
        sent[src] += nbytes
    return {
        "sent": sent,
        "received": received,
        "local": log["local"],
        "pairs": log["pairs"],
    }


NS = [2, 3, 4, 5, 8, 9, 16]


class TestByteConservation:
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("name", ["rounds", "bruck", "ring"])
    def test_retained_payload_matches_direct(self, name, n):
        m = 1_000
        direct = run_algorithm("direct", n, m)
        other = run_algorithm(name, n, m)
        originated = (n - 1) * m  # every rank contributes n-1 remote blocks
        for rank in range(n):
            retained = other["received"][rank] - (other["sent"][rank] - originated)
            assert retained == direct["received"][rank] == originated, (
                f"{name}: rank {rank} retains {retained} B, "
                f"direct delivers {direct['received'][rank]} B"
            )

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("name", SCALAR_ALGORITHMS)
    def test_send_receive_symmetry(self, name, n):
        totals = run_algorithm(name, n, 999)
        assert totals["sent"] == totals["received"]

    @pytest.mark.parametrize("n", NS)
    def test_wire_totals_document_the_tradeoffs(self, n):
        m = 512
        per_rank = {
            name: run_algorithm(name, n, m)["received"][0]
            for name in SCALAR_ALGORITHMS
        }
        assert per_rank["direct"] == (n - 1) * m
        assert per_rank["rounds"] == (n - 1) * m
        # Bruck: round k moves the blocks whose offset has bit k set.
        bruck_blocks = sum(
            sum(1 for j in range(1, n) if (j >> k) & 1)
            for k in range((n - 1).bit_length())
        )
        assert per_rank["bruck"] == bruck_blocks * m
        # Ring: step s forwards (n - s) blocks one hop.
        assert per_rank["ring"] == n * (n - 1) // 2 * m

    @pytest.mark.parametrize("name", SCALAR_ALGORITHMS)
    def test_local_copy_once_per_rank(self, name):
        n, m = 5, 777
        totals = run_algorithm(name, n, m)
        assert sorted(totals["local"]) == [(rank, m) for rank in range(n)]


def random_matrix(n: int, seed: int, *, zero_row=None, zero_col=None) -> np.ndarray:
    """A seeded irregular matrix, optionally with a zero row/column."""
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 5_000, size=(n, n)).astype(np.int64)
    # Sprinkle extra zeros so sparsity is the norm, not the exception.
    W[rng.random((n, n)) < 0.3] = 0
    if zero_row is not None:
        W[zero_row, :] = 0
    if zero_col is not None:
        W[:, zero_col] = 0
    return W


class TestAlltoallvConservation:
    """Every alltoallv algorithm delivers exactly the MED's arc weights."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    def test_delivers_exact_med_arcs(self, name, n, seed):
        W = random_matrix(n, seed, zero_row=seed % n, zero_col=(seed + 1) % n)
        med = MED.from_matrix(W)
        totals = run_algorithm(name, n, W)
        # Per ordered pair: wire bytes == MED arc weight (0 means no arc,
        # and no message at all).
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert totals["pairs"].get((i, j), 0) == med.weight(i, j), (
                    f"{name}: pair {i}->{j} moved "
                    f"{totals['pairs'].get((i, j), 0)} B, MED says "
                    f"{med.weight(i, j)} B"
                )
        # Per rank: totals match the MED's send/recv byte sums.
        for rank in range(n):
            assert totals["sent"][rank] == med.send_bytes(rank)
            assert totals["received"][rank] == med.recv_bytes(rank)

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    def test_all_zero_matrix_is_silent(self, name):
        n = 4
        totals = run_algorithm(name, n, np.zeros((n, n), dtype=np.int64))
        assert totals["sent"] == [0] * n
        assert totals["received"] == [0] * n

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    def test_diagonal_lowers_to_local_copy(self, name):
        n = 5
        W = random_matrix(n, seed=7)
        np.fill_diagonal(W, [10, 20, 30, 40, 50])
        totals = run_algorithm(name, n, W)
        assert sorted(totals["local"]) == [
            (rank, (rank + 1) * 10) for rank in range(n)
        ]

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    @given(n=st.integers(1, 9), m=st.sampled_from([0, 1, 321, 4096]))
    def test_uniform_matrix_matches_scalar_counterpart(self, name, n, m):
        # The scalar program posts the op sequence its alltoallv variant
        # posts for the uniform matrix, without building the matrix.
        scalar = {v: k for k, v in ALLTOALLV_VARIANTS.items()}[name]
        W = np.full((n, n), m, dtype=np.int64)
        irregular = run_algorithm(name, n, W)
        uniform = run_algorithm(scalar, n, m)
        assert irregular["sent"] == uniform["sent"]
        assert irregular["received"] == uniform["received"]
        assert irregular["local"] == uniform["local"]
        lowered = lower_program(ALGORITHMS.get(scalar), n, m)
        expected = lower_program(ALGORITHMS.get(name), n, W)
        for column in ("src", "dst", "tag", "nbytes", "op_kind", "op_arg",
                       "op_ptr", "gate_ptr", "gate_mid", "rank_segments"):
            np.testing.assert_array_equal(
                getattr(lowered, column), getattr(expected, column)
            )

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    @given(data=st.data())
    def test_any_negative_entry_is_rejected(self, name, data):
        # Each rank checks only the row and column it reads; every
        # entry is some rank's row, so lowering still rejects each one.
        n = data.draw(st.integers(1, 7), label="ranks")
        W = np.ones((n, n), dtype=np.int64)
        W[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = -1
        with pytest.raises(ValueError, match="entries must be >= 0"):
            lower_program(ALGORITHMS.get(name), n, W)

    @pytest.mark.parametrize("name", sorted(MATRIX_ALGORITHMS))
    def test_wrong_shape_rejected(self, name):
        program = ALGORITHMS.get(name)
        log = {"sends": [], "recvs": [], "local": [], "pairs": {}}
        ctx = _RecordingContext(0, 4, log)
        with pytest.raises(ValueError, match="matrix"):
            list(program(ctx, np.zeros((3, 3))))
        with pytest.raises(ValueError, match=">= 0"):
            list(program(ctx, np.full((4, 4), -1)))
