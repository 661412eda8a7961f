"""Unit + property tests for the message exchange digraph and bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bounds import (
    alltoall_lower_bound,
    bandwidth_lower_bound,
    combined_lower_bound,
    delta_eligible_rounds,
    min_startups,
    naive_model,
)
from repro.core.hockney import HockneyParams
from repro.core.med import MED

PARAMS = HockneyParams(alpha=1e-4, beta=1e-8)


class TestMedConstruction:
    def test_alltoall_complete_digraph(self):
        med = MED.alltoall(4, 100)
        assert med.n_processes == 4
        assert med.n_messages == 12
        assert med.weight(0, 1) == 100
        assert med.weight(0, 0) == 0

    def test_self_message_rejected(self):
        med = MED(3)
        with pytest.raises(ValueError):
            med.add_message(1, 1, 10)

    def test_weights_accumulate(self):
        med = MED(2)
        med.add_message(0, 1, 10)
        med.add_message(0, 1, 5)
        assert med.weight(0, 1) == 15

    def test_from_matrix_roundtrip(self):
        W = np.array([[0, 5, 0], [2, 0, 9], [0, 0, 0]])
        med = MED.from_matrix(W)
        assert np.array_equal(med.to_matrix(), W)

    def test_from_matrix_requires_square(self):
        with pytest.raises(ValueError):
            MED.from_matrix(np.zeros((2, 3)))

    def test_is_regular_alltoall(self):
        assert MED.alltoall(5, 64).is_regular_alltoall()
        irregular = MED(3)
        irregular.add_message(0, 1, 10)
        assert not irregular.is_regular_alltoall()

    def test_to_matrix_is_a_copy(self):
        med = MED.alltoall(3, 5)
        med.to_matrix()[0, 1] = 99
        assert med.weight(0, 1) == 5

    @pytest.mark.parametrize("src, dst", [(0, 7), (-1, 2), (4, 0)])
    def test_vertex_ids_outside_range_rejected(self, src, dst):
        med = MED(4)
        with pytest.raises(ValueError, match="no process"):
            med.add_message(src, dst, 10)
        with pytest.raises(ValueError, match="no process"):
            med.weight(src, dst)
        bad = dst if 0 <= src < 4 else src
        for query in (
            med.out_degree, med.in_degree, med.send_bytes, med.recv_bytes
        ):
            with pytest.raises(ValueError, match="no process"):
                query(bad)
        assert med.n_processes == 4
        assert med.n_messages == 0


class TestDegreesAndBytes:
    def test_alltoall_degrees(self):
        med = MED.alltoall(6, 10)
        assert med.max_out_degree == 5
        assert med.max_in_degree == 5
        assert med.out_degree(0) == 5
        assert med.in_degree(3) == 5

    def test_send_recv_bytes(self):
        med = MED.alltoall(4, 100)
        assert med.send_bytes(0) == 300
        assert med.recv_bytes(2) == 300
        assert med.max_send_bytes == 300
        assert med.max_recv_bytes == 300

    def test_asymmetric_exchange(self):
        med = MED(3)
        med.add_message(0, 1, 100)
        med.add_message(0, 2, 100)
        med.add_message(1, 0, 7)
        assert med.max_out_degree == 2
        assert med.max_in_degree == 1
        assert med.max_send_bytes == 200
        assert med.max_recv_bytes == 100


class TestBounds:
    def test_claim1_startups(self):
        assert min_startups(MED.alltoall(8, 1)) == 7

    def test_claim2_bandwidth(self):
        med = MED.alltoall(4, 1000)
        assert bandwidth_lower_bound(med, PARAMS) == pytest.approx(
            3000 * PARAMS.beta
        )

    def test_claim3_combines(self):
        med = MED.alltoall(4, 1000)
        expected = 3 * PARAMS.alpha + 3000 * PARAMS.beta
        assert combined_lower_bound(med, PARAMS) == pytest.approx(expected)

    def test_proposition1_matches_formula(self):
        n, m = 24, 1_048_576
        expected = (n - 1) * (PARAMS.alpha + m * PARAMS.beta)
        assert alltoall_lower_bound(n, m, PARAMS) == pytest.approx(expected)

    def test_proposition1_equals_claim3_for_regular_alltoall(self):
        n, m = 7, 4096
        med = MED.alltoall(n, m)
        assert combined_lower_bound(med, PARAMS) == pytest.approx(
            alltoall_lower_bound(n, m, PARAMS)
        )

    def test_naive_model_alias(self):
        assert naive_model(10, 100, PARAMS) == alltoall_lower_bound(10, 100, PARAMS)

    def test_vectorised_over_m(self):
        sizes = np.array([1, 10, 100])
        bounds = alltoall_lower_bound(4, sizes, PARAMS)
        assert bounds.shape == (3,)
        assert np.all(np.diff(bounds) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            alltoall_lower_bound(0, 10, PARAMS)
        with pytest.raises(ValueError):
            alltoall_lower_bound(4, -1, PARAMS)


class TestBoundProperties:
    @given(
        n=st.integers(min_value=2, max_value=32),
        m=st.integers(min_value=1, max_value=10**7),
    )
    def test_prop1_consistency_with_med(self, n, m):
        med = MED.alltoall(n, m)
        assert combined_lower_bound(med, PARAMS) == pytest.approx(
            alltoall_lower_bound(n, m, PARAMS), rel=1e-12
        )

    @given(
        n=st.integers(min_value=2, max_value=32),
        m=st.integers(min_value=1, max_value=10**6),
    )
    def test_bound_monotone_in_n_and_m(self, n, m):
        assert alltoall_lower_bound(n + 1, m, PARAMS) > alltoall_lower_bound(
            n, m, PARAMS
        )
        assert alltoall_lower_bound(n, m + 1, PARAMS) > alltoall_lower_bound(
            n, m, PARAMS
        )

    @given(st.integers(min_value=2, max_value=24))
    def test_startups_match_degree_for_alltoall(self, n):
        assert min_startups(MED.alltoall(n, 1)) == n - 1


# -- the MED against a plain-loop reference --------------------------------

def _reference_from_matrix(W) -> dict:
    """Arcs of a weight matrix: positive off-diagonal entries, truncated."""
    n = len(W)
    return {
        (i, j): int(W[i][j])
        for i in range(n) for j in range(n)
        if i != j and W[i][j] > 0
    }


def _reference_from_messages(messages) -> dict:
    """Arcs of an ``add_message`` sequence: repeated arcs accumulate."""
    arcs: dict = {}
    for src, dst, nbytes in messages:
        arcs[(src, dst)] = arcs.get((src, dst), 0) + nbytes
    return arcs


@st.composite
def _meds(draw):
    """(n, MED, reference arc dict) from one of four constructions.

    Zero-byte arcs come from three of them: ``alltoall`` with size 0,
    zero-byte messages, and fractional matrix entries in (0, 1).
    """
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(
        st.sampled_from(["alltoall", "integer", "fractional", "messages"])
    )
    if kind == "alltoall":
        m = draw(st.integers(min_value=0, max_value=3))
        arcs = {(i, j): m for i in range(n) for j in range(n) if i != j}
        return n, MED.alltoall(n, m), arcs
    if kind == "messages":
        vertex = st.integers(min_value=0, max_value=n - 1)
        message = st.tuples(vertex, vertex, st.integers(0, 9)).filter(
            lambda m: m[0] != m[1]
        )
        messages = draw(st.lists(message, max_size=3 * n)) if n > 1 else []
        med = MED(n)
        for src, dst, nbytes in messages:
            med.add_message(src, dst, nbytes)
        return n, med, _reference_from_messages(messages)
    if kind == "integer":
        cells = st.integers(min_value=-2, max_value=40)
    else:
        cells = st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.5, 7.75])
    flat = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    W = [flat[i * n:(i + 1) * n] for i in range(n)]
    return n, MED.from_matrix(W), _reference_from_matrix(W)


class TestMatchesReference:
    @given(_meds())
    def test_every_query_matches_the_arc_dict(self, case):
        n, med, arcs = case
        nodes = range(n)
        out_deg = [sum(1 for (i, _) in arcs if i == v) for v in nodes]
        in_deg = [sum(1 for (_, j) in arcs if j == v) for v in nodes]
        sent = [sum(w for (i, _), w in arcs.items() if i == v) for v in nodes]
        received = [sum(w for (_, j), w in arcs.items() if j == v) for v in nodes]

        assert med.n_processes == n
        assert med.n_messages == len(arcs)
        for i in nodes:
            for j in nodes:
                assert med.weight(i, j) == arcs.get((i, j), 0)
            assert med.out_degree(i) == out_deg[i]
            assert med.in_degree(i) == in_deg[i]
            assert med.send_bytes(i) == sent[i]
            assert med.recv_bytes(i) == received[i]
        assert med.max_out_degree == max(out_deg)
        assert med.max_in_degree == max(in_deg)
        assert med.max_send_bytes == max(sent)
        assert med.max_recv_bytes == max(received)
        assert med.is_regular_alltoall() == (
            len(arcs) == n * (n - 1) and len(set(arcs.values())) <= 1
        )
        expected = np.zeros((n, n), dtype=np.int64)
        for (i, j), w in arcs.items():
            expected[i, j] = w
        np.testing.assert_array_equal(med.to_matrix(), expected)

        startups = max(max(out_deg), max(in_deg))
        bandwidth = max(max(sent) * PARAMS.beta, max(received) * PARAMS.beta)
        assert min_startups(med) == startups
        assert bandwidth_lower_bound(med, PARAMS) == bandwidth
        assert combined_lower_bound(med, PARAMS) == (
            startups * PARAMS.alpha + bandwidth
        )
        for threshold in (-1, 0, 1, 2, 5, 9, 10, 41):
            eligible = {arc for arc, w in arcs.items() if w >= threshold}
            assert delta_eligible_rounds(med, threshold) == max(
                max(sum(1 for (i, _) in eligible if i == v) for v in nodes),
                max(sum(1 for (_, j) in eligible if j == v) for v in nodes),
            )
