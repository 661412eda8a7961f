"""Direct unit tests for the TCP loss model (:mod:`repro.simnet.loss`).

Both engines consume :class:`LossModel` from their resolve loops; these
tests pin its array semantics down without a simulation in between.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.entities import LinkKind
from repro.simnet.fairness import FlowPaths
from repro.simnet.loss import LossModel, LossParams

HOST_TX = LinkKind.HOST_TX
HOST_RX = LinkKind.HOST_RX
BACKPLANE = LinkKind.BACKPLANE


def _model(**kwargs) -> LossModel:
    """Three-link model (tx, backplane, rx) with small thresholds."""
    kwargs.setdefault("coeff_per_byte", 1e-6)
    kwargs.setdefault("sat_flows", {HOST_TX: 2, HOST_RX: 2, BACKPLANE: 4})
    params = LossParams(**kwargs)
    return LossModel(params, [HOST_TX, BACKPLANE, HOST_RX])


class _Draws:
    """An rng stand-in that returns scripted ``random()`` draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestParams:
    def test_enabled_iff_positive_coeff(self):
        assert not LossParams().enabled
        assert LossParams(coeff_per_byte=1e-9).enabled

    def test_rto_doubles_then_caps(self):
        params = LossParams(rto_min=0.2, rto_max=3.2)
        assert [params.rto(b) for b in range(6)] == [
            0.2, 0.4, 0.8, 1.6, 3.2, 3.2
        ]

    def test_rto_clamps_negative_backoff(self):
        assert LossParams().rto(-3) == LossParams().rto(0)

    def test_timeout_without_chains_is_one_rto(self):
        params = LossParams(rto_min=0.2, rto_max=3.2)
        rng = np.random.default_rng(0)
        assert params.timeout(2, rng) == (0.8, 3, 1)

    def test_timeout_chains_double_until_the_draw_fails(self):
        params = LossParams(
            rto_min=0.2, rto_max=3.2, chain_probability=0.5, chain_decay=0.5
        )
        # 0.4 < 0.5 chains, 0.3 > 0.25 stops: two RTOs, two losses.
        rng = _Draws([0.4, 0.3])
        assert params.timeout(0, rng) == (0.2 + 0.4, 2, 2)
        assert rng.values == []

    def test_timeout_chain_is_capped(self):
        params = LossParams(
            rto_min=0.2, rto_max=3.2, chain_probability=0.9,
            chain_decay=1.0, chain_max=2,
        )
        rng = _Draws([0.0] * 5)  # every retransmission would be lost
        assert params.timeout(0, rng) == (0.2 + 0.4 + 0.8, 3, 3)
        assert len(rng.values) == 3

    def test_sat_flows_defaults_generous(self):
        # Kinds missing from the table effectively never overload.
        params = LossParams(sat_flows={HOST_TX: 2})
        assert params.sat_flows_for(BACKPLANE) == 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            LossParams(coeff_per_byte=-1.0)
        with pytest.raises(ValueError):
            LossParams(rto_min=0.0)
        with pytest.raises(ValueError):
            LossParams(chain_probability=1.0)

    @pytest.mark.parametrize("flows", [0, -1, 0.5, float("nan")])
    def test_sat_flows_below_one_rejected(self, flows):
        # Below one flow, a saturated link's overload count/0 is
        # infinite and every epoch loses a packet.
        with pytest.raises(ValueError, match=r"sat_flows\[HOST_TX\] must be >= 1"):
            LossParams(coeff_per_byte=1e-9, sat_flows={HOST_TX: flows, HOST_RX: 2})

    def test_sat_flows_of_one_accepted(self):
        params = LossParams(sat_flows={HOST_TX: 1, HOST_RX: 1.0})
        assert params.sat_flows_for(HOST_TX) == params.sat_flows_for(HOST_RX) == 1


class TestOverloads:
    def test_requires_saturation_and_excess_flows(self):
        model = _model()
        counts = np.array([6, 6, 1])
        # Overloaded only where saturated AND flows exceed the threshold.
        over = model.overloads(counts, np.array([True, False, True]))
        assert over == pytest.approx([6 / 2 - 1, 0.0, 0.0])

    def test_unsaturated_links_never_overload(self):
        model = _model()
        over = model.overloads(np.array([100, 100, 100]), np.zeros(3, bool))
        assert not over.any()

    def test_within_buffering_clamps_to_zero(self):
        model = _model()
        # Saturated but fewer flows than the device buffers: no drops.
        over = model.overloads(np.array([1, 2, 1]), np.ones(3, bool))
        assert not over.any()


class TestFlowHazards:
    def test_empty_flow_set(self):
        model = _model()
        paths = FlowPaths.from_lists([])
        hazards = model.flow_hazards(
            paths, np.empty(0),
            np.zeros(3), np.zeros(3, bool),
        )
        assert hazards.shape == (0,)

    def test_disabled_params_zero_hazards(self):
        model = _model(coeff_per_byte=0.0)
        paths = FlowPaths.from_lists([(0, 1), (1, 2)])
        hazards = model.flow_hazards(
            paths, np.array([5.0, 5.0]),
            np.array([6, 6, 6]), np.ones(3, bool),
        )
        assert not hazards.any()

    def test_multi_link_worst_overload_segmented_max(self):
        model = _model()
        # Flow 0 crosses tx(0) + backplane(1); flow 1 only rx(2).
        paths = FlowPaths.from_lists([(0, 1), (2,)])
        counts = np.array([4, 12, 3])  # overloads: 1.0, 2.0, 0.5
        hazards = model.flow_hazards(
            paths, np.array([10.0, 20.0]),
            counts, np.ones(3, bool),
        )
        # Flow 0 takes the worst overload along its path (backplane 2.0).
        assert hazards[0] == pytest.approx(1e-6 * 10.0 * 2.0)
        assert hazards[1] == pytest.approx(1e-6 * 20.0 * 0.5)

    def test_hazard_scales_with_rate(self):
        model = _model()
        paths = FlowPaths.from_lists([(0,), (0,)])
        hazards = model.flow_hazards(
            paths, np.array([1.0, 3.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert hazards[1] == pytest.approx(3.0 * hazards[0])

    def test_backoff_factor_scaling(self):
        model = _model(backoff_hazard_factor=0.5)
        paths = FlowPaths.from_lists([(0,), (0,)])
        base = model.flow_hazards(
            paths, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        scaled = model.flow_hazards(
            paths, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([0.0, 4.0]),
        )
        assert scaled[0] == pytest.approx(base[0])
        assert scaled[1] == pytest.approx(base[1] * (1.0 + 0.5 * 4.0))

    def test_backoffs_ignored_when_factor_disabled(self):
        model = _model()  # backoff_hazard_factor = 0
        paths = FlowPaths.from_lists([(0,)])
        with_backoff = model.flow_hazards(
            paths, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([7.0]),
        )
        without = model.flow_hazards(
            paths, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert with_backoff == pytest.approx(without)


def reference_flow_hazards(model, paths, rates, link_flow_count, saturated, backoffs=None):
    """The hazards as first written: every call takes the segmented max
    with ``np.maximum.at`` over ``np.repeat`` of the row lengths, and
    the overload divide runs under ``np.errstate``.
    ``LossModel.flow_hazards`` must return the same bits."""
    n_flows = len(rates)
    if not model.params.enabled or n_flows == 0:
        return np.zeros(n_flows)
    with np.errstate(divide="ignore", invalid="ignore"):
        over = link_flow_count / model._sat_flows - 1.0
    over = np.where(saturated, np.maximum(over, 0.0), 0.0)
    per_entry = over[paths.link_ids]
    worst = np.zeros(n_flows)
    flow_of_entry = np.repeat(np.arange(n_flows), np.diff(paths.indptr))
    np.maximum.at(worst, flow_of_entry, per_entry)
    hazards = model.params.coeff_per_byte * rates * worst
    if backoffs is not None and model.params.backoff_hazard_factor > 0:
        hazards = hazards * (1.0 + model.params.backoff_hazard_factor * backoffs)
    return hazards


def _bits(array):
    return array.dtype.str, array.shape, array.tobytes()


@st.composite
def hazard_inputs(draw):
    """A solve's outputs on the three-link model: paths, rates, per-link
    flow counts and saturation, with backoffs drawn per flow; and the
    model's per-kind ``sat_flows`` thresholds."""
    thresholds = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    n_flows = draw(st.integers(min_value=1, max_value=12))
    paths = draw(st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True).map(tuple),
        min_size=n_flows, max_size=n_flows,
    ))
    rates = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e9), min_size=n_flows, max_size=n_flows,
    ))
    counts = draw(st.lists(st.integers(0, 8), min_size=3, max_size=3))
    saturated = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    backoffs = draw(st.lists(st.integers(0, 6), min_size=n_flows, max_size=n_flows))
    return (
        dict(zip((HOST_TX, BACKPLANE, HOST_RX), thresholds)),
        FlowPaths.from_lists(paths), np.array(rates), np.array(counts),
        np.array(saturated), np.array(backoffs, dtype=np.float64),
    )


class TestFlowHazardsBitIdentity:
    """``flow_hazards`` equals :func:`reference_flow_hazards` bit for bit,
    on its zero shortcut as well as on the segmented max."""

    @settings(max_examples=200)
    @given(hazard_inputs(), st.sampled_from([0.0, 0.5]), st.booleans())
    def test_matches_reference(self, inputs, factor, with_backoffs):
        sat_flows, paths, rates, counts, saturated, backoffs = inputs
        model = _model(sat_flows=sat_flows, backoff_hazard_factor=factor)
        backoffs = backoffs if with_backoffs else None
        hazards = model.flow_hazards(paths, rates, counts, saturated, backoffs)
        expected = reference_flow_hazards(
            model, paths, rates, counts, saturated, backoffs
        )
        assert _bits(hazards) == _bits(expected)

    def test_no_overload_gives_exact_zeros(self):
        # Saturated links within their buffering, and an overloaded
        # count on an unsaturated link: no flow is exposed.
        model = _model(backoff_hazard_factor=0.5)
        paths = FlowPaths.from_lists([(0, 1), (1, 2), (2,)])
        rates = np.array([3.0, 5.0, 7.0])
        counts = np.array([2, 9, 2])
        saturated = np.array([True, False, True])
        hazards = model.flow_hazards(
            paths, rates, counts, saturated, backoffs=np.array([0.0, 2.0, 5.0])
        )
        assert _bits(hazards) == _bits(np.zeros(3))
        assert _bits(hazards) == _bits(reference_flow_hazards(
            model, paths, rates, counts, saturated, np.array([0.0, 2.0, 5.0])
        ))
