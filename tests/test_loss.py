"""Direct unit tests for the TCP loss model (:mod:`repro.simnet.loss`).

Both engines consume :class:`LossModel` from their resolve loops; these
tests pin its array semantics down without a simulation in between.
"""

from __future__ import annotations

import numpy as np
import pytest

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
            paths.link_ids, paths.indptr, np.empty(0),
            np.zeros(3), np.zeros(3, bool),
        )
        assert hazards.shape == (0,)

    def test_disabled_params_zero_hazards(self):
        model = _model(coeff_per_byte=0.0)
        paths = FlowPaths.from_lists([(0, 1), (1, 2)])
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([5.0, 5.0]),
            np.array([6, 6, 6]), np.ones(3, bool),
        )
        assert not hazards.any()

    def test_multi_link_worst_overload_segmented_max(self):
        model = _model()
        # Flow 0 crosses tx(0) + backplane(1); flow 1 only rx(2).
        paths = FlowPaths.from_lists([(0, 1), (2,)])
        counts = np.array([4, 12, 3])  # overloads: 1.0, 2.0, 0.5
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([10.0, 20.0]),
            counts, np.ones(3, bool),
        )
        # Flow 0 takes the worst overload along its path (backplane 2.0).
        assert hazards[0] == pytest.approx(1e-6 * 10.0 * 2.0)
        assert hazards[1] == pytest.approx(1e-6 * 20.0 * 0.5)

    def test_hazard_scales_with_rate(self):
        model = _model()
        paths = FlowPaths.from_lists([(0,), (0,)])
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 3.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert hazards[1] == pytest.approx(3.0 * hazards[0])

    def test_backoff_factor_scaling(self):
        model = _model(backoff_hazard_factor=0.5)
        paths = FlowPaths.from_lists([(0,), (0,)])
        base = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        scaled = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([0.0, 4.0]),
        )
        assert scaled[0] == pytest.approx(base[0])
        assert scaled[1] == pytest.approx(base[1] * (1.0 + 0.5 * 4.0))

    def test_backoffs_ignored_when_factor_disabled(self):
        model = _model()  # backoff_hazard_factor = 0
        paths = FlowPaths.from_lists([(0,)])
        with_backoff = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([7.0]),
        )
        without = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert with_backoff == pytest.approx(without)
