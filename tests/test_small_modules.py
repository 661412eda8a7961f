"""Unit tests for units, rng, resources, trace, stats, penalty, loss params."""

import numpy as np
import pytest

from repro.simnet.engine import Engine
from repro.simnet.entities import LinkKind
from repro.simnet.loss import LossParams
from repro.simnet.penalty import HolPenalty
from repro.simnet.resources import SerialResource
from repro.simnet.rng import RngFactory
from repro.simnet.stats import summarize
from repro.simnet.trace import NullTrace, Trace
from repro.units import (
    bandwidth_to_beta,
    beta_to_bandwidth,
    format_bandwidth,
    format_size,
    format_time,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("32 MB", 32 * 1024 * 1024),
            ("8kB", 8 * 1024),
            ("1024 kb", 1024 * 1024),
            ("100", 100),
            (100, 100),
            (2.5, 2),
            ("1.5 KiB", 1536),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_invalid(self):
        with pytest.raises(ValueError):
            parse_size("banana")
        with pytest.raises(ValueError):
            parse_size(-5)

    def test_format_time_units(self):
        assert format_time(1.5) == "1.500 s"
        assert format_time(2e-3) == "2.000 ms"
        assert format_time(3e-6) == "3.000 us"
        assert format_time(5e-9) == "5.0 ns"

    def test_format_size(self):
        assert format_size(512) == "512 B"
        assert "KiB" in format_size(2048)
        assert "MiB" in format_size(5 * 1024 * 1024)

    def test_bandwidth_beta_roundtrip(self):
        assert beta_to_bandwidth(bandwidth_to_beta(1e8)) == pytest.approx(1e8)
        with pytest.raises(ValueError):
            bandwidth_to_beta(0)
        with pytest.raises(ValueError):
            beta_to_bandwidth(-1)

    def test_format_bandwidth(self):
        assert format_bandwidth(117.6e6) == "117.60 MB/s"


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngFactory(1).stream("x")
        b = RngFactory(1).stream("x")
        assert a.random() == b.random()

    def test_different_names_different_streams(self):
        f = RngFactory(1)
        assert f.stream("x").random() != f.stream("y").random()

    def test_child_factories_independent(self):
        f = RngFactory(1)
        assert f.child("a").seed != f.child("b").seed
        assert f.child("a").seed == RngFactory(1).child("a").seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("seed")


class TestSerialResource:
    def test_fifo_service(self):
        engine = Engine()
        done = []
        cpu = SerialResource(engine, 0.5, lambda ident: done.append((ident, engine.now)))
        cpu.request(4)
        cpu.request(2)
        engine.run()
        assert done == [(4, 0.5), (2, 1.0)]

    def test_zero_duration_keeps_order(self):
        engine = Engine()
        order = []
        cpu = SerialResource(engine, 0.0, order.append)
        cpu.request(1)
        cpu.request(0)
        engine.run()
        assert order == [1, 0]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SerialResource(Engine(), -1.0, lambda ident: None)

    def test_callback_runs_before_the_next_service_starts(self):
        engine = Engine()
        done = []

        def finished(ident):
            done.append((ident, engine.now, cpu.busy))
            if ident == 0:
                # Queues behind request 1, which was waiting already.
                cpu.request(2)

        cpu = SerialResource(engine, 1.0, finished)
        cpu.request(0)
        cpu.request(1)
        engine.run()
        assert done == [(0, 1.0, True), (1, 2.0, True), (2, 3.0, True)]
        assert not cpu.busy


class TestTrace:
    def test_emit_and_query(self):
        trace = Trace()
        trace.emit(1.0, "a", x=1)
        trace.emit(2.0, "b", y=2)
        trace.emit(3.0, "a", x=3)
        assert len(trace) == 3
        assert [r["x"] for r in trace.by_category("a")] == [1, 3]
        assert trace.categories() == {"a", "b"}

    def test_null_trace_drops(self):
        trace = NullTrace()
        trace.emit(1.0, "a", x=1)
        assert len(trace) == 0


class TestStats:
    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_single_value_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestHolPenalty:
    def test_effective_capacity_formula(self):
        p = HolPenalty(eta={LinkKind.HOST_RX: 0.5})
        kinds = [LinkKind.HOST_RX, LinkKind.HOST_TX]
        eta = p.eta_vector(kinds)
        caps = np.array([100.0, 100.0])
        eff = p.effective(caps, eta, np.array([3, 3]))
        assert eff[0] == pytest.approx(100.0 / 2.0)  # 1 + 0.5*2
        assert eff[1] == pytest.approx(100.0)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            HolPenalty(eta={LinkKind.HOST_RX: -0.1})

    def test_enabled_flag(self):
        assert not HolPenalty().enabled
        assert HolPenalty(eta={LinkKind.TRUNK: 0.1}).enabled


class TestLossParams:
    def test_rto_backoff_doubles_with_cap(self):
        p = LossParams(coeff_per_byte=1.0, rto_min=0.2, rto_max=1.0)
        assert p.rto(0) == pytest.approx(0.2)
        assert p.rto(1) == pytest.approx(0.4)
        assert p.rto(5) == pytest.approx(1.0)  # capped

    def test_sat_flows_default_generous(self):
        p = LossParams(coeff_per_byte=1.0)
        assert p.sat_flows_for(LinkKind.TRUNK) >= 10**6

    def test_validation(self):
        with pytest.raises(ValueError):
            LossParams(coeff_per_byte=-1.0)
        with pytest.raises(ValueError):
            LossParams(coeff_per_byte=1.0, rto_min=0.0)
        with pytest.raises(ValueError):
            LossParams(coeff_per_byte=1.0, chain_probability=1.5)

    def test_enabled(self):
        assert not LossParams().enabled
        assert LossParams(coeff_per_byte=1e-9).enabled
