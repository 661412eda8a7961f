"""Unit tests for the fluid network simulation."""

import pytest

from repro.exceptions import SimulationError
from repro.simnet.engine import Engine
from repro.simnet.entities import LinkKind
from repro.simnet.fluid import FlowState, FluidNetwork
from repro.simnet.loss import LossParams
from repro.simnet.penalty import HolPenalty
from repro.simnet.rng import RngFactory
from repro.simnet.topology import single_switch
from repro.simnet.trace import Trace


def make_net(
    n_hosts=4, nic=100e6, backplane=None, loss=None, hol=None, seed=0, on_complete=None
):
    engine = Engine()
    topo = single_switch(n_hosts, nic_bandwidth=nic, backplane_capacity=backplane)
    net = FluidNetwork(
        engine,
        topo,
        loss_params=loss,
        hol_penalty=hol,
        rng=RngFactory(seed).stream("loss"),
        trace=Trace(),
        on_complete=on_complete,
    )
    return engine, net


class TestSingleFlow:
    def test_transfer_time_is_bytes_over_bandwidth(self):
        engine, net = make_net(nic=100e6)
        flow = net.inject(0, 1, 100e6)
        engine.run()
        assert flow.state is FlowState.DONE
        assert flow.duration == pytest.approx(1.0, rel=1e-9)

    def test_completion_callback_fires_once_per_resolve(self):
        # One list per resolve that finished flows, at the completion
        # time, in slot order: two disjoint 50 MB flows finish together
        # at 0.5 s, the 100 MB one alone at 1 s.
        seen = []
        engine, net = make_net(
            on_complete=lambda flows: seen.append((engine.now, list(flows)))
        )
        first = net.inject(0, 1, 50e6)
        last = net.inject(1, 0, 100e6)
        second = net.inject(2, 3, 50e6)
        engine.run()
        assert seen == [(pytest.approx(0.5), [first, second]), (pytest.approx(1.0), [last])]

    def test_rejects_self_flow(self):
        _, net = make_net()
        with pytest.raises(SimulationError, match="same-host"):
            net.inject(0, 0, 100)

    def test_rejects_non_positive_size(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.inject(0, 1, 0)

    def test_flow_accounting(self):
        engine, net = make_net()
        net.inject(0, 1, 10e6)
        engine.run()
        assert net.flows_completed == 1
        assert net.active_count == 0


class TestSharing:
    def test_two_flows_same_source_share_tx(self):
        engine, net = make_net(nic=100e6)
        f1 = net.inject(0, 1, 100e6)
        f2 = net.inject(0, 2, 100e6)
        engine.run()
        # Each gets 50 MB/s on the shared TX NIC.
        assert f1.duration == pytest.approx(2.0, rel=1e-6)
        assert f2.duration == pytest.approx(2.0, rel=1e-6)

    def test_disjoint_pairs_full_rate(self):
        engine, net = make_net(nic=100e6)
        f1 = net.inject(0, 1, 100e6)
        f2 = net.inject(2, 3, 100e6)
        engine.run()
        assert f1.duration == pytest.approx(1.0, rel=1e-6)
        assert f2.duration == pytest.approx(1.0, rel=1e-6)

    def test_rate_reallocation_after_completion(self):
        # A short and a long flow from the same host: the long flow
        # speeds up after the short one finishes.
        engine, net = make_net(nic=100e6)
        short = net.inject(0, 1, 50e6)
        long = net.inject(0, 2, 100e6)
        engine.run()
        # Phase 1: both at 50 MB/s until short finishes at t=1.
        assert short.duration == pytest.approx(1.0, rel=1e-6)
        # Long moved 50 MB in phase 1, then 50 MB at 100 MB/s -> 1.5 s.
        assert long.duration == pytest.approx(1.5, rel=1e-6)

    def test_backplane_is_shared_bottleneck(self):
        engine, net = make_net(n_hosts=8, nic=100e6, backplane=200e6)
        flows = [net.inject(2 * i, 2 * i + 1, 100e6) for i in range(4)]
        engine.run()
        # 4 disjoint pairs but a 200 MB/s fabric: 50 MB/s each.
        for flow in flows:
            assert flow.duration == pytest.approx(2.0, rel=1e-6)

    def test_staggered_injection(self):
        engine, net = make_net(nic=100e6)
        first = net.inject(0, 1, 100e6)
        engine.schedule(0.5, lambda: net.inject(0, 2, 25e6))
        engine.run()
        # First runs alone 0.5s (50MB), shares 0.5s.. second finishes
        # at 0.5 + 25/50 = 1.0, first completes remaining 25MB at full rate.
        assert first.duration == pytest.approx(1.25, rel=1e-6)


class TestLossProcess:
    @staticmethod
    def lossy_params():
        return LossParams(
            coeff_per_byte=1e-6,
            sat_flows={
                LinkKind.HOST_RX: 1,
                LinkKind.HOST_TX: 1,
                LinkKind.BACKPLANE: 1,
            },
            rto_min=0.1,
            rto_max=0.4,
        )

    def test_no_loss_without_saturation_overload(self):
        # One flow per link: counts never exceed sat threshold of 1.
        engine, net = make_net(loss=self.lossy_params())
        flow = net.inject(0, 1, 10e6)
        engine.run()
        assert flow.losses == 0

    def test_overloaded_receiver_causes_losses(self):
        engine, net = make_net(loss=self.lossy_params(), seed=3)
        flows = [net.inject(src, 3, 50e6) for src in (0, 1, 2)]
        engine.run()
        assert net.total_losses > 0
        assert sum(f.losses for f in flows) == net.total_losses

    def test_losses_extend_completion_time(self):
        engine_clean, net_clean = make_net()
        for src in (0, 1, 2):
            net_clean.inject(src, 3, 50e6)
        engine_clean.run()
        clean_time = engine_clean.now

        engine_lossy, net_lossy = make_net(loss=self.lossy_params(), seed=3)
        for src in (0, 1, 2):
            net_lossy.inject(src, 3, 50e6)
        engine_lossy.run()
        assert net_lossy.total_losses > 0
        assert engine_lossy.now > clean_time

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            engine, net = make_net(loss=self.lossy_params(), seed=7)
            flows = [net.inject(src, 3, 50e6) for src in (0, 1, 2)]
            engine.run()
            results.append([f.duration for f in flows])
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        durations = []
        for seed in (1, 2):
            engine, net = make_net(loss=self.lossy_params(), seed=seed)
            [net.inject(src, 3, 50e6) for src in (0, 1, 2)]
            engine.run()
            durations.append(engine.now)
        assert durations[0] != durations[1]

    def test_stall_and_resume_traced(self):
        engine, net = make_net(loss=self.lossy_params(), seed=3)
        [net.inject(src, 3, 50e6) for src in (0, 1, 2)]
        engine.run()
        losses = net.trace.by_category("flow.stall")
        resumes = net.trace.by_category("flow.resume")
        assert len(losses) == net.total_losses
        # Every stall eventually resumed (no flow left stranded).
        assert len(resumes) == len(losses)

    def test_loss_requires_rng(self):
        engine = Engine()
        topo = single_switch(2, nic_bandwidth=1e6)
        with pytest.raises(ValueError, match="rng"):
            FluidNetwork(engine, topo, loss_params=self.lossy_params())


class TestHolPenalty:
    def test_penalty_slows_contended_port(self):
        engine, net = make_net()
        [net.inject(src, 3, 50e6) for src in (0, 1)]
        engine.run()
        base = engine.now

        engine2, net2 = make_net(
            hol=HolPenalty(eta={LinkKind.HOST_RX: 1.0})
        )
        [net2.inject(src, 3, 50e6) for src in (0, 1)]
        engine2.run()
        # eta=1, two flows -> effective rx capacity halved.
        assert engine2.now == pytest.approx(2 * base, rel=1e-6)

    def test_penalty_inactive_for_single_flow(self):
        engine, net = make_net(hol=HolPenalty(eta={LinkKind.HOST_RX: 1.0}))
        flow = net.inject(0, 1, 100e6)
        engine.run()
        assert flow.duration == pytest.approx(1.0, rel=1e-6)


class TestConservation:
    def test_bytes_conserved_across_many_flows(self, rng):
        engine, net = make_net(n_hosts=6, backplane=300e6)
        sizes = rng.uniform(1e6, 50e6, size=12)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 6, size=(12, 2)) if a != b]
        flows = [
            net.inject(src, dst, s)
            for (src, dst), s in zip(pairs, sizes)
        ]
        engine.run()
        for flow in flows:
            assert flow.state is FlowState.DONE
            assert flow.remaining == 0.0
