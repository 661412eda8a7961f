"""Additional runtime semantics: request lifecycle and program shapes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clusters.profiles import get_cluster
from repro.simmpi.request import ANY_SOURCE, RecvRequest, Request, SendRequest
from repro.simmpi.runtime import Runtime
from repro.simmpi.transport import TransportParams
from repro.simnet.topology import single_switch


class TestRequestObjects:
    def test_complete_fires_callbacks_once(self):
        req = Request(0)
        fired = []
        req.on_done(lambda: fired.append(1))
        req.complete(1.5)
        assert fired == [1]
        assert req.done
        assert req.completion_time == 1.5

    def test_double_complete_rejected(self):
        req = Request(0)
        req.complete(1.0)
        with pytest.raises(RuntimeError, match="twice"):
            req.complete(2.0)

    def test_on_done_after_completion_fires_immediately(self):
        req = Request(0)
        req.complete(1.0)
        fired = []
        req.on_done(lambda: fired.append(1))
        assert fired == [1]

    def test_send_request_fields(self):
        req = SendRequest(rank=2, dst=5, tag=7, nbytes=100)
        assert (req.rank, req.dst, req.tag, req.nbytes) == (2, 5, 7, 100)
        assert math.isnan(req.completion_time)

    def test_recv_matching_rules(self):
        req = RecvRequest(rank=0, source=3, tag=9)
        assert req.matches(3, 9)
        assert not req.matches(2, 9)
        assert not req.matches(3, 8)
        wild = RecvRequest(rank=0, source=ANY_SOURCE, tag=9)
        assert wild.matches(7, 9)


class TestTransportParams:
    def test_segments_ceiling(self):
        params = TransportParams(mss=1000)
        assert params.segments(1) == 1
        assert params.segments(1000) == 1
        assert params.segments(1001) == 2
        assert params.segments(0) == 1

    def test_wire_bytes_includes_envelope_and_framing(self):
        params = TransportParams(
            mss=1000, envelope_bytes=50, per_segment_wire_bytes=10
        )
        assert params.wire_bytes(2500) == 2500 + 50 + 3 * 10

    def test_eager_boundary(self):
        params = TransportParams(eager_threshold=100)
        assert params.is_eager(99)
        assert not params.is_eager(100)

    def test_local_copy_time(self):
        params = TransportParams(local_copy_bandwidth=1e9)
        assert params.local_copy_time(1e9) == pytest.approx(1.0)

    def test_mux_applies_logic(self):
        params = TransportParams(mux_overhead=1e-3, mux_threshold=1000)
        assert params.mux_applies(2000, 2)
        assert not params.mux_applies(500, 2)  # below size threshold
        assert not params.mux_applies(2000, 1)  # single stream
        quiet = TransportParams(mux_overhead=0.0)
        assert not quiet.mux_applies(10**6, 50)

    @pytest.mark.parametrize("cluster", ("fast-ethernet", "gigabit-ethernet", "myrinet"))
    @given(payloads=st.lists(st.integers(0, 10**9), min_size=1, max_size=30))
    def test_message_costs_match_scalar_methods(self, cluster, payloads):
        # The array form must reproduce the scalar float operations
        # bit for bit: the vector engine's setup relies on it.
        params = get_cluster(cluster).transport
        eager, submit, wire = params.message_costs(np.array(payloads))
        assert eager.tolist() == [params.is_eager(p) for p in payloads]
        assert [x.hex() for x in submit.tolist()] == [
            params.submit_cost(p).hex() for p in payloads
        ]
        assert [x.hex() for x in wire.tolist()] == [
            params.wire_bytes(p).hex() for p in payloads
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportParams(mss=0)
        with pytest.raises(ValueError):
            TransportParams(base_latency=-1.0)
        with pytest.raises(ValueError):
            TransportParams(sender_concurrency=0)


class TestManyToOnePatterns:
    """Gather/scatter-shaped programs exercise matching under fan-in."""

    @staticmethod
    def build(n=5):
        topo = single_switch(n, nic_bandwidth=100e6)
        params = TransportParams(
            base_latency=1e-6, eager_threshold=65_536, envelope_bytes=0,
            mss=10**9, per_segment_wire_bytes=0, jitter_scale=0.0,
            per_message_send_overhead=0.0, ctrl_overhead=0.0,
        )
        return Runtime(topo, params, nprocs=n, seed=0)

    def test_gather_with_wildcards(self):
        n = 5

        def prog(ctx):
            if ctx.rank == 0:
                reqs = [ctx.irecv(ANY_SOURCE, tag=1) for _ in range(n - 1)]
                yield reqs
                assert sorted(r.source for r in reqs) == list(range(1, n))
            else:
                yield ctx.isend(0, 1000 * ctx.rank, tag=1)

        self.build(n).run(prog)

    def test_scatter_then_reduce_roundtrip(self):
        n = 5

        def prog(ctx):
            if ctx.rank == 0:
                sends = [ctx.isend(dst, 4096, tag=2) for dst in range(1, n)]
                yield sends
                acks = [ctx.irecv(src, tag=3) for src in range(1, n)]
                yield acks
            else:
                req = ctx.irecv(0, tag=2)
                yield req
                assert req.nbytes == 4096
                yield ctx.isend(0, 8, tag=3)

        result = self.build(n).run(prog)
        assert result.duration > 0

    def test_ring_shift_pattern(self):
        n = 5

        def prog(ctx):
            right = (ctx.rank + 1) % n
            left = (ctx.rank - 1) % n
            for step in range(3):
                send = ctx.isend(right, 2048, tag=10 + step)
                recv = ctx.irecv(left, tag=10 + step)
                yield [send, recv]

        result = self.build(n).run(prog)
        assert result.flows_completed == 3 * n
