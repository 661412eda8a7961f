"""Unit tests for the MPI-like runtime: matching, protocols, semantics."""

import pytest

from repro.clusters.profiles import get_cluster
from repro.exceptions import DeadlockError, LoweringError
from repro.registry import ENGINES
from repro.simmpi.lowering import ANY_SOURCE, ANY_TAG, lower_program
from repro.simmpi.runtime import Runtime
from repro.simmpi.transport import TransportParams
from repro.simnet.topology import single_switch
from repro.simnet.trace import Trace


def make_runtime(n=2, nic=100e6, trace=None, **transport_kwargs) -> Runtime:
    defaults = dict(
        name="test",
        base_latency=10e-6,
        eager_threshold=65_536,
        envelope_bytes=0,
        mss=1_000_000_000,  # effectively no segmentation
        per_segment_wire_bytes=0,
        per_segment_host_time=0.0,
        per_message_send_overhead=0.0,
        ctrl_overhead=0.0,
        jitter_scale=0.0,
    )
    defaults.update(transport_kwargs)
    topo = single_switch(n, nic_bandwidth=nic)
    return Runtime(
        topo, TransportParams(**defaults), nprocs=n, seed=0, trace=trace
    )


def received(prog, n=2):
    """``(rank, src, tag, nbytes)`` of every completed receive, in order."""
    trace = Trace()
    make_runtime(n, trace=trace).run(prog)
    return [
        (r["rank"], r["src"], r["tag"], r["nbytes"])
        for r in trace.by_category("mpi.recv_complete")
    ]


def paired_sizes(prog, n=2):
    """Per rank, the sizes of the messages its receives pair with, in
    post order (the static matching the replay executes)."""
    lowered = lower_program(prog, n)
    return [
        [
            int(lowered.nbytes[mid])
            for segment in segments
            for kind, mid in segment.ops
            if kind == "recv"
        ]
        for segments in lowered.segments
    ]


class TestBasicSendRecv:
    def test_eager_message_delivered(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000, tag=5)
            else:
                yield ctx.irecv(0, tag=5)

        assert received(prog) == [(1, 0, 5, 1000)]

    def test_one_way_time_close_to_alpha_plus_m_beta(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 100_000_000)  # rendezvous path
            else:
                yield ctx.irecv(0, tag=0)

        result = make_runtime().run(prog)
        # wire time 1s + handshake/latency epsilon
        assert result.duration == pytest.approx(1.0, rel=0.01)

    def test_recv_before_send_matches(self):
        def prog(ctx):
            if ctx.rank == 1:
                req = ctx.irecv(0, tag=1)
                yield req
            else:
                yield ctx.isend(1, 10, tag=1)

        make_runtime().run(prog)

    def test_unexpected_message_queued_until_recv(self):
        # Rank 1 posts its receive only after waiting on an unrelated
        # exchange, so rank 0's message sits in the unexpected queue.
        def prog(ctx):
            if ctx.rank == 0:
                early = ctx.isend(1, 10, tag=9)
                yield early
                yield ctx.irecv(1, tag=123)
            else:
                yield ctx.isend(0, 5, tag=123)
                yield ctx.irecv(0, tag=9)

        assert (1, 0, 9, 10) in received(prog)


class TestMatchingSemantics:
    def test_tag_selectivity(self):
        def prog(ctx):
            if ctx.rank == 0:
                a = ctx.isend(1, 100, tag=1)
                b = ctx.isend(1, 200, tag=2)
                yield [a, b]
            else:
                two = ctx.irecv(0, tag=2)
                one = ctx.irecv(0, tag=1)
                yield [one, two]

        assert paired_sizes(prog) == [[], [200, 100]]
        assert sorted(received(prog)) == [(1, 0, 1, 100), (1, 0, 2, 200)]

    def test_non_overtaking_same_pair_same_tag(self):
        # Two same-tag messages must match posted receives in order.
        def prog(ctx):
            if ctx.rank == 0:
                first = ctx.isend(1, 1000, tag=7)
                second = ctx.isend(1, 2000, tag=7)
                yield [first, second]
            else:
                r1 = ctx.irecv(0, tag=7)
                r2 = ctx.irecv(0, tag=7)
                yield [r1, r2]

        assert paired_sizes(prog) == [[], [1000, 2000]]
        assert received(prog) == [(1, 0, 7, 1000), (1, 0, 7, 2000)]

    def test_non_overtaking_eager_after_rendezvous(self):
        # A big rendezvous message followed by a small eager one on the
        # same pair: MPI order must still hold.
        def prog(ctx):
            if ctx.rank == 0:
                big = ctx.isend(1, 200_000, tag=7)  # rendezvous
                small = ctx.isend(1, 8, tag=7)  # eager
                yield [big, small]
            else:
                r1 = ctx.irecv(0, tag=7)
                r2 = ctx.irecv(0, tag=7)
                yield [r1, r2]

        assert paired_sizes(prog) == [[], [200_000, 8]]
        # A slow RTS handshake lets the eager message arrive first; its
        # receive completes only once the envelope ahead of it is in.
        trace = Trace()
        make_runtime(trace=trace, ctrl_overhead=1e-3).run(prog)
        (small,) = [
            r for r in trace.by_category("mpi.recv_complete") if r["nbytes"] == 8
        ]
        assert small.time >= 1e-3


class TestStaticSemantics:
    """Dynamic MPI semantics neither engine supports: both reject them
    while the program is lowered."""

    @staticmethod
    def _run(engine, prog):
        return ENGINES.get(engine)(get_cluster("myrinet"), 2, prog, None, 0)

    @pytest.mark.parametrize("engine", ("fluid", "vector"))
    def test_wildcard_receives_rejected(self, engine):
        for src, tag in ((ANY_SOURCE, 4), (1, ANY_TAG), (ANY_SOURCE, ANY_TAG)):

            def prog(ctx, _arg):
                if ctx.rank == 0:
                    yield ctx.irecv(src, tag=tag)
                else:
                    yield ctx.isend(0, 77, tag=4)

            with pytest.raises(LoweringError, match="wildcard"):
                self._run(engine, prog)

    @pytest.mark.parametrize("engine", ("fluid", "vector"))
    def test_status_reads_rejected(self, engine):
        for field in ("source", "tag", "nbytes"):

            def prog(ctx, _arg):
                if ctx.rank == 0:
                    yield ctx.isend(1, 10, tag=3)
                else:
                    req = ctx.irecv(0, tag=3)
                    yield req
                    getattr(req, field)

            with pytest.raises(LoweringError, match=f"status \\({field}\\)"):
                self._run(engine, prog)


class TestSelfMessages:
    def test_send_to_self_completes(self):
        def prog(ctx):
            if ctx.rank == 0:
                send = ctx.isend(0, 1234, tag=3)
                recv = ctx.irecv(0, tag=3)
                yield [send, recv]
            else:
                return
                yield  # pragma: no cover

        assert received(prog) == [(0, 0, 3, 1234)]

    def test_self_message_never_touches_network(self):
        runtime = make_runtime()

        def prog(ctx):
            if ctx.rank == 0:
                send = ctx.isend(0, 10_000, tag=3)
                recv = ctx.irecv(0, tag=3)
                yield [send, recv]
            else:
                return
                yield  # pragma: no cover

        result = runtime.run(prog)
        assert result.flows_completed == 0


class TestProtocols:
    def test_rendezvous_slower_than_eager_for_same_payload(self):
        # Same payload, flip the protocol by moving the threshold.
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 50_000)
            else:
                yield ctx.irecv(0, tag=0)

        eager = make_runtime(eager_threshold=1_000_000).run(prog)
        rendezvous = make_runtime(eager_threshold=1_000).run(prog)
        assert rendezvous.duration > eager.duration

    def test_envelope_bytes_slow_small_messages(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 100)
            else:
                yield ctx.irecv(0, tag=0)

        lean = make_runtime(envelope_bytes=0).run(prog)
        fat = make_runtime(envelope_bytes=100_000).run(prog)
        assert fat.duration > lean.duration

    def test_sender_concurrency_serialises(self):
        def prog(ctx):
            if ctx.rank == 0:
                reqs = [ctx.isend(dst, 50_000_000) for dst in (1, 2)]
                yield reqs
            else:
                yield ctx.irecv(0, tag=0)

        def run(concurrency):
            topo = single_switch(3, nic_bandwidth=100e6)
            params = TransportParams(
                name="t", base_latency=0.0, eager_threshold=10**9,
                envelope_bytes=0, mss=10**9, per_segment_wire_bytes=0,
                sender_concurrency=concurrency, jitter_scale=0.0,
                per_message_send_overhead=0.0, ctrl_overhead=0.0,
            )
            return Runtime(topo, params, nprocs=3, seed=0).run(prog)

        shared = run(None)  # both flows share the TX NIC: 1s total
        serial = run(1)  # one after the other: also 1s total... but
        # with eager_threshold high, rendezvous handshakes pipeline;
        # equal total is expected — check per-flow overlap instead via
        # duration equality.
        assert shared.duration == pytest.approx(serial.duration, rel=0.05)

    def test_mux_overhead_charged_above_threshold(self):
        def prog(ctx):
            n = ctx.size
            if ctx.rank < n - 1:
                yield ctx.isend(n - 1, 100_000)
            else:
                yield [ctx.irecv(src, tag=0) for src in range(n - 1)]

        quiet = make_runtime(4, mux_overhead=0.0).run(prog)
        noisy = make_runtime(
            4, mux_overhead=0.05, mux_threshold=1_000
        ).run(prog)
        # 3 concurrent inbound messages, serialized 50 ms demux each.
        assert noisy.duration - quiet.duration > 0.09

    def test_mux_not_charged_below_threshold(self):
        def prog(ctx):
            n = ctx.size
            if ctx.rank < n - 1:
                yield ctx.isend(n - 1, 100)
            else:
                yield [ctx.irecv(src, tag=0) for src in range(n - 1)]

        quiet = make_runtime(4, mux_overhead=0.0).run(prog)
        noisy = make_runtime(
            4, mux_overhead=0.05, mux_threshold=1_000
        ).run(prog)
        assert noisy.duration == pytest.approx(quiet.duration, rel=0.05)


class TestLifecycle:
    def test_deadlock_detected(self):
        # A cyclic wait: each rank receives from its partner before
        # sending to it, so no rank ever posts its send.
        def prog(ctx):
            partner = 1 - ctx.rank
            yield ctx.irecv(partner, tag=1)
            yield ctx.isend(partner, 10, tag=1)

        with pytest.raises(DeadlockError):
            make_runtime().run(prog)

    def test_unmatched_receive_rejected(self):
        def prog(ctx):
            yield ctx.irecv((ctx.rank + 1) % ctx.size, tag=1)

        with pytest.raises(LoweringError, match="unmatched traffic"):
            make_runtime().run(prog)

    def test_run_twice_rejected(self):
        def prog(ctx):
            return
            yield  # pragma: no cover

        runtime = make_runtime()
        runtime.run(prog)
        with pytest.raises(Exception, match="once"):
            runtime.run(prog)

    def test_non_generator_program_rejected(self):
        def prog(ctx):
            return None

        with pytest.raises(TypeError, match="generator"):
            make_runtime().run(prog)

    def test_bad_yield_type_rejected(self):
        def prog(ctx):
            yield 42

        with pytest.raises(TypeError):
            make_runtime().run(prog)

    def test_invalid_destination_rejected(self):
        def prog(ctx):
            yield ctx.isend(99, 10)

        with pytest.raises(ValueError, match="destination"):
            make_runtime().run(prog)

    def test_rank_finish_times_recorded(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000)
            else:
                yield ctx.irecv(0, tag=0)

        result = make_runtime().run(prog)
        assert len(result.rank_finish_times) == 2
        assert result.duration == max(result.rank_finish_times)

    def test_nprocs_beyond_hosts_rejected(self):
        topo = single_switch(2, nic_bandwidth=1e8)
        with pytest.raises(ValueError, match="exceeds"):
            Runtime(topo, TransportParams(), nprocs=5)

    def test_sendrecv_helper(self):
        def prog(ctx):
            partner = 1 - ctx.rank
            yield from ctx.sendrecv(partner, 500, partner, tag=4)

        assert sorted(received(prog)) == [(0, 1, 4, 500), (1, 0, 4, 500)]

    def test_start_skew_shifts_completion(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000)
            else:
                yield ctx.irecv(0, tag=0)

        topo = single_switch(2, nic_bandwidth=100e6)
        params = TransportParams(jitter_scale=0.0)
        no_skew = Runtime(topo, params, nprocs=2, seed=1).run(prog)
        topo2 = single_switch(2, nic_bandwidth=100e6)
        skewed = Runtime(
            topo2, params, nprocs=2, seed=1, start_skew_scale=0.5
        ).run(prog)
        assert skewed.duration > no_skew.duration
