"""The MPI protocol replay both simulation engines share.

:class:`ProtocolReplay` replays a lowered schedule
(:mod:`repro.simmpi.lowering`) on the :class:`~repro.simnet.engine.Engine`
kernel and leaves only the movement of wire bytes to a *network model*:

* **segments and gates** — a rank posts its next segment's operations,
  then blocks until every request of the segment's gate has completed
  (the lowered ``MPI_Waitall``);
* **protocols** — eager (immediate injection, envelope bytes) below the
  threshold, RTS/CTS rendezvous above it (control messages are
  latency-only, the payload is a network flow);
* **sender discipline** — per-pair FIFO channels (one in-flight message
  per ordered host pair, as on a TCP socket), plus an optional per-host
  concurrency cap (gm's serialised DMA: ``sender_concurrency=1``);
* **matching** — envelopes (eager data or an RTS) are processed in
  per-(src, dst) send order; each meets the receive lowering paired it
  with;
* **receiver demultiplexing** — the serialized per-message service that
  produces the paper's δ (see :mod:`repro.simmpi.transport`), one
  :class:`~repro.simnet.resources.SerialResource` per host;
* **jitter and start skew** — the ``"mpi/jitter"`` and ``"mpi/skew"``
  streams, so every run is reproducible from ``(cluster, nprocs, seed)``.

The replay keeps no Python object per message.  It walks the lowered
op columns; its per-message state is typed columns (NumPy arrays read
through memoryviews, and bytearray flags); a gate is one outstanding
count per segment, decremented by the first completion of each request
the gate waits on; and per-message events are members of the kernel's
bulk entries (:meth:`~repro.simnet.engine.Engine.schedule_batch`).  One
``_advance`` call posts the segments of every rank it is handed and
makes one entry of the eager sends and one of the arrivals the sends
post themselves (RTS envelopes and local copies); each completion batch
makes one entry of the wire arrivals the receiver demultiplexes and one
of the rest.  Each member draws its seq where a single event would
have, so event order and counts are those of one event per message.
The kernel hands each handler a *run* of members, and the handler
walks it in one flat loop: ``_advance`` over ranks, ``_sent`` over
eager sends (a send whose host is idle enough injects at once, the rest
queue), ``_deliver`` over arrivals (envelope order, matching and the
gate count in place) and ``_demux`` over demultiplexed arrivals.  A
rendezvous message's CTS arrival is an ordinary event, alive only
while the CTS is in flight.

A network model only moves wire bytes.  It implements
``attach(replay)`` (read the message columns), ``inject(mid)`` (message
*mid*'s payload enters the wire) and ``counters()`` (its
:class:`RunResult` count fields, by name), and it reports the payloads
each solve finished in one call, ``flows_done(mids)``
(:meth:`ProtocolReplay.flows_done`).  The receiving host is the
replay's: it counts each destination's open flows, from injection until
``flows_done`` reports them, and applies the demultiplexing rule to
each batch.  The fluid engine's model is
:class:`~repro.simmpi.runtime.Runtime`, the vector engine's
:class:`~repro.simnet.vector.VectorSimulator`; both report one batch per
resolve.

With an enabled trace the replay records ``mpi.phase`` (one per posted
segment), ``mpi.isend``, ``mpi.irecv``, ``mpi.local_copy`` and
``mpi.recv_complete``; the untraced path skips them behind one flag.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..exceptions import DeadlockError, SimulationError
from ..simnet.engine import Engine
from ..simnet.resources import SerialResource
from ..simnet.rng import RngFactory
from ..simnet.trace import NullTrace, Trace
from .lowering import OP_RECV, OP_SEND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simnet.topology import Topology
    from .lowering import LoweredProgram
    from .transport import TransportParams

__all__ = ["ProtocolReplay", "RunResult"]

# How a message's send side proceeds (the ``_msg_path`` column).
_LOCAL = 0  # self-addressed: a memcpy, never on the wire
_EAGER = 1  # data and envelope travel together
_RENDEZVOUS = 2  # RTS, then CTS, then the payload


@dataclass
class RunResult:
    """Outcome of one engine run.

    ``duration`` is the paper's completion-time definition: "the
    difference between the start time and the time at which all processes
    are finished".  The counts are what the run *cost*; the measurement
    layer adds them to the ``sim.*`` counters of
    :data:`repro.obs.metrics.REGISTRY`:

    * ``events_processed`` — discrete events the kernel executed;
    * ``total_losses`` — TCP loss events (RTO detections);
    * ``solves`` — bandwidth-allocation (max-min) solves;
    * ``epochs`` — flow-advance epochs: distinct timesteps at which a
      non-empty active set progressed;
    * ``stalls`` — times a flow left the active set to sit out an RTO
      penalty (one stall may cover chained losses, so
      ``stalls <= total_losses``).
    """

    duration: float
    rank_finish_times: list[float]
    events_processed: int
    flows_completed: int
    total_losses: int
    max_concurrent_flows: int
    solves: int = 0
    epochs: int = 0
    stalls: int = 0
    trace: Trace = field(repr=False, default_factory=NullTrace)


class _HostScheduler:
    """Per-host wire admission: pair-FIFO channels + concurrency cap.

    The replay's loops read ``queue``, ``busy`` and ``in_flight`` in
    place: a send whose host queue is empty, under the cap and with its
    pair channel idle injects at once, and a finished payload frees its
    channel and slot, then pumps the queue.  An injection counts one
    open flow at its destination in *inbound*, the replay's count that
    every host's scheduler shares.  Callers pass the inject callback on
    every call instead of the scheduler keeping a reference to the
    replay: without that reference cycle a finished run is freed by
    reference counting, not left for the cyclic collector.
    """

    __slots__ = ("msg_dst", "inbound", "limit", "queue", "busy", "in_flight")

    def __init__(self, msg_dst, inbound: list[int], concurrency: int | None) -> None:
        self.msg_dst = msg_dst
        self.inbound = inbound
        self.limit = concurrency if concurrency is not None else math.inf
        self.queue: deque[int] = deque()
        self.busy = bytearray(len(inbound))  # per destination: channel in use
        self.in_flight = 0

    def submit(self, mid: int, inject: Callable[[int], None]) -> None:
        self.queue.append(mid)
        self.pump(inject)

    def pump(self, inject: Callable[[int], None]) -> None:
        """Dispatch in FIFO order, skipping messages whose pair channel is
        busy (per-pair order is still preserved: only the head message
        of each pair can ever be eligible).  Nothing happens at the
        cap, and the queue is rebuilt only when a message was skipped."""
        queue = self.queue
        if not queue or self.in_flight >= self.limit:
            return
        msg_dst, inbound, busy = self.msg_dst, self.inbound, self.busy
        skipped: deque[int] | None = None
        while queue and self.in_flight < self.limit:
            mid = queue.popleft()
            dst = msg_dst[mid]
            if busy[dst]:
                if skipped is None:
                    skipped = deque()
                skipped.append(mid)
                continue
            busy[dst] = 1
            inbound[dst] += 1
            self.in_flight += 1
            inject(mid)
        if skipped is not None:
            # Skipped messages keep their place ahead of the rest.
            skipped.extend(queue)
            self.queue = skipped


class ProtocolReplay:
    """Replays one :class:`~repro.simmpi.lowering.LoweredProgram`.

    Owns the event kernel (:attr:`engine`) the network model schedules
    on.  Rank *i* runs on host *i* of *topology*.
    """

    def __init__(
        self,
        topology: "Topology",
        transport: "TransportParams",
        *,
        nprocs: int | None = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
    ) -> None:
        self.nprocs = topology.n_hosts if nprocs is None else int(nprocs)
        if self.nprocs < 1:
            raise ValueError("need at least one rank")
        if self.nprocs > topology.n_hosts:
            raise ValueError(
                f"nprocs={self.nprocs} exceeds hosts={topology.n_hosts}"
            )
        if start_skew_scale < 0:
            raise ValueError("start_skew_scale must be >= 0")
        self.transport = transport
        self.trace = trace if trace is not None else NullTrace()
        self._tracing = self.trace.enabled
        self.engine = Engine()
        rng_factory = RngFactory(seed)
        self._jitter_rng = rng_factory.stream("mpi/jitter")
        self._skew_rng = rng_factory.stream("mpi/skew")
        self._start_skew_scale = start_skew_scale
        self._started = False
        self._inject: Callable[[int], None] | None = None

    def _setup(self, lowered: "LoweredProgram") -> None:
        """Per-message protocol columns, array-wide over the schedule."""
        n = self.nprocs
        n_messages = lowered.n_messages
        local = lowered.local
        eager, submit, wire = self.transport.message_costs(lowered.nbytes)
        wire[local] = 0.0
        # Columns network models read (wire bytes are 0 for local ones).
        # Scalar reads go through memoryviews, which index to Python
        # numbers without copying the column.
        self.src = lowered.src
        self.dst = lowered.dst
        self.local = local
        self.wire = wire
        self.msg_src = memoryview(lowered.src)
        self.msg_dst = memoryview(lowered.dst)
        self.msg_nbytes = memoryview(lowered.nbytes)
        self._lowered = lowered  # tag, seq and eager feed trace records only
        self._eager = eager
        self._msg_path = np.where(
            local, _LOCAL, np.where(eager, _EAGER, _RENDEZVOUS)
        ).astype(np.int8).tobytes()
        self._msg_submit = memoryview(submit)

        # Ops, walked by _advance.  Rank r's segments are the global
        # numbers rank_segments[r] .. rank_segments[r+1]-1.
        self._op_ptr = memoryview(lowered.op_ptr)
        self._op_kind = memoryview(lowered.op_kind)
        self._op_arg = memoryview(lowered.op_arg)
        bounds = lowered.rank_segments.tolist()
        self._first_segment = bounds[:-1]
        self._next_segment = bounds[:-1]
        self._last_segment = [end - 1 for end in bounds[1:]]
        self._waiting_on = [-1] * n  # the gate a blocked rank waits on
        self._finish_time = [math.nan] * n

        # Gates: only a request's first gate can wait on it (every later
        # one sees it complete), so each gate counts the distinct
        # requests it is the first to wait on, and each request knows
        # that gate (-1 for none).
        gate_kind, gate_mid = lowered.gate_kind, lowered.gate_mid
        gate_segment = np.repeat(
            np.arange(lowered.n_segments), np.diff(lowered.gate_ptr)
        )
        _, first = np.unique(gate_mid * 2 + gate_kind, return_index=True)

        def first_gate(kind: int) -> memoryview:
            chosen = first[gate_kind[first] == kind]
            column = np.full(n_messages, -1, dtype=np.int64)
            column[gate_mid[chosen]] = gate_segment[chosen]
            return memoryview(column)

        self._send_gate = first_gate(OP_SEND)
        self._recv_gate = first_gate(OP_RECV)
        self._outstanding = np.bincount(
            gate_segment[first], minlength=lowered.n_segments
        ).tolist()

        # Envelope order: each message's predecessor and successor in
        # its (src, dst) pair (message ids follow per-pair send order).
        pair = lowered.src * n + lowered.dst
        order = np.argsort(pair, kind="stable")
        same = pair[order[1:]] == pair[order[:-1]]
        earlier, later = order[:-1][same], order[1:][same]
        pair_prev = np.full(n_messages, -1, dtype=np.int64)
        pair_next = np.full(n_messages, -1, dtype=np.int64)
        pair_prev[later] = earlier
        pair_next[earlier] = later
        self._pair_prev = memoryview(pair_prev)
        self._pair_next = memoryview(pair_next)
        self._recv_posted = bytearray(n_messages)
        self._env_parked = bytearray(n_messages)
        self._env_processed = bytearray(n_messages)

        # The receiving hosts: flows open per destination, from injection
        # until flows_done reports them, and the size half of the
        # demultiplexing rule per message.
        self._inbound = [0] * n
        self._mux_size = self.transport.mux_sizes(lowered.nbytes).tobytes()
        self._schedulers = [
            _HostScheduler(self.msg_dst, self._inbound, self.transport.sender_concurrency)
            for _ in range(n)
        ]
        # Per-rank callbacks and per-host receive CPUs (they hold
        # _deliver), dropped after the run so the replay is freed by
        # reference counting.  Each hands over a run of one.
        self._resume = [partial(self._advance, (rank,)) for rank in range(n)]
        deliver = self._deliver

        def deliver_one(mid: int) -> None:
            deliver((mid,))

        self._receive_cpus = [
            SerialResource(self.engine, self.transport.mux_overhead, deliver_one)
            for _ in range(n)
        ]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self, lowered: "LoweredProgram", network, *, max_events: int | None = None
    ) -> RunResult:
        """Replay *lowered* over *network* until every rank finishes.

        All ranks enter at t=0 plus their start skew (the paper's
        synchronisation model: "all processes start the algorithm
        simultaneously").
        """
        if lowered.nprocs != self.nprocs:
            raise ValueError(
                f"schedule has {lowered.nprocs} ranks, simulator has "
                f"{self.nprocs}"
            )
        if self._started:
            raise SimulationError("a simulation may only be run once")
        self._started = True
        self._setup(lowered)
        self._inject = network.inject
        network.attach(self)
        # Real clusters never enter a collective perfectly aligned: OS
        # noise and barrier exit skew stagger the ranks by a small random
        # amount (this seeds the Myrinet convoy effect).
        scale = self._start_skew_scale
        skews = [
            float(self._skew_rng.uniform(0.0, scale)) if scale > 0 else 0.0
            for _ in range(self.nprocs)
        ]
        seqs = [self.engine.reserve() for _ in range(self.nprocs)]
        self.engine.schedule_batch(skews, seqs, self._advance, range(self.nprocs))
        self.engine.run(max_events=max_events)
        # The model keeps flows_done; dropping the links back to the
        # replay leaves no reference cycle, so a finished run is freed
        # by reference counting.
        self._inject = None
        self._resume = self._receive_cpus = None
        unfinished = [
            rank for rank in range(self.nprocs)
            if self._next_segment[rank] <= self._last_segment[rank]
        ]
        if unfinished:
            raise DeadlockError(
                f"ranks {unfinished} blocked with no pending events "
                "(cyclic wait?)"
            )
        finish = self._finish_time
        return RunResult(
            duration=max(finish),
            rank_finish_times=finish,
            events_processed=self.engine.events_processed,
            trace=self.trace,
            **network.counters(),
        )

    def _advance(self, ranks: Iterable[int]) -> None:
        """Post each rank's segments until one blocks (the lowered
        ``Waitall`` loop).

        The sends' events become two bulk entries, each member drawing
        its seq in op order: eager sends (``_sent``) and the arrivals a
        send posts itself, RTS envelopes and local copies
        (``_deliver``).  A receive whose envelope came first matches at
        once.
        """
        engine = self.engine
        now = engine.now
        reserve = engine.reserve
        schedule = engine.schedule
        tracing = self._tracing
        transport = self.transport
        jitter = transport.jitter_scale
        jitter_rng = self._jitter_rng
        ctrl, latency = transport.ctrl_overhead, transport.base_latency
        cts_delay = ctrl + latency
        op_ptr, op_kind, op_arg = self._op_ptr, self._op_kind, self._op_arg
        path, submit, nbytes = self._msg_path, self._msg_submit, self.msg_nbytes
        msg_src, msg_dst = self.msg_src, self.msg_dst
        recv_posted, env_processed = self._recv_posted, self._env_processed
        recv_gate, outstanding = self._recv_gate, self._outstanding
        next_segment, last_segment = self._next_segment, self._last_segment
        sent = (array("d"), array("q"), array("q"))  # eager sends
        arriving = (array("d"), array("q"), array("q"))  # RTSs, local copies
        for rank in ranks:
            segment = next_segment[rank]
            last = last_segment[rank]
            while True:
                start, stop = op_ptr[segment], op_ptr[segment + 1]
                if tracing:
                    self.trace.emit(
                        now, "mpi.phase", rank=rank,
                        segment=segment - self._first_segment[rank],
                        ops=stop - start,
                    )
                for index in range(start, stop):
                    kind = op_kind[index]
                    mid = op_arg[index]
                    if kind == OP_SEND:
                        if tracing:
                            self._trace_isend(mid)
                        how = path[mid]
                        if how == _LOCAL:
                            # A memcpy, never on the wire.
                            time = now + transport.local_copy_time(nbytes[mid])
                            columns = arriving
                        else:
                            delay = submit[mid]
                            if jitter > 0:
                                delay = float(jitter_rng.exponential(jitter)) + delay
                            if how == _EAGER:
                                columns = sent
                            else:
                                # The RTS control message (latency-only).
                                delay = delay + ctrl + latency
                                columns = arriving
                            time = now + delay
                        times, seqs, mids = columns
                        times.append(time)
                        seqs.append(reserve())
                        mids.append(mid)
                    elif kind == OP_RECV:
                        if tracing:
                            self.trace.emit(
                                now, "mpi.irecv", rank=msg_dst[mid],
                                src=msg_src[mid], tag=int(self._lowered.tag[mid]),
                            )
                        recv_posted[mid] = 1
                        if not env_processed[mid]:
                            continue
                        # The paired envelope came first: match it now.
                        if path[mid] == _RENDEZVOUS:
                            # The CTS travels back, then the payload goes.
                            schedule(now + cts_delay, partial(
                                self._schedulers[msg_src[mid]].submit,
                                mid, self._inject,
                            ))
                            continue
                        if tracing:
                            self._trace_recv_complete(mid)
                        gate = recv_gate[mid]
                        if gate >= 0:
                            # The rank is running, so it waits on no gate.
                            outstanding[gate] -= 1
                    elif tracing:
                        # A local copy takes no simulated time; its op
                        # arg is the byte count.
                        self.trace.emit(now, "mpi.local_copy", rank=rank, nbytes=mid)
                segment += 1
                if segment > last:
                    self._finish_time[rank] = now
                    break
                if outstanding[segment - 1]:
                    self._waiting_on[rank] = segment - 1
                    break
                # Gate already satisfied: keep advancing within this event.
            next_segment[rank] = segment
        for (times, seqs, mids), callback in (
            (sent, self._sent), (arriving, self._deliver)
        ):
            if mids:
                engine.schedule_batch(times, seqs, callback, mids)

    # ------------------------------------------------------------------
    # Point-to-point protocol
    # ------------------------------------------------------------------

    def _trace_isend(self, mid: int) -> None:
        lowered = self._lowered
        self.trace.emit(
            self.engine.now, "mpi.isend", src=self.msg_src[mid],
            dst=self.msg_dst[mid], tag=int(lowered.tag[mid]),
            nbytes=self.msg_nbytes[mid], seq=int(lowered.seq[mid]),
            eager=bool(self._eager[mid]),
        )

    def _trace_recv_complete(self, mid: int) -> None:
        self.trace.emit(
            self.engine.now, "mpi.recv_complete", rank=self.msg_dst[mid],
            src=self.msg_src[mid], tag=int(self._lowered.tag[mid]),
            nbytes=self.msg_nbytes[mid],
        )

    def _sent(self, mids: Iterable[int]) -> None:
        """Eager sends reach their host's NIC: each injects at once when
        its host queue is empty, under the cap and its pair channel
        idle, and queues otherwise."""
        inject, inbound = self._inject, self._inbound
        schedulers, msg_src, msg_dst = self._schedulers, self.msg_src, self.msg_dst
        for mid in mids:
            scheduler = schedulers[msg_src[mid]]
            busy = scheduler.busy
            dst = msg_dst[mid]
            if busy[dst] or scheduler.queue or scheduler.in_flight >= scheduler.limit:
                scheduler.submit(mid, inject)
            else:
                busy[dst] = 1
                inbound[dst] += 1
                scheduler.in_flight += 1
                inject(mid)

    def _deliver(self, mids: Iterable[int]) -> None:
        """Arrivals at a receiver: eager payloads, RTS envelopes, local
        copies and rendezvous payloads.

        Envelopes (all but a rendezvous payload) are processed in
        per-pair send order: one that arrives early is parked until its
        predecessor's processing takes it too.  Whichever of an
        envelope and its receive comes second matches them: an eager or
        local message completes its receive, a rendezvous one sends its
        CTS back.  A rendezvous payload completes the receive its CTS
        claimed; a local copy also completes its send.
        """
        engine = self.engine
        now = engine.now
        schedule = engine.schedule
        tracing = self._tracing
        cts_delay = self.transport.ctrl_overhead + self.transport.base_latency
        path, msg_src, msg_dst = self._msg_path, self.msg_src, self.msg_dst
        pair_prev, pair_next = self._pair_prev, self._pair_next
        recv_posted = self._recv_posted
        env_parked, env_processed = self._env_parked, self._env_processed
        send_gate, recv_gate = self._send_gate, self._recv_gate
        outstanding, waiting_on, resume = (
            self._outstanding, self._waiting_on, self._resume
        )
        for mid in mids:
            how = path[mid]
            if how == _RENDEZVOUS and env_processed[mid]:
                # A rendezvous payload: the receive was claimed at CTS time.
                if tracing:
                    self._trace_recv_complete(mid)
                gate = recv_gate[mid]
                if gate >= 0:
                    left = outstanding[gate] - 1
                    outstanding[gate] = left
                    dst = msg_dst[mid]
                    if not left and waiting_on[dst] == gate:
                        waiting_on[dst] = -1
                        schedule(now, resume[dst])
                continue
            if how == _LOCAL:
                # The copy is done: the send completes, the envelope is in.
                gate = send_gate[mid]
                if gate >= 0:
                    left = outstanding[gate] - 1
                    outstanding[gate] = left
                    src = msg_src[mid]
                    if not left and waiting_on[src] == gate:
                        waiting_on[src] = -1
                        schedule(now, resume[src])
            prev = pair_prev[mid]
            if prev >= 0 and not env_processed[prev]:
                env_parked[mid] = 1
                continue
            # Process this envelope, then the parked ones it unblocks.
            while True:
                env_processed[mid] = 1
                if recv_posted[mid]:
                    if path[mid] == _RENDEZVOUS:
                        # The CTS travels back, then the payload goes.
                        schedule(now + cts_delay, partial(
                            self._schedulers[msg_src[mid]].submit,
                            mid, self._inject,
                        ))
                    else:
                        if tracing:
                            self._trace_recv_complete(mid)
                        gate = recv_gate[mid]
                        if gate >= 0:
                            left = outstanding[gate] - 1
                            outstanding[gate] = left
                            dst = msg_dst[mid]
                            if not left and waiting_on[dst] == gate:
                                waiting_on[dst] = -1
                                schedule(now, resume[dst])
                mid = pair_next[mid]
                if mid < 0 or not env_parked[mid]:
                    break

    def _demux(self, mids: Iterable[int]) -> None:
        """Last bytes reached their destination hosts: each queues for its
        host's receive CPU, which then delivers it."""
        cpus, msg_dst = self._receive_cpus, self.msg_dst
        for mid in mids:
            cpus[msg_dst[mid]].request(mid)

    # -- wire path ------------------------------------------------------

    def flows_done(self, mids: Sequence[int]) -> None:
        """Payloads *mids* left the wire, in completion order: every
        payload one solve of the network model finished.

        A payload is demultiplexed when its size qualifies and at least
        ``mux_min_inbound`` flows are open at its destination, counted
        with the whole batch still open (payloads that finish together
        see each other); then the batch's counts drop.  Each sender's
        pair channel and cap slot free up and its queue is pumped, and
        each send completes; the wire arrivals, ``base_latency`` later,
        become bulk entries: those the receiver demultiplexes and those
        it takes directly.
        """
        engine = self.engine
        now = engine.now
        reserve = engine.reserve
        schedule = engine.schedule
        inject, inbound = self._inject, self._inbound
        schedulers, msg_src, msg_dst = self._schedulers, self.msg_src, self.msg_dst
        send_gate = self._send_gate
        outstanding, waiting_on, resume = (
            self._outstanding, self._waiting_on, self._resume
        )
        mux_size, mux_min = self._mux_size, self.transport.mux_min_inbound
        charged = [mux_size[mid] and inbound[msg_dst[mid]] >= mux_min for mid in mids]
        direct = (array("q"), array("q"))  # seqs and mids
        demuxed = (array("q"), array("q"))
        for mid, muxed in zip(mids, charged):
            src, dst = msg_src[mid], msg_dst[mid]
            inbound[dst] -= 1
            scheduler = schedulers[src]
            scheduler.in_flight -= 1
            scheduler.busy[dst] = 0
            if scheduler.queue:
                scheduler.pump(inject)
            gate = send_gate[mid]
            if gate >= 0:
                left = outstanding[gate] - 1
                outstanding[gate] = left
                if not left and waiting_on[src] == gate:
                    waiting_on[src] = -1
                    schedule(now, resume[src])
            seqs, members = demuxed if muxed else direct
            seqs.append(reserve())
            members.append(mid)
        arrival = array("d", [now + self.transport.base_latency])
        for (seqs, members), callback in (
            (direct, self._deliver), (demuxed, self._demux)
        ):
            if members:
                engine.schedule_batch(arrival * len(members), seqs, callback, members)
