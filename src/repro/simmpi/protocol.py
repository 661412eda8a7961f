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
  produces the paper's δ (see :mod:`repro.simmpi.transport`);
* **jitter and start skew** — the ``"mpi/jitter"`` and ``"mpi/skew"``
  streams, so every run is reproducible from ``(cluster, nprocs, seed)``.

A network model implements ``attach(replay)`` (read the message columns,
keep :meth:`ProtocolReplay.flow_done`), ``inject(mid)`` (message *mid*'s
payload enters the wire; the model calls ``flow_done(mid, inbound)``
once its last byte has left) and ``counters()`` (its :class:`RunResult`
count fields, by name).  The fluid engine's model is
:class:`~repro.simmpi.runtime.Runtime`, the vector engine's
:class:`~repro.simnet.vector.VectorSimulator`.

With an enabled trace the replay records ``mpi.phase`` (one per posted
segment), ``mpi.isend``, ``mpi.irecv``, ``mpi.local_copy`` and
``mpi.recv_complete``; the untraced path skips them behind one flag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..exceptions import DeadlockError, SimulationError
from ..simnet.engine import Engine
from ..simnet.resources import SerialResource
from ..simnet.rng import RngFactory
from ..simnet.trace import NullTrace, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simnet.topology import Topology
    from .lowering import LoweredProgram
    from .transport import TransportParams

__all__ = ["ProtocolReplay", "RunResult"]


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
      ``stalls <= total_losses``);
    * ``solve_reuses`` — solves skipped because a warm-started
      allocation was still valid (always 0 on the fluid engine, which
      re-solves on every flow event).
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
    solve_reuses: int = 0
    trace: Trace = field(repr=False, default_factory=NullTrace)


class _HostScheduler:
    """Per-host wire admission: pair-FIFO channels + concurrency cap.

    Callers pass the inject callback on every call instead of the
    scheduler keeping a reference to the replay: without that reference
    cycle a finished run is freed by reference counting, not left for
    the cyclic collector.
    """

    __slots__ = ("_msg_dst", "_limit", "_queue", "_busy_pairs", "_in_flight")

    def __init__(self, msg_dst: list[int], concurrency: int | None) -> None:
        self._msg_dst = msg_dst
        self._limit = concurrency if concurrency is not None else math.inf
        self._queue: deque[int] = deque()
        self._busy_pairs: set[int] = set()
        self._in_flight = 0

    def submit(self, mid: int, inject: Callable[[int], None]) -> None:
        self._queue.append(mid)
        self._pump(inject)

    def release(self, mid: int, inject: Callable[[int], None]) -> None:
        self._in_flight -= 1
        self._busy_pairs.discard(self._msg_dst[mid])
        self._pump(inject)

    def _pump(self, inject: Callable[[int], None]) -> None:
        # Dispatch in FIFO order, skipping messages whose pair channel is
        # busy (per-pair order is still preserved: only the head message
        # of each pair can ever be eligible).  Nothing happens at the
        # cap, and the queue is rebuilt only when a message was skipped.
        queue = self._queue
        if not queue or self._in_flight >= self._limit:
            return
        msg_dst = self._msg_dst
        skipped: deque[int] | None = None
        while queue and self._in_flight < self._limit:
            mid = queue.popleft()
            dst = msg_dst[mid]
            if dst in self._busy_pairs:
                if skipped is None:
                    skipped = deque()
                skipped.append(mid)
                continue
            self._busy_pairs.add(dst)
            self._in_flight += 1
            inject(mid)
        if skipped is not None:
            # Skipped messages keep their place ahead of the rest.
            skipped.extend(queue)
            self._queue = skipped


class _RankState:
    __slots__ = ("next_segment", "finished", "finish_time", "waiting")

    def __init__(self) -> None:
        self.next_segment = 0
        self.finished = False
        self.finish_time = math.nan
        self.waiting = 0


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

        self._ranks = [_RankState() for _ in range(self.nprocs)]
        self._mux = [
            SerialResource(self.engine, name=f"host{h}.rxcpu")
            for h in range(self.nprocs)
        ]
        self._watchers: dict[tuple[str, int], list[int]] = {}
        self._recv_next: dict[tuple[int, int], int] = {}
        self._reorder: dict[tuple[int, int], dict[int, int]] = {}

    def _setup(self, lowered: "LoweredProgram") -> None:
        """Per-message protocol columns, array-wide over the schedule."""
        self._segments = lowered.segments
        self._tag = lowered.tag  # read by the trace records only
        n_messages = lowered.n_messages
        local = lowered.local
        eager, submit, wire = self.transport.message_costs(lowered.nbytes)
        wire[local] = 0.0
        # Columns network models read (wire bytes are 0 for local ones);
        # list forms, as indexing a list beats indexing an array.
        self.src = lowered.src
        self.dst = lowered.dst
        self.local = local
        self.wire = wire
        self.msg_src: list[int] = lowered.src.tolist()
        self.msg_dst: list[int] = lowered.dst.tolist()
        self.msg_nbytes: list[int] = lowered.nbytes.tolist()
        self._msg_seq: list[int] = lowered.seq.tolist()
        self._msg_local: list[bool] = local.tolist()
        self._msg_eager: list[bool] = eager.tolist()
        self._msg_submit: list[float] = submit.tolist()
        self._schedulers = [
            _HostScheduler(self.msg_dst, self.transport.sender_concurrency)
            for _ in range(self.nprocs)
        ]
        self._send_done = [False] * n_messages
        self._recv_done = [False] * n_messages
        self._recv_posted = [False] * n_messages
        self._env_processed = [False] * n_messages

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
        for rank in range(self.nprocs):
            # Real clusters never enter a collective perfectly aligned:
            # OS noise and barrier exit skew stagger the ranks by a small
            # random amount (this seeds the Myrinet convoy effect).
            skew = (
                float(self._skew_rng.uniform(0.0, self._start_skew_scale))
                if self._start_skew_scale > 0
                else 0.0
            )
            self.engine.schedule(skew, lambda r=rank: self._advance(r))
        self.engine.run(max_events=max_events)
        # The model keeps flow_done; dropping the link back to it leaves
        # no reference cycle, so a finished run is freed by refcounting.
        self._inject = None
        unfinished = [r for r, s in enumerate(self._ranks) if not s.finished]
        if unfinished:
            raise DeadlockError(
                f"ranks {unfinished} blocked with no pending events "
                "(cyclic wait?)"
            )
        finish = [s.finish_time for s in self._ranks]
        return RunResult(
            duration=max(finish),
            rank_finish_times=finish,
            events_processed=self.engine.events_processed,
            trace=self.trace,
            **network.counters(),
        )

    def _advance(self, rank: int) -> None:
        """Post segments until one blocks (the lowered ``Waitall`` loop)."""
        state = self._ranks[rank]
        segments = self._segments[rank]
        while True:
            segment = segments[state.next_segment]
            if self._tracing:
                self.trace.emit(
                    self.engine.now, "mpi.phase", rank=rank,
                    segment=state.next_segment, ops=len(segment.ops),
                )
            state.next_segment += 1
            for kind, arg in segment.ops:
                if kind == "send":
                    self._post_send(arg)
                elif kind == "recv":
                    self._post_recv(arg)
                elif self._tracing:
                    # A local copy takes no simulated time.
                    self.trace.emit(
                        self.engine.now, "mpi.local_copy", rank=rank, nbytes=arg
                    )
            if segment.gate is None:
                state.finished = True
                state.finish_time = self.engine.now
                return
            pending = [tok for tok in segment.gate if not self._token_done(tok)]
            if pending:
                state.waiting = len(pending)
                for token in pending:
                    self._watchers.setdefault(token, []).append(rank)
                return
            # Gate already satisfied: keep advancing within this event.

    def _token_done(self, token: tuple[str, int]) -> bool:
        kind, mid = token
        return self._send_done[mid] if kind == "send" else self._recv_done[mid]

    def _notify(self, token: tuple[str, int]) -> None:
        watchers = self._watchers.pop(token, None)
        if not watchers:
            return
        for rank in watchers:
            state = self._ranks[rank]
            state.waiting -= 1
            if state.waiting == 0 and not state.finished:
                self.engine.schedule(
                    self.engine.now, lambda r=rank: self._advance(r)
                )

    # ------------------------------------------------------------------
    # Point-to-point protocol
    # ------------------------------------------------------------------

    def _jitter(self) -> float:
        scale = self.transport.jitter_scale
        if scale <= 0:
            return 0.0
        return float(self._jitter_rng.exponential(scale))

    def _post_send(self, mid: int) -> None:
        if self._tracing:
            self.trace.emit(
                self.engine.now, "mpi.isend", src=self.msg_src[mid],
                dst=self.msg_dst[mid], tag=int(self._tag[mid]),
                nbytes=self.msg_nbytes[mid], seq=self._msg_seq[mid],
                eager=self._msg_eager[mid],
            )
        if self._msg_local[mid]:
            # Local message: memcpy cost, bypasses wire and protocols.
            delay = self.transport.local_copy_time(self.msg_nbytes[mid])
            self.engine.schedule_after(delay, lambda: self._local_deliver(mid))
            return
        submit_delay = self._jitter() + self._msg_submit[mid]
        if self._msg_eager[mid]:
            src = self.msg_src[mid]
            self.engine.schedule_after(
                submit_delay, lambda: self._schedulers[src].submit(mid, self._inject)
            )
        else:
            # Rendezvous: RTS control message (latency-only).
            rts_delay = (
                submit_delay
                + self.transport.ctrl_overhead
                + self.transport.base_latency
            )
            self.engine.schedule_after(
                rts_delay, lambda: self._envelope_in_order(mid)
            )

    def _post_recv(self, mid: int) -> None:
        if self._tracing:
            self.trace.emit(
                self.engine.now, "mpi.irecv", rank=self.msg_dst[mid],
                src=self.msg_src[mid], tag=int(self._tag[mid]),
            )
        self._recv_posted[mid] = True
        # The statically paired envelope may already have arrived and be
        # waiting "unexpected": claim it now.
        if self._env_processed[mid]:
            self._match(mid)

    def _local_deliver(self, mid: int) -> None:
        self._complete_send(mid)
        self._envelope_in_order(mid)

    def _envelope_in_order(self, mid: int) -> None:
        """Process envelope arrivals strictly in per-pair send order."""
        key = (self.msg_src[mid], self.msg_dst[mid])
        expected = self._recv_next.get(key, 0)
        seq = self._msg_seq[mid]
        if seq != expected:
            # Early arrival: park it until its predecessors are processed
            # (the buffer never holds the expected sequence number).
            self._reorder.setdefault(key, {})[seq] = mid
            return
        self._process_envelope(mid)
        expected += 1
        buffer = self._reorder.get(key)
        while buffer and expected in buffer:
            self._process_envelope(buffer.pop(expected))
            expected += 1
        self._recv_next[key] = expected

    def _process_envelope(self, mid: int) -> None:
        # Whichever of the envelope and its receive comes second matches.
        self._env_processed[mid] = True
        if self._recv_posted[mid]:
            self._match(mid)

    def _match(self, mid: int) -> None:
        if self._msg_eager[mid] or self._msg_local[mid]:
            self._complete_recv(mid)
        else:
            # Rendezvous: CTS travels back, then the payload is submitted.
            src = self.msg_src[mid]
            delay = self.transport.ctrl_overhead + self.transport.base_latency
            self.engine.schedule_after(
                delay, lambda: self._schedulers[src].submit(mid, self._inject)
            )

    def _complete_send(self, mid: int) -> None:
        self._send_done[mid] = True
        self._notify(("send", mid))

    def _complete_recv(self, mid: int) -> None:
        self._recv_done[mid] = True
        if self._tracing:
            self.trace.emit(
                self.engine.now, "mpi.recv_complete", rank=self.msg_dst[mid],
                src=self.msg_src[mid], tag=int(self._tag[mid]),
                nbytes=self.msg_nbytes[mid],
            )
        self._notify(("recv", mid))

    # -- wire path ------------------------------------------------------

    def flow_done(self, mid: int, inbound: int) -> None:
        """*mid*'s last byte left; *inbound* flows were open at its
        destination then (itself included)."""
        self._schedulers[self.msg_src[mid]].release(mid, self._inject)
        self._complete_send(mid)
        self.engine.schedule_after(
            self.transport.base_latency,
            lambda: self._wire_arrival(mid, inbound),
        )

    def _wire_arrival(self, mid: int, inbound: int) -> None:
        """Last byte reached the destination host: demux then deliver."""
        if self.transport.mux_applies(self.msg_nbytes[mid], inbound):
            self._mux[self.msg_dst[mid]].request(
                self.transport.mux_overhead, lambda: self._deliver(mid)
            )
        else:
            self._deliver(mid)

    def _deliver(self, mid: int) -> None:
        if self._msg_eager[mid]:
            self._envelope_in_order(mid)
        else:
            # Rendezvous payload: the receive was claimed at CTS time.
            self._complete_recv(mid)
