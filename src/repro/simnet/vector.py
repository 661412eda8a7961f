"""Batched vector engine: epoch-synchronized flow simulation.

The reference stack interprets rank programs as Python generators and
pays per-flow Python work on every allocation resolve
(:mod:`repro.simnet.fluid` rebuilds its slot arrays and CSR paths one
flow at a time).  This module executes a *lowered* schedule
(:mod:`repro.simmpi.lowering`) instead, advancing **all active flows in
synchronized epochs**:

* one max-min solve (:func:`repro.simnet.fairness.max_min_allocation`),
* one vectorized minimum time-to-completion,
* one array subtraction per epoch,

with completions handled as batches that feed the next phase of the
schedule.  The flow → link CSR is never rebuilt from Python lists: the
route of every (src, dst) pair is encoded once at startup, and the
active set's :class:`~repro.simnet.fairness.FlowPaths` is assembled per
epoch with a vectorized ragged gather.

Setup is array-wide over the schedule's message columns: eager flags,
submit costs and wire bytes come from
:meth:`~repro.simmpi.transport.TransportParams.message_costs` (the
scalar methods' float operations, elementwise), and pair ids from one
``np.unique`` over (src, dst) keys, numbered in order of first
appearance.  The protocol replay then reads per-message attributes
from plain lists, one message at a time.

The protocol timeline (submit costs, eager/rendezvous handshakes,
per-pair FIFO wire channels, sender concurrency caps, receiver demux)
replays the reference runtime's arithmetic event for event on the same
:class:`~repro.simnet.engine.Engine` kernel, so with jitter disabled
the two engines agree to floating-point roundoff; the fluid engine
remains the correctness oracle (see ``repro.engines``).

The TCP loss overlay (:mod:`repro.simnet.loss`) is vectorized over the
flow batch instead of replayed per flow.  Each flow carries a unit-rate
Poisson *budget* — an Exp(1) draw decremented by ``hazard * dt`` every
epoch — and loses a packet when the budget crosses zero (the standard
time-rescaling construction of an inhomogeneous Poisson process, equal
in law to the fluid engine's global competing-exponential clock).  Loss
state is array-resident (``stalled_until``, ``backoff``,
``bytes_since_loss`` vectors indexed by message id); RTO expiries are
ordinary epoch boundaries: a stalled flow drops out of the max-min
solve and re-enters through the pending queue when its penalty elapses.
Determinism comes from the named :class:`~repro.simnet.rng.RngFactory`
stream discipline — initial budgets from one vectorized
``"net/loss/budget"`` draw indexed by message id, post-loss chain and
budget draws from a lazily created ``"net/loss/flow/<mid>"`` stream per
flow — so loss sequences are stable across processes and epoch
orderings.

Equivalence contract: with losses disabled the two engines agree to
floating-point roundoff (the fluid engine remains the correctness
oracle).  With losses enabled the engines sample the *same stochastic
process* through different random-number streams, so individual runs
differ but distributions match — lossy equivalence is asserted
statistically (mean completion time over paired seeds), not bit-exact.

Observability: pass ``trace=`` to record ``flow.inject`` /
``flow.complete`` (same categories as the fluid engine) plus
``flow.stall`` / ``flow.resume`` around every RTO gap, the
vector-specific ``vector.epoch`` (one per resolve, with the active-set
size) and ``vector.phase`` (one per posted schedule segment) records;
pass ``timeline=`` (a :class:`~repro.obs.timeline.LinkTimeline`) to
collect per-link concurrency/bandwidth.  All default to off with zero
overhead.

Not supported: programs that cannot be lowered (wildcards,
``ctx.now``).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..exceptions import DeadlockError, SimulationError
from .engine import Engine, EventHandle
from .fairness import FlowPaths, max_min_allocation
from .fluid import _BYTE_EPS, _RESOLVE_PRIORITY
from .loss import LossModel, LossParams
from .penalty import HolPenalty
from .resources import SerialResource
from .rng import RngFactory
from .stats import SimStats
from .topology import Topology
from .trace import NullTrace, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..simmpi.lowering import LoweredProgram
    from ..simmpi.runtime import RunResult
    from ..simmpi.transport import TransportParams

__all__ = ["VectorSimulator"]

#: Relative tolerance for freezing near-tied bottleneck links in one
#: filling iteration (see ``max_min_allocation(tie_eps=...)``).  Keeps
#: allocations within ~1e-9 of the reference solve — far inside the
#: engines' 1e-6 equivalence contract — while collapsing the symmetric
#: steady-state of an All-to-All to a couple of iterations per epoch.
_ALLOC_TIE_EPS = 1e-9

#: Tie tolerance for *lossy* runs, where the contract is statistical
#: (mean within 10% of fluid over paired seeds) rather than bit-exact.
#: Mid-run, completions desynchronise per-link flow counts, so exact
#: filling walks one freeze level per distinct count (dozens per epoch
#: on hierarchical fabrics); batching levels within a few percent
#: collapses that tail.  Each flow's rate lands within ``tie_eps``
#: relative of its exact fair share, biasing durations by at most the
#: same factor — far inside the statistical-equivalence budget.
_LOSSY_TIE_EPS = 0.05

#: A flow's Poisson loss budget is "spent" when it falls to this close
#: to zero.  Budgets are Exp(1) draws (mean 1.0), and the epoch horizon
#: lands exactly on the crossing, so only accumulated float roundoff
#: (~1e-16 per epoch) has to fit under the epsilon.
_BUDGET_EPS = 1e-9


class _HostScheduler:
    """Per-host wire admission: pair-FIFO channels + concurrency cap.

    Mirrors the reference runtime's sender scheduler, dispatching
    message ids instead of message objects.  Callers pass the inject
    callback on every call instead of the scheduler keeping a reference
    to the simulator: without that reference cycle a finished simulator
    is freed by reference counting, not left for the cyclic collector.
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


class VectorSimulator:
    """Executes a :class:`~repro.simmpi.lowering.LoweredProgram`.

    Constructor parameters mirror :class:`~repro.simmpi.runtime.Runtime`
    so cluster profiles drive both engines identically.
    """

    def __init__(
        self,
        topology: Topology,
        transport: "TransportParams",
        *,
        nprocs: int | None = None,
        loss_params: LossParams | None = None,
        hol_penalty: HolPenalty | None = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
        timeline=None,
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
        self.topology = topology
        self.transport = transport
        self.trace = trace if trace is not None else NullTrace()
        self._tracing = self.trace.enabled
        self._timeline = timeline
        self._inject_time: dict[int, float] = {}
        self.engine = Engine()
        rng_factory = RngFactory(seed)
        self._rng_factory = rng_factory
        self._jitter_rng = rng_factory.stream("mpi/jitter")
        self._skew_rng = rng_factory.stream("mpi/skew")
        self._start_skew_scale = start_skew_scale
        self._capacities = np.asarray(topology.capacities(), dtype=np.float64)
        if loss_params is not None and loss_params.enabled:
            kinds = [link.kind for link in topology.links]
            self._loss_model: LossModel | None = LossModel(loss_params, kinds)
            self._loss_params = loss_params
        else:
            self._loss_model = None
            self._loss_params = loss_params
        if hol_penalty is not None and hol_penalty.enabled:
            self._hol = hol_penalty
            self._hol_eta = hol_penalty.eta_vector(
                [link.kind for link in topology.links]
            )
        else:
            self._hol = None
            self._hol_eta = None
        self._started = False

        # Filled by _setup() once the lowered schedule is known.
        self._segments: tuple = ()
        self._msg_src: list[int] = []
        self._msg_dst: list[int] = []
        self._msg_nbytes: list[int] = []
        self._msg_seq: list[int] = []
        self._msg_local: list[bool] = []
        self._msg_eager: list[bool] = []
        self._msg_submit: list[float] = []
        self._msg_wire: np.ndarray = np.empty(0)
        self._msg_pair: np.ndarray = np.empty(0, dtype=np.int64)
        self._msg_dst_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._msg_src_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._pair_indptr: np.ndarray = np.empty(0, dtype=np.int64)
        self._pair_links: np.ndarray = np.empty(0, dtype=np.int64)
        self._pair_len: np.ndarray = np.empty(0, dtype=np.int64)
        self._pair_links2d: "np.ndarray | None" = None

        # Flow core (active set, slot order = injection order).
        self._act_mids = np.empty(0, dtype=np.int64)
        self._act_remaining = np.empty(0, dtype=np.float64)
        self._act_rates = np.empty(0, dtype=np.float64)
        self._act_hazards = np.empty(0, dtype=np.float64)
        self._pending: list[int] = []

        # Warm-start cache: when a resolve sees the exact same active
        # set as the previous solve (rates-only epoch — e.g. a coalesced
        # resume cascade), the CSR, rates and hazards are reused and the
        # max-min solve is skipped entirely.
        self._solve_mids: "np.ndarray | None" = None
        self._solve_paths: "FlowPaths | None" = None
        self._solve_rates = np.empty(0, dtype=np.float64)
        self._solve_hazards = np.empty(0, dtype=np.float64)

        # Loss-overlay state, allocated per message id in _setup() when
        # the profile enables losses.
        self._loss_budget = np.empty(0, dtype=np.float64)
        self._backoff = np.empty(0, dtype=np.int64)
        self._bytes_since_loss = np.empty(0, dtype=np.float64)
        self._stalled_until = np.empty(0, dtype=np.float64)
        self._flow_losses = np.empty(0, dtype=np.int64)
        self._flow_remaining = np.empty(0, dtype=np.float64)
        self._flow_rngs: dict[int, np.random.Generator] = {}
        self._inbound_open = np.zeros(self.nprocs, dtype=np.int64)
        self._outbound_open = np.zeros(self.nprocs, dtype=np.int64)
        self._structure_dirty = False
        self._last_advance = 0.0
        self._resolve_event: EventHandle | None = None
        self._completion_event: EventHandle | None = None

        # Protocol state.
        self._ranks = [_RankState() for _ in range(self.nprocs)]
        self._schedulers: list[_HostScheduler] = []  # built by _setup()
        self._mux = [
            SerialResource(self.engine, name=f"host{h}.rxcpu")
            for h in range(self.nprocs)
        ]
        self._send_done: list[bool] = []
        self._recv_done: list[bool] = []
        self._recv_posted: list[bool] = []
        self._env_processed: list[bool] = []
        self._matched: list[bool] = []
        self._watchers: dict[tuple[str, int], list[int]] = {}
        self._recv_next: dict[tuple[int, int], int] = {}
        self._reorder: dict[tuple[int, int], dict[int, int]] = {}

        # Aggregate statistics.
        self.flows_completed = 0
        self.max_concurrent = 0
        self.resolves = 0
        self.epochs = 0
        self.total_losses = 0
        self.stalls = 0
        self.solves = 0
        self.solve_reuses = 0

    # ------------------------------------------------------------------
    # Schedule setup
    # ------------------------------------------------------------------

    def _setup(self, lowered: "LoweredProgram") -> None:
        self._segments = lowered.segments
        n_messages = lowered.n_messages
        src, dst = lowered.src, lowered.dst
        local = lowered.local
        eager, submit, wire = self.transport.message_costs(lowered.nbytes)
        wire[local] = 0.0
        # Pair ids number the distinct remote (src, dst) pairs in order
        # of first appearance; each pair's route is looked up once.
        remote = np.flatnonzero(~local)
        pair_keys, first, inverse = np.unique(
            src[remote] * self.nprocs + dst[remote],
            return_index=True, return_inverse=True,
        )
        by_appearance = np.argsort(first, kind="stable")
        pair_id = np.empty(len(pair_keys), dtype=np.int64)
        pair_id[by_appearance] = np.arange(len(pair_keys))
        pair = np.zeros(n_messages, dtype=np.int64)
        pair[remote] = pair_id[inverse.reshape(-1)]
        routes = [
            self.topology.route(key // self.nprocs, key % self.nprocs)
            for key in pair_keys[by_appearance].tolist()
        ]
        # The replay reads per-message attributes one at a time, where
        # list indexing beats array indexing; the epoch loop reads arrays.
        self._msg_src = src.tolist()
        self._msg_dst = dst.tolist()
        self._msg_nbytes = lowered.nbytes.tolist()
        self._msg_seq = lowered.seq.tolist()
        self._msg_local = local.tolist()
        self._msg_eager = eager.tolist()
        self._msg_submit = submit.tolist()
        self._msg_wire = wire
        self._msg_pair = pair
        self._msg_dst_arr = dst
        self._msg_src_arr = src
        self._schedulers = [
            _HostScheduler(self._msg_dst, self.transport.sender_concurrency)
            for _ in range(self.nprocs)
        ]
        lengths = np.fromiter(
            (len(r) for r in routes), dtype=np.int64, count=len(routes)
        )
        self._pair_indptr = np.zeros(len(routes) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._pair_indptr[1:])
        self._pair_len = lengths
        self._pair_links = np.fromiter(
            itertools.chain.from_iterable(routes), dtype=np.int64,
            count=int(self._pair_indptr[-1]),
        )
        if len(lengths) and int(lengths.min()) == int(lengths.max()):
            # Uniform route length (true on single-switch and other
            # symmetric fabrics): the per-pair routes form a dense
            # matrix, so the per-epoch CSR assembly reduces to one fancy
            # index instead of a ragged gather.
            self._pair_links2d = self._pair_links.reshape(
                len(routes), int(lengths[0])
            )
        if self._loss_model is not None:
            # One vectorized Exp(1) draw, indexed by message id, seeds
            # every flow's first loss budget; post-loss draws come from
            # per-flow named streams (see _flow_rng).  Keying by mid —
            # stable across processes and epoch orderings — is what
            # makes the loss sequence deterministic.
            self._loss_budget = self._rng_factory.stream(
                "net/loss/budget"
            ).exponential(size=n_messages)
            self._backoff = np.zeros(n_messages, dtype=np.int64)
            self._bytes_since_loss = np.zeros(n_messages, dtype=np.float64)
            self._stalled_until = np.zeros(n_messages, dtype=np.float64)
            self._flow_losses = np.zeros(n_messages, dtype=np.int64)
            self._flow_remaining = wire.copy()
        self._send_done = [False] * n_messages
        self._recv_done = [False] * n_messages
        self._recv_posted = [False] * n_messages
        self._env_processed = [False] * n_messages
        self._matched = [False] * n_messages

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self, lowered: "LoweredProgram", *, max_events: int | None = None
    ) -> "RunResult":
        """Execute the schedule; returns the reference-shaped result."""
        from ..simmpi.runtime import RunResult

        if lowered.nprocs != self.nprocs:
            raise ValueError(
                f"schedule has {lowered.nprocs} ranks, simulator has "
                f"{self.nprocs}"
            )
        if self._started:
            raise SimulationError("VectorSimulator.run may only be called once")
        self._started = True
        self._setup(lowered)
        for rank in range(self.nprocs):
            skew = (
                float(self._skew_rng.uniform(0.0, self._start_skew_scale))
                if self._start_skew_scale > 0
                else 0.0
            )
            self.engine.schedule(skew, lambda r=rank: self._advance(r))
        self.engine.run(max_events=max_events)
        unfinished = [r for r, s in enumerate(self._ranks) if not s.finished]
        if unfinished:
            raise DeadlockError(
                f"ranks {unfinished} blocked with no pending events "
                "(mismatched sends/receives?)"
            )
        finish = [s.finish_time for s in self._ranks]
        return RunResult(
            duration=max(finish),
            rank_finish_times=finish,
            events_processed=self.engine.events_processed,
            flows_completed=self.flows_completed,
            total_losses=self.total_losses,
            max_concurrent_flows=self.max_concurrent,
            trace=self.trace,
            stats=SimStats(
                engine="vector",
                resolves=self.resolves,
                epochs=self.epochs,
                events=self.engine.events_processed,
                losses=self.total_losses,
                stalls=self.stalls,
                solve_reuses=self.solve_reuses,
            ),
        )

    def _advance(self, rank: int) -> None:
        """Post segments until one blocks (the lowered ``Waitall`` loop)."""
        state = self._ranks[rank]
        segments = self._segments[rank]
        while True:
            segment = segments[state.next_segment]
            if self._tracing:
                self.trace.emit(
                    self.engine.now, "vector.phase", rank=rank,
                    segment=state.next_segment, ops=len(segment.ops),
                )
            state.next_segment += 1
            for op in segment.ops:
                kind = op[0]
                if kind == "send":
                    self._post_send(op[1])
                elif kind == "recv":
                    self._post_recv(op[1])
                # "copy": zero simulated time, nothing to schedule.
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
    # Protocol timeline (mirrors the reference runtime arithmetic)
    # ------------------------------------------------------------------

    def _jitter(self) -> float:
        scale = self.transport.jitter_scale
        if scale <= 0:
            return 0.0
        return float(self._jitter_rng.exponential(scale))

    def _post_send(self, mid: int) -> None:
        if self._msg_local[mid]:
            delay = self.transport.local_copy_time(self._msg_nbytes[mid])
            self.engine.schedule_after(delay, lambda: self._local_deliver(mid))
            return
        submit_delay = self._jitter() + self._msg_submit[mid]
        if self._msg_eager[mid]:
            src = self._msg_src[mid]
            self.engine.schedule_after(
                submit_delay, lambda: self._schedulers[src].submit(mid, self._inject)
            )
        else:
            rts_delay = (
                submit_delay
                + self.transport.ctrl_overhead
                + self.transport.base_latency
            )
            self.engine.schedule_after(
                rts_delay, lambda: self._envelope_in_order(mid)
            )

    def _post_recv(self, mid: int) -> None:
        self._recv_posted[mid] = True
        # The statically-paired envelope may already have arrived and be
        # waiting "unexpected"; claiming it now mirrors the runtime's
        # unexpected-queue scan at post time.
        if self._env_processed[mid] and not self._matched[mid]:
            self._match(mid)

    def _local_deliver(self, mid: int) -> None:
        self._complete_send(mid)
        self._envelope_in_order(mid)

    def _envelope_in_order(self, mid: int) -> None:
        """Process envelope arrivals strictly in per-pair send order."""
        key = (self._msg_src[mid], self._msg_dst[mid])
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
        self._env_processed[mid] = True
        if self._recv_posted[mid] and not self._matched[mid]:
            self._match(mid)
        # Else: the envelope waits for its receive (unexpected queue).

    def _match(self, mid: int) -> None:
        self._matched[mid] = True
        if self._msg_eager[mid] or self._msg_local[mid]:
            self._complete_recv(mid)
        else:
            # Rendezvous: CTS travels back, then the payload is submitted.
            src = self._msg_src[mid]
            delay = self.transport.ctrl_overhead + self.transport.base_latency
            self.engine.schedule_after(
                delay, lambda: self._schedulers[src].submit(mid, self._inject)
            )

    def _complete_send(self, mid: int) -> None:
        self._send_done[mid] = True
        self._notify(("send", mid))

    def _complete_recv(self, mid: int) -> None:
        self._recv_done[mid] = True
        self._notify(("recv", mid))

    def _wire_arrival(self, mid: int, inbound: int) -> None:
        if self.transport.mux_applies(self._msg_nbytes[mid], inbound):
            dst = self._msg_dst[mid]
            self._mux[dst].request(
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

    # ------------------------------------------------------------------
    # Batched flow core (the epoch loop)
    # ------------------------------------------------------------------

    def _inject(self, mid: int) -> None:
        self._pending.append(mid)
        self._inbound_open[self._msg_dst[mid]] += 1
        self._outbound_open[self._msg_src[mid]] += 1
        if self._tracing:
            self._inject_time[mid] = self.engine.now
            self.trace.emit(
                self.engine.now, "flow.inject", fid=mid,
                src=self._msg_src[mid], dst=self._msg_dst[mid],
                nbytes=self._msg_nbytes[mid], label="",
            )
        if self._resolve_event is None or self._resolve_event.cancelled:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )
        self._structure_dirty = True

    def _resolve(self) -> None:
        """One epoch: advance, batch completions, re-solve, reschedule."""
        self._resolve_event = None
        self.resolves += 1
        now = self.engine.now
        dt = now - self._last_advance
        n_active = len(self._act_mids)
        lossy = self._loss_model is not None
        if dt > 0 and n_active:
            moved = self._act_rates * dt
            self._act_remaining -= moved
            if lossy:
                # Time-rescaling: each flow's Exp(1) budget burns at its
                # instantaneous hazard; crossing zero is a packet loss.
                self._bytes_since_loss[self._act_mids] += moved
                self._loss_budget[self._act_mids] -= self._act_hazards * dt
            self.epochs += 1
        self._last_advance = now

        finished = np.empty(0, dtype=np.int64)
        finished_inbound = np.empty(0, dtype=np.int64)
        if n_active:
            mask = self._act_remaining <= _BYTE_EPS
            if mask.any():
                finished = self._act_mids[mask]
                dsts = self._msg_dst_arr[finished]
                srcs = self._msg_src_arr[finished]
                # Snapshot receiver concurrency before decrementing, so
                # flows finishing in the same batch all observe each
                # other (the receiver demultiplexes them together).
                finished_inbound = self._inbound_open[dsts]
                np.subtract.at(self._inbound_open, dsts, 1)
                np.subtract.at(self._outbound_open, srcs, 1)
                self.flows_completed += len(finished)
                keep = ~mask
                self._act_mids = self._act_mids[keep]
                self._act_remaining = self._act_remaining[keep]
                if lossy:
                    self._act_hazards = self._act_hazards[keep]
                self._structure_dirty = True
                if self._tracing:
                    for mid in finished:
                        mid = int(mid)
                        start = self._inject_time.pop(mid, now)
                        self.trace.emit(
                            now, "flow.complete", fid=mid,
                            src=self._msg_src[mid], dst=self._msg_dst[mid],
                            duration=now - start,
                            losses=int(self._flow_losses[mid]) if lossy else 0,
                            label="",
                        )

        if lossy and len(self._act_mids):
            # Spent budgets on surviving flows are this epoch's losses
            # (completions take precedence).  The hazard guard keeps a
            # pathologically tiny initial draw from firing before the
            # flow has ever seen congestion.
            lost_mask = (self._loss_budget[self._act_mids] <= _BUDGET_EPS) & (
                self._act_hazards > 0.0
            )
            if lost_mask.any():
                lost = self._act_mids[lost_mask]
                lost_remaining = self._act_remaining[lost_mask]
                keep = ~lost_mask
                self._act_mids = self._act_mids[keep]
                self._act_remaining = self._act_remaining[keep]
                self._act_hazards = self._act_hazards[keep]
                self._structure_dirty = True
                for mid, rem in zip(lost, lost_remaining):
                    self._stall(int(mid), max(float(rem), 0.0))

        if self._structure_dirty:
            if self._pending:
                admitted = np.asarray(self._pending, dtype=np.int64)
                self._pending.clear()
                remaining_src = (
                    self._flow_remaining if lossy else self._msg_wire
                )
                self._act_mids = np.concatenate([self._act_mids, admitted])
                self._act_remaining = np.concatenate(
                    [self._act_remaining, remaining_src[admitted]]
                )
            self._structure_dirty = False
            self.max_concurrent = max(self.max_concurrent, len(self._act_mids))

        n_active = len(self._act_mids)
        paths = None
        if n_active:
            if (
                self._solve_mids is not None
                and len(self._solve_mids) == n_active
                and np.array_equal(self._act_mids, self._solve_mids)
            ):
                # Warm start: identical flow set => identical solve (the
                # batched fill is deterministic) and identical hazards
                # (backoffs only change on a stall, which changes the
                # set).  Reuse the CSR, rates and hazards outright.
                paths = self._solve_paths
                self._act_rates = self._solve_rates
                self._act_hazards = self._solve_hazards
                self.solve_reuses += 1
            else:
                paths = self._active_paths()
                capacities = self._capacities
                if self._hol is not None:
                    counts = np.bincount(
                        paths.link_ids, minlength=len(capacities)
                    )
                    capacities = self._hol.effective(
                        capacities, self._hol_eta, counts
                    )
                # The loss model needs the saturation summary; the
                # batched fill fuses its accumulation into the solve.
                alloc = max_min_allocation(
                    capacities, paths,
                    tie_eps=_LOSSY_TIE_EPS if lossy else _ALLOC_TIE_EPS,
                    need_loads=lossy,
                )
                self._act_rates = alloc.rates
                if lossy:
                    backoffs = None
                    if self._loss_params.backoff_hazard_factor > 0:
                        backoffs = self._backoff[self._act_mids].astype(
                            np.float64
                        )
                    self._act_hazards = self._loss_model.flow_hazards(
                        paths.link_ids,
                        paths.indptr,
                        alloc.rates,
                        alloc.link_flow_count,
                        alloc.saturated,
                        backoffs,
                    )
                else:
                    self._act_hazards = np.empty(0, dtype=np.float64)
                self.solves += 1
                # _act_mids is replaced wholesale (never mutated in
                # place) on structure changes, so aliasing it is safe.
                self._solve_mids = self._act_mids
                self._solve_paths = paths
                self._solve_rates = self._act_rates
                self._solve_hazards = self._act_hazards
        else:
            self._act_rates = np.empty(0, dtype=np.float64)
            self._act_hazards = np.empty(0, dtype=np.float64)
            self._solve_mids = None
            self._solve_paths = None

        if self._timeline is not None:
            self._timeline.record_active(now, paths, self._act_rates)
        if self._tracing:
            self.trace.emit(
                now, "vector.epoch", active=n_active,
                completed=len(finished), dt=dt,
            )

        self._schedule_completion()

        # Completion handling runs last (slot order): released senders
        # pump follow-up flows, which coalesce into one resolve at this
        # timestamp — the same cascade discipline as the fluid engine.
        for mid, inbound in zip(finished.tolist(), finished_inbound.tolist()):
            self._on_flow_complete(mid, inbound)

    def _active_paths(self) -> FlowPaths:
        """Assemble the active set's CSR with a vectorized ragged gather."""
        pairs = self._msg_pair[self._act_mids]
        if self._pair_links2d is not None:
            width = self._pair_links2d.shape[1]
            indptr = np.arange(
                0, (len(pairs) + 1) * width, width, dtype=np.int64
            )
            return FlowPaths(
                indptr=indptr,
                link_ids=self._pair_links2d[pairs].reshape(-1),
            )
        counts = self._pair_len[pairs]
        indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        if total == 0:  # pragma: no cover - remote routes are never empty
            return FlowPaths(indptr=indptr, link_ids=np.empty(0, dtype=np.int64))
        starts = self._pair_indptr[pairs]
        positions = np.ones(total, dtype=np.int64)
        positions[0] = starts[0]
        ends = np.cumsum(counts)[:-1]
        if len(ends):
            positions[ends] = starts[1:] - starts[:-1] - counts[:-1] + 1
        link_ids = self._pair_links[np.cumsum(positions)]
        return FlowPaths(indptr=indptr, link_ids=link_ids)

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not len(self._act_mids):
            return
        rates = self._act_rates
        if float(rates.min()) > 0.0:
            dt = float(max((self._act_remaining / rates).min(), 0.0))
        else:
            positive = rates > 0
            if not positive.any():  # pragma: no cover - defensive
                raise SimulationError("active flows with zero allocated rate")
            with np.errstate(divide="ignore"):
                ttc = np.where(positive, self._act_remaining / rates, np.inf)
            dt = float(max(ttc.min(), 0.0))
        if self._loss_model is not None and len(self._act_hazards):
            # Exponential waiting times fold into the epoch horizon: the
            # next loss (first budget to burn out at current hazards) is
            # an epoch boundary exactly like the next completion.
            hazards = self._act_hazards
            burning = hazards > 0.0
            if burning.any():
                budgets = self._loss_budget[self._act_mids]
                with np.errstate(divide="ignore"):
                    ttl = np.where(burning, budgets / hazards, np.inf)
                dt = min(dt, float(max(ttl.min(), 0.0)))
        self._completion_event = self.engine.schedule_after(
            dt, self._on_completion_due, priority=_RESOLVE_PRIORITY - 1
        )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._structure_dirty = True
        self._resolve()

    # ------------------------------------------------------------------
    # Loss overlay (stall / resume)
    # ------------------------------------------------------------------

    def _flow_rng(self, mid: int) -> np.random.Generator:
        """Per-flow named stream for post-loss draws (chains, budgets).

        Created lazily — losses are rare relative to flows — and keyed
        by message id, so the draw sequence a flow sees is independent
        of when other flows lose.
        """
        rng = self._flow_rngs.get(mid)
        if rng is None:
            rng = self._rng_factory.stream(f"net/loss/flow/{mid}")
            self._flow_rngs[mid] = rng
        return rng

    def _stall(self, mid: int, remaining: float) -> None:
        """A loss fired for *mid*: apply RTO backoff and park the flow.

        Mirrors the fluid engine's per-flow loss arithmetic (backoff
        reset after loss-free progress, exponential RTO, chained
        timeouts) over the array-resident state.
        """
        params = self._loss_params
        assert params is not None
        self._flow_remaining[mid] = remaining
        if self._bytes_since_loss[mid] >= params.backoff_reset_bytes:
            self._backoff[mid] = 0
        backoff = int(self._backoff[mid])
        penalty = params.rto(backoff)
        backoff += 1
        losses = 1
        rng = self._flow_rng(mid)
        # Chained timeouts: the retransmission may itself be dropped,
        # doubling the backoff before any data moves (Fig. 3 outliers).
        chain = params.chain_probability
        chained = 0
        while (
            chain > 0
            and chained < params.chain_max
            and rng.random() < chain
        ):
            penalty += params.rto(backoff)
            backoff += 1
            losses += 1
            chained += 1
            chain *= params.chain_decay
        self._backoff[mid] = backoff
        self._bytes_since_loss[mid] = 0.0
        self._flow_losses[mid] += losses
        self.total_losses += losses
        self.stalls += 1
        # Fresh unit-rate budget for the flow's next loss (the Poisson
        # process is memoryless; the stalled interval burns nothing
        # because the flow leaves the active set).
        self._loss_budget[mid] = float(rng.exponential())
        self._stalled_until[mid] = self.engine.now + penalty
        if self._tracing:
            self.trace.emit(
                self.engine.now, "flow.stall", fid=mid,
                src=self._msg_src[mid], dst=self._msg_dst[mid],
                penalty=penalty, backoff=backoff, remaining=remaining,
                label="",
            )
        self.engine.schedule_after(penalty, lambda: self._resume_flow(mid))

    def _resume_flow(self, mid: int) -> None:
        """RTO expired: the flow re-enters through the pending queue."""
        self._stalled_until[mid] = 0.0
        self._pending.append(mid)
        if self._tracing:
            self.trace.emit(
                self.engine.now, "flow.resume", fid=mid,
                src=self._msg_src[mid], dst=self._msg_dst[mid],
                remaining=float(self._flow_remaining[mid]), label="",
            )
        if self._resolve_event is None or self._resolve_event.cancelled:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )
        self._structure_dirty = True

    def _on_flow_complete(self, mid: int, inbound: int) -> None:
        self._schedulers[self._msg_src[mid]].release(mid, self._inject)
        self._complete_send(mid)
        self.engine.schedule_after(
            self.transport.base_latency,
            lambda: self._wire_arrival(mid, inbound),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorSimulator(nprocs={self.nprocs}, "
            f"active={len(self._act_mids)}, completed={self.flows_completed})"
        )
