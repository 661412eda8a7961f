"""Batched vector engine: epoch-synchronized flow simulation.

The fluid network (:mod:`repro.simnet.fluid`) pays per-flow Python work
on every allocation resolve: it rebuilds its slot arrays and CSR paths
one flow at a time.  This module is the vector engine's network model
instead, advancing **all active flows in synchronized epochs**:

* one max-min solve (:func:`repro.simnet.fairness.max_min_allocation`),
* one vectorized minimum time-to-completion,
* one array subtraction per epoch,

with each epoch's completions handed to the replay as one batch that
feeds the next phase of the schedule.  The flow → link CSR is never
rebuilt from Python lists: the routes of every (src, dst) pair come
from one route-table gather
(:meth:`~repro.simnet.topology.Topology.route_table`) at attach time,
and the active set's :class:`~repro.simnet.fairness.FlowPaths` is
assembled per epoch with a vectorized ragged gather.  Pair ids come from one
``np.unique`` over (src, dst) keys, numbered in order of first
appearance.  The MPI protocol on top is the replay both engines share
(:mod:`repro.simmpi.protocol`).

The TCP loss overlay (:mod:`repro.simnet.loss`) is vectorized over the
flow batch instead of replayed per flow.  Each flow carries a unit-rate
Poisson *budget* — an Exp(1) draw decremented by ``hazard * dt`` every
epoch — and loses a packet when the budget crosses zero (the standard
time-rescaling construction of an inhomogeneous Poisson process, equal
in law to the fluid engine's global competing-exponential clock).  Loss
state is array-resident (budget, ``backoff`` and ``bytes_since_loss``
vectors indexed by message id); RTO expiries are ordinary epoch
boundaries: a stalled flow drops out of the max-min solve and re-enters
through the pending queue when its penalty elapses.  The RTO arithmetic
is :meth:`~repro.simnet.loss.LossParams.timeout`, shared with the fluid
engine.  Determinism comes from the named
:class:`~repro.simnet.rng.RngFactory` stream discipline — initial
budgets from one vectorized ``"net/loss/budget"`` draw indexed by
message id, post-loss chain and budget draws from a lazily created
``"net/loss/flow/<mid>"`` stream per flow — so loss sequences are stable
across processes and epoch orderings.  The overlay is gated on one flag,
"some active hazard is positive", set at each solve: while no saturated
link carries more flows than its ``sat_flows`` threshold every hazard is
exactly 0, and the epoch skips the budget burn, the spent-budget scan
and the loss horizon, each an exact no-op then.  ``bytes_since_loss``
accumulates only from the run's first loss on, because it is read only
at a stall, to reset a backoff that is 0 until a flow has lost.

Equivalence contract: with losses disabled the two engines agree to
floating-point roundoff (the fluid engine remains the correctness
oracle, see ``repro.engines``).  With losses enabled the engines sample
the *same stochastic process* through different random-number streams,
so individual runs differ but distributions match — lossy equivalence
is asserted statistically (mean completion time over paired seeds), not
bit-exact.

Observability: pass ``trace=`` to record ``flow.inject`` /
``flow.complete`` (same categories as the fluid engine) plus
``flow.stall`` / ``flow.resume`` around every RTO gap and the
vector-specific ``vector.epoch`` (one per resolve, with the active-set
size), next to the protocol's ``mpi.*`` records; pass ``timeline=`` (a
:class:`~repro.obs.timeline.LinkTimeline`) to collect per-link
concurrency/bandwidth.  All default to off with zero overhead.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import SimulationError
from .engine import EventHandle
from .fairness import FlowPaths, max_min_allocation
from .fluid import _BYTE_EPS, _RESOLVE_PRIORITY
from .loss import LossModel, LossParams
from .penalty import HolPenalty
from .rng import RngFactory
from .topology import Topology
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..simmpi.lowering import LoweredProgram
    from ..simmpi.protocol import ProtocolReplay, RunResult
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


class VectorSimulator:
    """Executes a :class:`~repro.simmpi.lowering.LoweredProgram`.

    Constructor parameters mirror :class:`~repro.simmpi.runtime.Runtime`
    so cluster profiles drive both engines identically.  The simulator
    is the protocol replay's network model (see
    :mod:`repro.simmpi.protocol`): the replay calls :meth:`attach` and
    :meth:`inject`, and each epoch's completed flows go back as one
    batch through its ``flows_done``.  It moves bytes only; the
    receiving hosts' open-flow counts are the replay's.
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
        # Imported here: repro.simmpi builds on this package.
        from ..simmpi.protocol import ProtocolReplay

        self._replay = ProtocolReplay(
            topology, transport, nprocs=nprocs,
            start_skew_scale=start_skew_scale, seed=seed, trace=trace,
        )
        self.nprocs = self._replay.nprocs
        self.topology = topology
        self.trace = self._replay.trace
        self._tracing = self.trace.enabled
        self._timeline = timeline
        self._inject_time: dict[int, float] = {}
        self.engine = self._replay.engine
        self._rng_factory = RngFactory(seed)
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

        # The per-message columns and pair routes are set by attach();
        # the dense route matrix only when every route has one length.
        self._pair_links2d: "np.ndarray | None" = None

        # Flow core (active set, slot order = injection order).
        self._act_mids = np.empty(0, dtype=np.int64)
        self._act_remaining = np.empty(0, dtype=np.float64)
        self._act_rates = np.empty(0, dtype=np.float64)
        self._act_hazards = np.empty(0, dtype=np.float64)
        # Whether some active hazard is positive.  While it is false the
        # budget burn, the spent-budget scan and the loss horizon are
        # exact no-ops, and the epoch skips them.
        self._burning = False
        self._pending = array("q")

        # Loss-overlay state, allocated per message id in attach() when
        # the profile enables losses.
        self._loss_budget = np.empty(0, dtype=np.float64)
        self._backoff = np.empty(0, dtype=np.int64)
        self._bytes_since_loss = np.empty(0, dtype=np.float64)
        self._flow_losses = np.empty(0, dtype=np.int64)
        self._flow_remaining = np.empty(0, dtype=np.float64)
        self._flow_rngs: dict[int, np.random.Generator] = {}
        self._structure_dirty = False
        self._last_advance = 0.0
        self._resolve_event: EventHandle | None = None
        self._completion_event: EventHandle | None = None

        # Aggregate statistics.
        self.flows_completed = 0
        self.max_concurrent = 0
        self.resolves = 0
        self.epochs = 0
        self.total_losses = 0
        self.stalls = 0

    def run(
        self, lowered: "LoweredProgram", *, max_events: int | None = None
    ) -> "RunResult":
        """Execute the schedule; returns the reference-shaped result."""
        return self._replay.run(lowered, self, max_events=max_events)

    # ------------------------------------------------------------------
    # Network model of the protocol replay
    # ------------------------------------------------------------------

    def attach(self, replay: "ProtocolReplay") -> None:
        """Per-message network state, array-wide over the replay's columns."""
        self._flows_done = replay.flows_done
        src, dst, local, wire = replay.src, replay.dst, replay.local, replay.wire
        n_messages = len(src)
        # Pair ids number the distinct remote (src, dst) pairs in order
        # of first appearance; one route-table gather routes them all.
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
        pair_src, pair_dst = np.divmod(pair_keys[by_appearance], self.nprocs)
        # Freed first: the gather's temporaries set a lossless run's
        # memory peak.
        del remote, pair_keys, first, inverse, by_appearance, pair_id
        self._pair_indptr, self._pair_links = self.topology.route_table(
            pair_src, pair_dst
        )
        # Per-message attributes the replay's columns already hold; the
        # epoch loop reads the NumPy arrays.
        self._msg_src = replay.msg_src
        self._msg_dst = replay.msg_dst
        self._msg_nbytes = replay.msg_nbytes
        self._msg_wire = wire
        self._msg_pair = pair
        lengths = self._pair_len = np.diff(self._pair_indptr)
        if len(lengths) and int(lengths.min()) == int(lengths.max()):
            # Uniform route length (true on single-switch and other
            # symmetric fabrics): the per-pair routes form a dense
            # matrix, so the per-epoch CSR assembly reduces to one fancy
            # index instead of a ragged gather.
            self._pair_links2d = self._pair_links.reshape(
                len(lengths), int(lengths[0])
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
            self._flow_losses = np.zeros(n_messages, dtype=np.int64)
            self._flow_remaining = wire.copy()

    def counters(self) -> dict[str, int]:
        """The run's ``RunResult`` count fields, by name."""
        return {
            "flows_completed": self.flows_completed,
            "max_concurrent_flows": self.max_concurrent,
            "total_losses": self.total_losses,
            "solves": self.resolves,
            "epochs": self.epochs,
            "stalls": self.stalls,
        }

    # ------------------------------------------------------------------
    # Batched flow core (the epoch loop)
    # ------------------------------------------------------------------

    def inject(self, mid: int) -> None:
        """Admit message *mid*'s payload to the next resolve."""
        self._pending.append(mid)
        if self._tracing:
            self._inject_time[mid] = self.engine.now
            self.trace.emit(
                self.engine.now, "flow.inject", fid=mid,
                src=self._msg_src[mid], dst=self._msg_dst[mid],
                nbytes=self._msg_nbytes[mid], label="",
            )
        if self._resolve_event is None:
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
            if self._burning:
                # Time-rescaling: each flow's Exp(1) budget burns at its
                # instantaneous hazard; crossing zero is a packet loss.
                self._loss_budget[self._act_mids] -= self._act_hazards * dt
            if self.stalls:
                # Read only at a stall, to reset a backoff; until the
                # run's first loss every backoff is already 0.
                self._bytes_since_loss[self._act_mids] += moved
            self.epochs += 1
        self._last_advance = now

        finished = np.empty(0, dtype=np.int64)
        if n_active:
            mask = self._act_remaining <= _BYTE_EPS
            if mask.any():
                finished = self._act_mids[mask]
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

        if self._burning and len(self._act_mids):
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
                admitted = np.array(self._pending, dtype=np.int64)
                del self._pending[:]
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
                    paths,
                    alloc.rates,
                    alloc.link_flow_count,
                    alloc.saturated,
                    backoffs,
                )
                self._burning = bool(self._act_hazards.any())
            else:
                self._act_hazards = np.empty(0, dtype=np.float64)
        else:
            self._act_rates = np.empty(0, dtype=np.float64)
            self._act_hazards = np.empty(0, dtype=np.float64)
            self._burning = False

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
        if len(finished):
            self._flows_done(memoryview(finished))

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
        if self._burning:
            # Exponential waiting times fold into the epoch horizon: the
            # next loss (first budget to burn out at current hazards) is
            # an epoch boundary exactly like the next completion.
            hazards = self._act_hazards
            budgets = self._loss_budget[self._act_mids]
            with np.errstate(divide="ignore"):
                ttl = np.where(hazards > 0.0, budgets / hazards, np.inf)
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

        The backoff resets after loss-free progress; the RTO and chained
        timeouts are :meth:`~repro.simnet.loss.LossParams.timeout`,
        drawn from the flow's own stream.
        """
        params = self._loss_params
        assert params is not None
        self._flow_remaining[mid] = remaining
        if self._bytes_since_loss[mid] >= params.backoff_reset_bytes:
            self._backoff[mid] = 0
        rng = self._flow_rng(mid)
        penalty, backoff, losses = params.timeout(int(self._backoff[mid]), rng)
        self._backoff[mid] = backoff
        self._bytes_since_loss[mid] = 0.0
        self._flow_losses[mid] += losses
        self.total_losses += losses
        self.stalls += 1
        # Fresh unit-rate budget for the flow's next loss (the Poisson
        # process is memoryless; the stalled interval burns nothing
        # because the flow leaves the active set).
        self._loss_budget[mid] = float(rng.exponential())
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
        self._pending.append(mid)
        if self._tracing:
            self.trace.emit(
                self.engine.now, "flow.resume", fid=mid,
                src=self._msg_src[mid], dst=self._msg_dst[mid],
                remaining=float(self._flow_remaining[mid]), label="",
            )
        if self._resolve_event is None:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )
        self._structure_dirty = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorSimulator(nprocs={self.nprocs}, "
            f"active={len(self._act_mids)}, completed={self.flows_completed})"
        )
