"""Event-driven fluid (flow-level) network simulation — the reference engine.

Flows are fluid streams that share link bandwidth max-min fairly
(:mod:`repro.simnet.fairness`).  Whenever the set of active flows changes
(injection, completion, RTO stall, resume) the allocation is re-solved and
the next completion / loss events are rescheduled.  Between events every
flow progresses linearly at its allocated rate.

Layering: this module is one of two *engines* behind the ``ENGINES``
registry (see :mod:`repro.engines`).  It serves the generator-driven
reference runtime (:mod:`repro.simmpi.runtime`), which injects flows one
at a time as rank programs progress; the batched alternative
(:mod:`repro.simnet.vector`) executes statically lowered schedules
(:mod:`repro.simmpi.lowering`) instead and re-uses this module's epsilon
and event-priority conventions to stay equivalent.  This engine is the
default and the correctness oracle: the vector engine's loss overlay is
validated statistically against this one, and cache keys are defined by
its behaviour.

Design notes (performance and the engine split):

* per-flow state that the hot loop touches (remaining bytes, rates) lives
  in NumPy arrays indexed by *slot*; Python ``Flow`` objects are only
  touched on state transitions;
* the allocation structure (flow→link CSR) is rebuilt only when the
  active set changes, not on pure re-samples.  The rebuild still walks
  every active flow in Python (slot compaction, renumbering,
  ``FlowPaths.from_lists``), and that is what caps this engine at tens
  of ranks: with the exact solve at about 20 NumPy calls per bottleneck
  level, the solve takes 40–50% of engine time and the rebuild about
  20% at the paper's n=12, but the rebuild takes about 70% (the solve
  25%) at n=64 on lossless GigE, where each resolve re-walks ~4000
  flows.  The vector engine replaces the rebuild with a precomputed
  per-pair CSR gather and batches the solve per epoch;
* event cascades within one timestamp are collapsed: completion handlers
  fire user callbacks, which typically inject follow-up flows at the same
  timestamp; those coalesce into a single follow-up resolve.

The loss overlay implements the TCP RTO mechanism described in
:mod:`repro.simnet.loss`; pass ``loss_params=None`` (or params with
``coeff_per_byte=0``) for lossless fabrics (Myrinet/gm).
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable

import numpy as np

from ..exceptions import SimulationError
from .engine import Engine, EventHandle
from .fairness import FlowPaths, max_min_allocation
from .loss import LossModel, LossParams
from .penalty import HolPenalty
from .topology import Topology
from .trace import NullTrace, Trace

__all__ = ["FlowState", "Flow", "FluidNetwork"]

_BYTE_EPS = 0.5  # flows within half a byte of zero are complete
_RESOLVE_PRIORITY = 100  # resolves run after all same-timestamp events


class FlowState(enum.Enum):
    """Lifecycle of a fluid flow."""

    PENDING = "pending"  #: injected, not yet incorporated in a resolve
    ACTIVE = "active"  #: progressing at its allocated rate
    STALLED = "stalled"  #: waiting out an RTO after a loss
    DONE = "done"  #: all bytes delivered


class Flow:
    """One fluid transfer between two hosts.

    Authoritative ``remaining`` is held in the network's slot arrays while
    the flow is ACTIVE; the attribute on this object is synchronised on
    every state transition.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "nbytes",
        "remaining",
        "path",
        "state",
        "on_complete",
        "label",
        "start_time",
        "end_time",
        "losses",
        "backoff",
        "remaining_at_last_loss",
        "slot",
        "inbound_at_completion",
    )

    def __init__(
        self,
        fid: int,
        src: int,
        dst: int,
        nbytes: float,
        path: tuple[int, ...],
        on_complete: Callable[["Flow"], None] | None,
        label: str,
        start_time: float,
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.path = path
        self.state = FlowState.PENDING
        self.on_complete = on_complete
        self.label = label
        self.start_time = start_time
        self.end_time = math.nan
        self.losses = 0
        self.backoff = 0
        self.remaining_at_last_loss = float(nbytes)
        self.slot = -1
        # Inbound streams open at the destination when this flow finished
        # (including itself); the receiver demux model reads this.
        self.inbound_at_completion = 1

    @property
    def duration(self) -> float:
        """Wall-clock transfer time (NaN until complete)."""
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.label or self.fid}, {self.src}->{self.dst}, "
            f"{self.nbytes:.0f}B, {self.state.value})"
        )


class FluidNetwork:
    """Fluid traffic simulation over a :class:`Topology`.

    Parameters
    ----------
    engine:
        Shared event engine (the MPI runtime schedules on the same one).
    topology:
        Finalised topology; routes are looked up per flow at injection.
    loss_params:
        TCP loss/RTO behaviour; ``None`` disables losses.
    rng:
        Generator for the loss process (required when losses enabled).
    trace:
        Optional structured trace.
    timeline:
        Optional :class:`~repro.obs.timeline.LinkTimeline` (or anything
        with its ``record_active(now, paths, rates)`` shape) fed on
        every allocation resolve; ``None`` (default) records nothing.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        *,
        loss_params: LossParams | None = None,
        hol_penalty: HolPenalty | None = None,
        rng: np.random.Generator | None = None,
        trace: Trace | None = None,
        timeline=None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.trace = trace if trace is not None else NullTrace()
        self._timeline = timeline
        self._capacities = np.asarray(topology.capacities(), dtype=np.float64)
        self._fid = itertools.count()
        if hol_penalty is not None and hol_penalty.enabled:
            self._hol = hol_penalty
            self._hol_eta = hol_penalty.eta_vector(
                [link.kind for link in topology.links]
            )
        else:
            self._hol = None
            self._hol_eta = None

        if loss_params is not None and loss_params.enabled:
            if rng is None:
                raise ValueError("loss process requires an rng")
            kinds = [link.kind for link in topology.links]
            self._loss_model: LossModel | None = LossModel(loss_params, kinds)
            self._loss_params = loss_params
        else:
            self._loss_model = None
            self._loss_params = loss_params
        self._rng = rng

        # Slot arrays for ACTIVE flows.
        self._slot_flows: list[Flow] = []
        self._remaining = np.empty(0, dtype=np.float64)
        self._rates = np.empty(0, dtype=np.float64)
        self._hazards = np.empty(0, dtype=np.float64)
        self._paths: FlowPaths | None = None

        self._pending: list[Flow] = []
        self._structure_dirty = False
        self._last_advance = 0.0
        self._resolve_event: EventHandle | None = None
        self._completion_event: EventHandle | None = None
        self._loss_event: EventHandle | None = None

        self._inbound_open: dict[int, int] = {}
        self._outbound_open: dict[int, int] = {}

        # Aggregate statistics.
        self.flows_completed = 0
        self.total_losses = 0
        self.stalls = 0
        self.max_concurrent = 0
        self.resolves = 0
        self.epochs = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def inject(
        self,
        src: int,
        dst: int,
        nbytes: float,
        *,
        on_complete: Callable[[Flow], None] | None = None,
        label: str = "",
    ) -> Flow:
        """Start a transfer of *nbytes* from host *src* to host *dst*.

        Raises for same-host traffic (local copies must bypass the
        network) and for non-positive sizes.
        """
        if nbytes <= 0:
            raise ValueError(f"flow size must be positive, got {nbytes!r}")
        if src == dst:
            raise SimulationError(
                "same-host flow: local traffic must not enter the fluid model"
            )
        path = self.topology.route(src, dst)
        flow = Flow(
            next(self._fid),
            src,
            dst,
            nbytes,
            path,
            on_complete,
            label,
            self.engine.now,
        )
        self._pending.append(flow)
        self._inbound_open[dst] = self._inbound_open.get(dst, 0) + 1
        self._outbound_open[src] = self._outbound_open.get(src, 0) + 1
        self._mark_dirty()
        self.trace.emit(
            self.engine.now, "flow.inject", fid=flow.fid, src=src, dst=dst,
            nbytes=nbytes, label=label,
        )
        return flow

    def inbound_open_count(self, host: int) -> int:
        """Inbound flows injected and not yet complete for *host*.

        Counts PENDING flows as well as ACTIVE and STALLED ones: a flow
        is "open" at the receiver from the instant it is injected (the
        receiver's stack is already committed to it; pending flows are
        admitted by the same-timestamp resolve, so the distinction is
        only visible mid-cascade).  The demux-concurrency snapshot taken
        at flow completion relies on exactly this semantics.
        """
        return self._inbound_open.get(host, 0)

    def outbound_open_count(self, host: int) -> int:
        """Outbound flows injected and not yet complete for *host*.

        Same open-from-injection semantics as :meth:`inbound_open_count`
        (PENDING, ACTIVE, or STALLED).
        """
        return self._outbound_open.get(host, 0)

    @property
    def active_count(self) -> int:
        """Number of flows currently progressing."""
        return len(self._slot_flows)

    def current_rate(self, flow: Flow) -> float:
        """Instantaneous allocated rate of *flow* (0 unless ACTIVE)."""
        if flow.state is FlowState.ACTIVE and 0 <= flow.slot < len(self._rates):
            return float(self._rates[flow.slot])
        return 0.0

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _mark_dirty(self) -> None:
        self._structure_dirty = True
        if self._resolve_event is None or self._resolve_event.cancelled:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )

    def _advance(self) -> None:
        """Progress all active flows to the current time."""
        now = self.engine.now
        dt = now - self._last_advance
        if dt > 0 and len(self._slot_flows):
            self._remaining -= self._rates * dt
            self.epochs += 1
        self._last_advance = now

    def _complete_finished(self) -> list[Flow]:
        """Mark flows whose bytes are exhausted as DONE; return them."""
        if not len(self._slot_flows):
            return []
        finished_mask = self._remaining <= _BYTE_EPS
        if not finished_mask.any():
            return []
        finished: list[Flow] = []
        now = self.engine.now
        slots = np.nonzero(finished_mask)[0]
        # Snapshot receiver concurrency before decrementing, so flows
        # that finish in the same batch all observe each other (the
        # receiver is demultiplexing them together).
        snapshot = {
            self._slot_flows[slot].dst: self._inbound_open[self._slot_flows[slot].dst]
            for slot in slots
        }
        for slot in slots:
            flow = self._slot_flows[slot]
            flow.remaining = 0.0
            flow.state = FlowState.DONE
            flow.end_time = now
            flow.slot = -1
            flow.inbound_at_completion = snapshot[flow.dst]
            finished.append(flow)
            self._inbound_open[flow.dst] -= 1
            self._outbound_open[flow.src] -= 1
            self.flows_completed += 1
            self.trace.emit(
                now, "flow.complete", fid=flow.fid, src=flow.src, dst=flow.dst,
                duration=flow.duration, losses=flow.losses, label=flow.label,
            )
        self._structure_dirty = True
        return finished

    def _rebuild(self) -> None:
        """Compact slot arrays: drop non-active flows, admit pending ones."""
        survivors: list[Flow] = []
        survivor_remaining: list[float] = []
        for slot, flow in enumerate(self._slot_flows):
            if flow.state is FlowState.ACTIVE:
                survivors.append(flow)
                survivor_remaining.append(float(self._remaining[slot]))
            else:
                # Synchronise authoritative remaining back onto the object.
                if flow.state is not FlowState.DONE:
                    flow.remaining = max(float(self._remaining[slot]), 0.0)
        admitted = []
        for flow in self._pending:
            if flow.state in (FlowState.PENDING, FlowState.STALLED):
                flow.state = FlowState.ACTIVE
                admitted.append(flow)
        self._pending.clear()
        self._slot_flows = survivors + admitted
        self._remaining = np.array(
            survivor_remaining + [f.remaining for f in admitted], dtype=np.float64
        )
        for slot, flow in enumerate(self._slot_flows):
            flow.slot = slot
        self._rates = np.zeros(len(self._slot_flows), dtype=np.float64)
        if self._slot_flows:
            self._paths = FlowPaths.from_lists([f.path for f in self._slot_flows])
        else:
            self._paths = None
        self._structure_dirty = False
        self.max_concurrent = max(self.max_concurrent, len(self._slot_flows))

    def _resolve(self) -> None:
        """Re-solve rates and reschedule the next completion/loss events."""
        self._resolve_event = None
        self.resolves += 1
        self._advance()
        finished = self._complete_finished()

        if self._structure_dirty:
            self._rebuild()

        if self._slot_flows:
            assert self._paths is not None
            capacities = self._capacities
            if self._hol is not None:
                counts = np.bincount(
                    self._paths.link_ids, minlength=len(capacities)
                )
                capacities = self._hol.effective(capacities, self._hol_eta, counts)
            alloc = max_min_allocation(capacities, self._paths)
            self._rates = alloc.rates
            if self._loss_model is not None:
                backoffs = np.fromiter(
                    (f.backoff for f in self._slot_flows),
                    dtype=np.float64,
                    count=len(self._slot_flows),
                )
                self._hazards = self._loss_model.flow_hazards(
                    self._paths.link_ids,
                    self._paths.indptr,
                    alloc.rates,
                    alloc.link_flow_count,
                    alloc.saturated,
                    backoffs,
                )
            else:
                self._hazards = np.zeros(len(self._slot_flows))
        else:
            self._hazards = np.empty(0)

        if self._timeline is not None:
            self._timeline.record_active(
                self.engine.now,
                self._paths if self._slot_flows else None,
                self._rates,
            )

        self._schedule_completion()
        self._schedule_loss()

        # Completion callbacks run last: they may inject follow-up flows,
        # which coalesce into a single new resolve at this timestamp.
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not len(self._slot_flows):
            return
        positive = self._rates > 0
        if not positive.any():  # pragma: no cover - defensive
            raise SimulationError("active flows with zero allocated rate")
        with np.errstate(divide="ignore"):
            ttc = np.where(positive, self._remaining / self._rates, np.inf)
        dt = float(max(ttc.min(), 0.0))
        self._completion_event = self.engine.schedule_after(
            dt, self._on_completion_due, priority=_RESOLVE_PRIORITY - 1
        )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._structure_dirty = True
        self._resolve()

    def _schedule_loss(self) -> None:
        if self._loss_event is not None:
            self._loss_event.cancel()
            self._loss_event = None
        if self._loss_model is None or not len(self._hazards):
            return
        total = float(self._hazards.sum())
        if total <= 0.0:
            return
        assert self._rng is not None
        dt = float(self._rng.exponential(1.0 / total))
        self._loss_event = self.engine.schedule_after(
            dt, self._on_loss_due, priority=_RESOLVE_PRIORITY - 2
        )

    def _on_loss_due(self) -> None:
        """A congestion loss fires: stall one flow for an RTO."""
        self._loss_event = None
        assert self._rng is not None and self._loss_params is not None
        total = float(self._hazards.sum())
        if total <= 0 or not len(self._slot_flows):  # pragma: no cover
            return
        probabilities = self._hazards / total
        victim_slot = int(self._rng.choice(len(self._slot_flows), p=probabilities))
        self._advance()
        flow = self._slot_flows[victim_slot]
        flow.remaining = max(float(self._remaining[victim_slot]), 0.0)

        moved = flow.remaining_at_last_loss - flow.remaining
        if moved >= self._loss_params.backoff_reset_bytes:
            flow.backoff = 0
        penalty = self._loss_params.rto(flow.backoff)
        flow.backoff += 1
        flow.losses += 1
        self.total_losses += 1
        # Chained timeouts: the retransmission may itself be dropped,
        # doubling the backoff before any data moves (Fig. 3 outliers).
        # Probability decays per chain: congestion drains while the flow
        # is silent, so deep chains are rare (see LossParams.chain_decay).
        chain = self._loss_params.chain_probability
        chained = 0
        while (
            chain > 0
            and chained < self._loss_params.chain_max
            and self._rng.random() < chain
        ):
            penalty += self._loss_params.rto(flow.backoff)
            flow.backoff += 1
            flow.losses += 1
            self.total_losses += 1
            chained += 1
            chain *= self._loss_params.chain_decay
        flow.remaining_at_last_loss = flow.remaining

        flow.state = FlowState.STALLED
        flow.slot = -1
        self.stalls += 1
        self._structure_dirty = True
        self.trace.emit(
            self.engine.now, "flow.loss", fid=flow.fid, src=flow.src,
            dst=flow.dst, penalty=penalty, backoff=flow.backoff,
            remaining=flow.remaining, label=flow.label,
        )
        self.engine.schedule_after(penalty, lambda: self._resume(flow))
        self._resolve()

    def _resume(self, flow: Flow) -> None:
        """RTO expired: the flow re-enters the active set."""
        if flow.state is not FlowState.STALLED:  # pragma: no cover - defensive
            return
        self._pending.append(flow)
        self.trace.emit(
            self.engine.now, "flow.resume", fid=flow.fid, src=flow.src,
            dst=flow.dst, remaining=flow.remaining, label=flow.label,
        )
        self._mark_dirty()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FluidNetwork(active={len(self._slot_flows)}, "
            f"completed={self.flows_completed}, losses={self.total_losses})"
        )
