"""The fluid engine's front-end: rank programs over the fluid network.

Rank programs are generator coroutines: they call nonblocking
:class:`~repro.simmpi.lowering.RankContext` methods (``isend``,
``irecv``) and block by *yielding* a request (or list of requests) —
the moral equivalent of ``MPI_Waitall``.  :meth:`Runtime.run` lowers the
program to a static schedule and replays it with the MPI protocol both
engines share (:mod:`repro.simmpi.protocol`); the runtime is that
replay's network model, one :class:`~repro.simnet.fluid.FluidNetwork`
flow per wire message, and it hands each resolve's finished flows to
the replay as one ``flows_done`` batch.  This stack is the correctness
oracle; its small-n results are frozen in
``tests/test_oracle_goldens.py``.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Generator

from ..simnet.fluid import FluidNetwork
from ..simnet.loss import LossParams
from ..simnet.penalty import HolPenalty
from ..simnet.rng import RngFactory
from ..simnet.topology import Topology
from ..simnet.trace import Trace
from .lowering import lower_program
from .protocol import ProtocolReplay, RunResult
from .transport import TransportParams

__all__ = ["Runtime", "RankProgram"]

RankProgram = Callable[..., Generator[Any, None, None]]


class Runtime:
    """Runs rank programs over a cluster model on the fluid network.

    Parameters
    ----------
    topology:
        Finalised :class:`~repro.simnet.topology.Topology`; rank *i* runs
        on host *i*.
    transport:
        Protocol behaviour (:class:`~repro.simmpi.transport.TransportParams`).
    loss_params:
        TCP loss process; ``None`` for lossless fabrics.
    nprocs:
        Number of ranks (must not exceed hosts).
    seed:
        Root seed; all stochastic behaviour derives from it.
    trace:
        Optional structured trace shared with the fluid layer.
    timeline:
        Optional per-link collector handed to the fluid network (see
        :class:`repro.obs.LinkTimeline`).
    """

    def __init__(
        self,
        topology: Topology,
        transport: TransportParams,
        *,
        nprocs: int | None = None,
        loss_params: LossParams | None = None,
        hol_penalty: HolPenalty | None = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
        timeline=None,
    ) -> None:
        self._replay = ProtocolReplay(
            topology, transport, nprocs=nprocs,
            start_skew_scale=start_skew_scale, seed=seed, trace=trace,
        )
        self.nprocs = self._replay.nprocs
        # Flow ids count from 0 in injection order, and the runtime is
        # the network's only injector, so flow f carries message
        # flow_mid[f.fid].  The handler holds no reference to the
        # runtime, so a finished run is freed by reference counting.
        flow_mid = self._flow_mid = array("q")
        flows_done = self._replay.flows_done

        def flows_finished(flows) -> None:
            flows_done([flow_mid[flow.fid] for flow in flows])

        self.network = FluidNetwork(
            self._replay.engine,
            topology,
            loss_params=loss_params,
            hol_penalty=hol_penalty,
            rng=RngFactory(seed).stream("net/loss"),
            trace=self._replay.trace,
            timeline=timeline,
            on_complete=flows_finished,
        )

    def run(
        self,
        program: RankProgram,
        *args: Any,
        max_events: int | None = None,
        **kwargs: Any,
    ) -> RunResult:
        """Run *program* on every rank until all finish.

        The program is called as ``program(ctx, *args, **kwargs)`` and
        must return a generator; programs that cannot be lowered to a
        static schedule raise :class:`~repro.exceptions.LoweringError`.
        """
        lowered = lower_program(program, self.nprocs, *args, **kwargs)
        return self._replay.run(lowered, self, max_events=max_events)

    # ------------------------------------------------------------------
    # Network model of the protocol replay (see repro.simmpi.protocol)
    # ------------------------------------------------------------------

    def attach(self, replay: ProtocolReplay) -> None:
        """Keep the wire sizes as floats, the flows' byte counts."""
        self._msg_wire = replay.wire.tolist()

    def inject(self, mid: int) -> None:
        """Start message *mid*'s payload as one fluid flow."""
        replay = self._replay
        self._flow_mid.append(mid)
        self.network.inject(
            replay.msg_src[mid],
            replay.msg_dst[mid],
            self._msg_wire[mid],
            label=f"msg{mid}",
        )

    def counters(self) -> dict[str, int]:
        """The run's :class:`RunResult` count fields, by name."""
        network = self.network
        return {
            "flows_completed": network.flows_completed,
            "max_concurrent_flows": network.max_concurrent,
            "total_losses": network.total_losses,
            "solves": network.resolves,
            "epochs": network.epochs,
            "stalls": network.stalls,
        }
