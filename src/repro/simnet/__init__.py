"""Fluid discrete-event network simulator (substrate).

Replaces the paper's physical Grid'5000 clusters: the signature needs
only completion times, so a network that shares bandwidth max-min and
models the three contention mechanisms stands in for them — TCP loss
(:mod:`.loss`), head-of-line blocking (:mod:`.penalty`) and receive
demultiplexing (:mod:`.resources`).
"""

from .engine import Engine, EventHandle
from .entities import Host, Link, LinkKind, Switch
from .fairness import AllocationResult, FlowPaths, max_min_allocation
from .fluid import Flow, FlowState, FluidNetwork
from .loss import LossModel, LossParams
from .penalty import HolPenalty
from .resources import SerialResource
from .rng import RngFactory
from .stats import Summary, stats_enabled, summarize
from .topology import Topology, edge_core, single_switch
from .trace import NullTrace, Trace, TraceRecord
from .vector import VectorSimulator

__all__ = [
    "Engine",
    "EventHandle",
    "Host",
    "Link",
    "LinkKind",
    "Switch",
    "AllocationResult",
    "FlowPaths",
    "max_min_allocation",
    "Flow",
    "FlowState",
    "FluidNetwork",
    "LossModel",
    "LossParams",
    "HolPenalty",
    "SerialResource",
    "RngFactory",
    "Summary",
    "stats_enabled",
    "summarize",
    "VectorSimulator",
    "Topology",
    "edge_core",
    "single_switch",
    "NullTrace",
    "Trace",
    "TraceRecord",
]
