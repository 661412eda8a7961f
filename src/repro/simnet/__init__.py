"""Fluid discrete-event network simulator (substrate).

Replaces the paper's physical Grid'5000 clusters.  See DESIGN.md §2/§5
for the substitution argument and contention mechanisms.
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
