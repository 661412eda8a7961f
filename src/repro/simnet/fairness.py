"""Vectorised max-min fair bandwidth allocation (progressive filling).

This is the allocation core shared by *both* simulation engines — the
event-driven fluid reference (:mod:`repro.simnet.fluid`) and the batched
vector engine (:mod:`repro.simnet.vector`) call the same solve, which is
what makes their results comparable to floating-point roundoff.  Given
the set of active flows and the directed links each one crosses, it
allocates rates such that

* no link's capacity is exceeded,
* no flow can be given more rate without taking rate away from a flow
  with an equal or smaller allocation (max-min fairness).

The classic *progressive filling* (water-filling) algorithm is used, but
implemented over NumPy arrays so one allocation solve costs a handful of
vector operations per bottleneck level rather than Python-loop time per
flow (see the optimisation guidance in the project coding guides:
vectorise the hot loop, avoid per-element Python work).  The solves are
small (tens of flows on tens of links in the paper's sweeps) and run
thousands of times per simulated point, so both fills count calls.  The
CSR's row lengths and per-entry flow ids are derived once per
:class:`FlowPaths` and shared with the loss hazards and the link
timeline.  The exact fill costs about 20 small-array NumPy calls per
bottleneck level, with the fair shares written into one preallocated
buffer and the path entries of the newly frozen flows found with one
boolean mask over the per-entry flow ids.  The batched fill costs about
as many, and its fair shares are one unmasked divide per level under a
single ``np.errstate`` per solve: a link no unfrozen flow crosses reads
``x/0`` (``inf``, or ``nan``, which ``np.fmin`` skips) and so never
becomes the bottleneck.  The level that freezes the last flows skips the
residual bookkeeping, which nothing reads afterwards.

TCP's AIMD converges to rates close to max-min fair share on a LAN, and
flow-level simulators (SimGrid's LV08, LogGOPSim variants) use the same
approximation; §3 of the paper explicitly appeals to TCP "trying to
evenly share the bandwidth among the connections".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["FlowPaths", "AllocationResult", "max_min_allocation"]

_EPS = 1e-12


@dataclass(frozen=True)
class FlowPaths:
    """CSR encoding of flow → link incidence.

    ``link_ids[indptr[f]:indptr[f+1]]`` are the directed links crossed by
    flow ``f``.  Build once per allocation solve via :meth:`from_lists`.
    """

    indptr: np.ndarray  # (F+1,) int64
    link_ids: np.ndarray  # (nnz,) int64

    @classmethod
    def from_lists(cls, paths: list[tuple[int, ...]]) -> "FlowPaths":
        """Build from a list of per-flow link tuples."""
        lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
        indptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        link_ids = np.fromiter(
            itertools.chain.from_iterable(paths), dtype=np.int64,
            count=int(indptr[-1]),
        )
        return cls(indptr=indptr, link_ids=link_ids)

    @property
    def n_flows(self) -> int:
        """Number of flows encoded."""
        return len(self.indptr) - 1

    @cached_property
    def row_lengths(self) -> np.ndarray:
        """``(F,)`` number of links each flow crosses."""
        return self.indptr[1:] - self.indptr[:-1]

    @cached_property
    def entry_flow(self) -> np.ndarray:
        """``(nnz,)`` flow id of each entry of ``link_ids``.

        Derived once and shared by the solve, the loss hazards and the
        link timeline; readers must not write to it.
        """
        return np.repeat(np.arange(self.n_flows, dtype=np.int64), self.row_lengths)


@dataclass(frozen=True)
class AllocationResult:
    """Output of one max-min solve.

    Attributes
    ----------
    rates:
        Bytes/second granted to each flow, aligned with the input order.
    link_flow_count:
        Number of flows crossing each link.
    link_load:
        Total allocated rate per link (``None`` when the solve was asked
        to skip the summary via ``need_loads=False``).
    saturated:
        Boolean per link: allocated load equals capacity (within
        tolerance) — these are the bottleneck links (``None`` when
        skipped, as above).
    """

    rates: np.ndarray
    link_flow_count: np.ndarray
    link_load: "np.ndarray | None"
    saturated: "np.ndarray | None"


def max_min_allocation(
    capacities: np.ndarray,
    paths: FlowPaths,
    *,
    tie_eps: float = 0.0,
    need_loads: bool = True,
) -> AllocationResult:
    """Progressive-filling max-min fair allocation.

    Parameters
    ----------
    capacities:
        ``(L,)`` link capacities in bytes/second.
    paths:
        Flow → link incidence (every flow must cross >= 1 link).
    tie_eps:
        ``0.0`` (the default) freezes exactly one bottleneck link per
        filling iteration, the lowest link id among equal fair shares —
        the reference behaviour the fluid engine depends on bit-for-bit.
        Each iteration costs about 20 small-array NumPy calls, and the
        one that freezes the last flows stops before updating residual
        capacities and counts.  A positive value enables the batched
        variant used by the vector engine: every link whose fair share
        is within ``tie_eps`` (relative) of the minimum freezes in the
        same iteration, which collapses the many symmetric-NIC
        iterations of an All-to-All steady state into one and skips the
        reverse-CSR sort entirely.  Rates then differ from the reference
        by at most ~``tie_eps`` relative per bottleneck level.
    need_loads:
        ``False`` skips the per-link load/saturation summary (the
        result's ``link_load`` and ``saturated`` are ``None``) — the
        vector engine's epoch loop only consumes ``rates``, and the
        summary is a meaningful fraction of a small solve's cost.

    Raises
    ------
    ValueError
        If a flow crosses no links (local traffic must bypass the fluid
        model) or references an unknown link.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    n_links = len(capacities)
    n_flows = paths.n_flows
    rates = np.zeros(n_flows, dtype=np.float64)
    link_flow_count = np.bincount(paths.link_ids, minlength=n_links).astype(
        np.int64, copy=False
    )
    if n_flows == 0:
        return AllocationResult(
            rates=rates,
            link_flow_count=link_flow_count,
            link_load=np.zeros(n_links),
            saturated=np.zeros(n_links, dtype=bool),
        )
    # bincount grows past minlength exactly when some id is out of range.
    if len(link_flow_count) > n_links:
        raise ValueError("flow references link beyond capacity vector")
    if not paths.row_lengths.all():
        raise ValueError("flow with empty path cannot be allocated")

    if tie_eps > 0.0:
        rates, link_load = _batched_fill(
            capacities, paths, link_flow_count, rates, tie_eps,
            need_loads=need_loads,
        )
    else:
        rates, link_load = _exact_fill(
            capacities, paths, link_flow_count, rates, need_loads=need_loads,
        )
    if link_load is None:
        return AllocationResult(
            rates=rates,
            link_flow_count=link_flow_count,
            link_load=None,
            saturated=None,
        )
    # A link frozen as part of a tie batch is allocated the batch's
    # minimum share, leaving it up to ~tie_eps under capacity — it
    # is still a bottleneck physically, so the saturation test
    # widens by the same tolerance (the loss model keys off this).
    saturated = (link_flow_count > 0) & (
        link_load >= capacities * (1.0 - 1e-9 - tie_eps) - _EPS
    )
    return AllocationResult(
        rates=rates,
        link_flow_count=link_flow_count,
        link_load=link_load,
        saturated=saturated,
    )


def _exact_fill(
    capacities: np.ndarray,
    paths: FlowPaths,
    link_flow_count: np.ndarray,
    rates: np.ndarray,
    *,
    need_loads: bool,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Progressive filling that freezes one bottleneck link per level.

    The bottleneck is the first minimum ``argmin`` finds, so among links
    with equal fair shares the lowest link id freezes first; the fluid
    engine's results depend on that order bit for bit.  The flows
    crossing the bottleneck come from a reverse (link -> flows) CSR, and
    the path entries of the newly frozen ones, in flow-major CSR order,
    from a boolean mask over the per-entry flow ids.
    """
    n_links = len(capacities)
    n_flows = paths.n_flows
    link_ids = paths.link_ids
    ent_flow = paths.entry_flow
    flow_of_entry = ent_flow[np.argsort(link_ids, kind="stable")]
    rev_indptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(link_flow_count, out=rev_indptr[1:])

    residual = capacities.copy()
    unfrozen_count = link_flow_count.astype(np.float64)
    unfrozen = np.ones(n_flows, dtype=bool)
    newly_mask = np.zeros(n_flows, dtype=bool)
    fair = np.empty(n_links, dtype=np.float64)
    remaining = n_flows
    # Each iteration freezes at least one flow => bounded, but guard anyway.
    for _ in range(n_links + n_flows + 1):
        fair.fill(np.inf)
        np.divide(residual, unfrozen_count, out=fair, where=unfrozen_count > 0)
        bottleneck = int(fair.argmin())
        share = float(fair[bottleneck])
        if not math.isfinite(share):  # pragma: no cover - defensive
            break
        share = max(share, 0.0)
        entries = flow_of_entry[rev_indptr[bottleneck] : rev_indptr[bottleneck + 1]]
        newly = entries[unfrozen[entries]]
        if newly.size == 0:  # pragma: no cover - numeric guard
            unfrozen_count[bottleneck] = 0
            residual[bottleneck] = np.inf
            continue
        rates[newly] = share
        remaining -= newly.size
        if remaining == 0:
            # Last batch: the bookkeeping below only feeds the next level.
            break
        unfrozen[newly] = False
        newly_mask[newly] = True
        touched = link_ids[newly_mask[ent_flow]]
        newly_mask[newly] = False
        np.subtract.at(residual, touched, share)
        unfrozen_count -= np.bincount(touched, minlength=n_links)
        np.maximum(residual, 0.0, out=residual)
        unfrozen_count[bottleneck] = 0  # fully frozen by construction
    if not need_loads:
        return rates, None
    # bincount adds each link's weights one at a time, in entry order.
    return rates, np.bincount(link_ids, weights=rates[ent_flow], minlength=n_links)


def _batched_fill(
    capacities: np.ndarray,
    paths: FlowPaths,
    link_flow_count: np.ndarray,
    rates: np.ndarray,
    tie_eps: float,
    *,
    need_loads: bool = False,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Progressive filling that freezes all near-tied bottlenecks at once.

    Sort-free: instead of a reverse (link -> flows) CSR it keeps flat
    entry arrays (link id, flow id) and finds the flows hit by the tied
    links with two gathers per iteration.  Symmetric fabrics (every NIC
    equally loaded) collapse to one or two iterations total.  The entry
    arrays are *compacted* after each freeze batch — a frozen flow's
    entries are dropped rather than masked — so on heterogeneous
    fabrics with long freeze tails (hierarchical Fast Ethernet mid-run,
    where completions desynchronise the per-flow remaining bytes and
    each solve walks dozens of distinct bottleneck levels) the
    per-iteration cost tracks the shrinking live set, not the full CSR.

    With ``need_loads=True`` the per-link allocated load is accumulated
    inside the fill (``share * flows_removed`` per freeze batch), so
    callers that want the load/saturation summary don't pay a second
    pass over the CSR after the solve.
    """
    n_links = len(capacities)
    n_flows = paths.n_flows
    # Compacted as flows freeze: ent_flow only ever holds unfrozen flows
    # (all of a flow's entries die in the batch that freezes it).
    ent_link = paths.link_ids
    ent_flow = paths.entry_flow
    # Residuals stay >= 0, so a link no unfrozen flow crosses has fair
    # share x/0: inf, or nan, which fmin skips.  It is never the minimum
    # and never tied.
    residual = np.maximum(capacities, 0.0)
    unfrozen_count = link_flow_count.astype(np.float64)
    newly_mask = np.zeros(n_flows, dtype=bool)
    remaining = n_flows
    fair = np.empty(n_links, dtype=np.float64)
    link_load = np.zeros(n_links, dtype=np.float64) if need_loads else None
    tie_factor = 1.0 + tie_eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_links + n_flows + 1):
            np.divide(residual, unfrozen_count, out=fair)
            share = float(np.fmin.reduce(fair))
            if not math.isfinite(share):  # pragma: no cover - defensive
                break
            share = max(share, 0.0)
            tied = fair <= share * tie_factor
            hit_flows = ent_flow[tied[ent_link]]
            if hit_flows.size == 0:  # pragma: no cover - numeric guard
                unfrozen_count[tied] = 0
                continue
            newly_mask[hit_flows] = True
            n_new = int(np.count_nonzero(newly_mask))
            rates[hit_flows] = share
            remaining -= n_new
            if remaining == 0 and link_load is None:
                # Everything froze this round (the common symmetric-fabric
                # case) — the bookkeeping below only feeds the next
                # iteration.
                break
            dead = newly_mask[ent_flow]
            newly_mask[hit_flows] = False
            removed = np.bincount(ent_link[dead], minlength=n_links)
            frozen_load = share * removed
            if link_load is not None:
                link_load += frozen_load
            if remaining == 0:
                break
            keep = ~dead
            ent_link = ent_link[keep]
            ent_flow = ent_flow[keep]
            # Every live entry on a tied link is dead, so the tied links'
            # counts fall to exactly 0 here.
            residual -= frozen_load
            unfrozen_count -= removed
            np.maximum(residual, 0.0, out=residual)
    return rates, link_load
