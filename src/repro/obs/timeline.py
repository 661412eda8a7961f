"""Per-link utilization timeline fed by the simulation engines.

A :class:`LinkTimeline` is handed to an engine (``timeline=`` on the
built-in engine callables) and receives one :meth:`record_active` call
per allocation resolve — the instants at which the active flow set or
its rates change.  Between resolves every flow progresses linearly at
its allocated rate, so the per-link bandwidth and concurrency are
piecewise-constant and the timeline integrates them exactly:

* ``delivered_bytes[l]`` — total bytes carried by link *l*;
* ``busy_time[l]`` — wall time link *l* had at least one flow;
* ``peak_concurrency[l]`` — max simultaneous flows ever crossing *l*,
  the quantity the MED degree predicts (§5 of the paper).

The collector is engine-agnostic: it only needs the flow→link CSR
(:class:`~repro.simnet.fairness.FlowPaths`) and the per-flow rate
vector that every resolve already computes, so recording adds two
``np.bincount`` calls per resolve and nothing on the default path.
"""

from __future__ import annotations

import numpy as np

from ..simnet.fairness import FlowPaths
from ..simnet.topology import Topology

__all__ = ["LinkTimeline"]


class LinkTimeline:
    """Piecewise-constant per-link concurrency / bandwidth recorder.

    Parameters
    ----------
    n_links:
        Number of directed links in the topology being observed.
    names, kinds, capacities:
        Optional per-link metadata (stored verbatim; used by reports).
    keep_series:
        Keep the full sample series (time, per-link concurrency and
        bandwidth at each resolve) for plotting.  Aggregates are always
        maintained; the series costs two small arrays per resolve.
    """

    def __init__(
        self,
        n_links: int,
        *,
        names: tuple[str, ...] | None = None,
        kinds: tuple[str, ...] | None = None,
        capacities: np.ndarray | None = None,
        keep_series: bool = True,
    ) -> None:
        if n_links < 1:
            raise ValueError("timeline needs at least one link")
        self.n_links = int(n_links)
        self.names = names
        self.kinds = kinds
        self.capacities = (
            None if capacities is None
            else np.asarray(capacities, dtype=np.float64)
        )
        self.keep_series = keep_series

        self.peak_concurrency = np.zeros(self.n_links, dtype=np.int64)
        self.busy_time = np.zeros(self.n_links, dtype=np.float64)
        self.delivered_bytes = np.zeros(self.n_links, dtype=np.float64)
        self.n_samples = 0

        self._zeros_i = np.zeros(self.n_links, dtype=np.int64)
        self._zeros_f = np.zeros(self.n_links, dtype=np.float64)
        self._last_time = 0.0
        self._last_counts = self._zeros_i
        self._last_bandwidth = self._zeros_f

        self.times: list[float] = []
        self._count_series: list[np.ndarray] = []
        self._bw_series: list[np.ndarray] = []

    @classmethod
    def for_topology(cls, topology: Topology, **kwargs) -> "LinkTimeline":
        """A timeline dimensioned and labelled for *topology*."""
        links = topology.links
        return cls(
            topology.n_links,
            names=tuple(link.name for link in links),
            kinds=tuple(link.kind.value for link in links),
            capacities=np.asarray(topology.capacities(), dtype=np.float64),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Recording (called by the engines on every resolve)
    # ------------------------------------------------------------------

    def record_active(
        self,
        now: float,
        paths: FlowPaths | None,
        rates: np.ndarray,
    ) -> None:
        """Record the active set's per-link state at time *now*.

        *paths* is the flow→link CSR of the active flows (``None`` or
        empty when no flow is active) and *rates* the matching per-flow
        allocated rates.  The interval since the previous record is
        closed with the *previous* state (piecewise-constant exact
        integration); the new state opens the next interval.
        """
        dt = now - self._last_time
        if dt > 0:
            self.delivered_bytes += self._last_bandwidth * dt
            self.busy_time += (self._last_counts > 0) * dt
            self._last_time = now
        if paths is None or len(rates) == 0:
            counts: np.ndarray = self._zeros_i
            bandwidth: np.ndarray = self._zeros_f
        else:
            rates = np.asarray(rates, dtype=np.float64)
            counts = np.bincount(paths.link_ids, minlength=self.n_links)
            bandwidth = np.bincount(
                paths.link_ids, weights=rates[paths.entry_flow],
                minlength=self.n_links,
            )
        self._last_counts = counts
        self._last_bandwidth = bandwidth
        np.maximum(self.peak_concurrency, counts, out=self.peak_concurrency)
        self.n_samples += 1
        if self.keep_series:
            self.times.append(now)
            self._count_series.append(counts)
            self._bw_series.append(bandwidth)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Time of the last record (simulations start at t=0)."""
        return self._last_time

    def utilization(self) -> np.ndarray:
        """Mean fraction of each link's capacity actually used.

        ``delivered_bytes / (capacity * duration)`` — zero-safe, and
        only available when the timeline knows the capacities.
        """
        if self.capacities is None:
            raise ValueError("timeline was built without link capacities")
        denominator = self.capacities * self.duration
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                denominator > 0, self.delivered_bytes / denominator, 0.0
            )
        return util

    def series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, concurrency, bandwidth)`` sample arrays.

        *times* has shape ``(n_samples,)``; the others are
        ``(n_samples, n_links)``.  Requires ``keep_series=True``.
        """
        if not self.keep_series:
            raise ValueError("timeline was built with keep_series=False")
        if not self.times:
            empty = np.empty((0, self.n_links))
            return np.empty(0), empty.astype(np.int64), empty
        return (
            np.asarray(self.times, dtype=np.float64),
            np.vstack(self._count_series),
            np.vstack(self._bw_series),
        )

    def link_name(self, index: int) -> str:
        """Display name of link *index* (falls back to ``link{i}``)."""
        if self.names is not None:
            return self.names[index]
        return f"link{index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkTimeline(links={self.n_links}, samples={self.n_samples}, "
            f"duration={self.duration:.6g})"
        )
