"""Bottleneck ranking and observed-vs-predicted contention checks.

The MED (§5 of the paper) predicts how many transmissions cross each
network resource: the number of communication-matrix arcs whose route
traverses the link.  On a uniform All-to-All direct exchange this is
exactly the node degree (n−1 on every NIC).  A
:class:`ContentionReport` compares that *prediction* against the
*observed* peak concurrency a :class:`~repro.obs.timeline.LinkTimeline`
recorded — making the paper's central modelling assumption a directly
testable property of every simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simnet.topology import Topology
from .timeline import LinkTimeline

__all__ = ["LinkContention", "ContentionReport", "predicted_concurrency"]


def predicted_concurrency(topology: Topology, matrix) -> np.ndarray:
    """MED-predicted per-link concurrency for a byte *matrix*.

    Counts, for every directed link, the matrix arcs (``matrix[i, j] >
    0``, ``i != j``) whose route crosses it — the §5 resource-usage
    count, one ``np.bincount`` over the arcs' route-table entries.
    Placement-aware by construction: a
    :class:`~repro.placement.placed.PlacedTopology` remaps the routes,
    so the prediction follows the placed traffic.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    sources, destinations = np.nonzero(matrix)
    arcs = sources != destinations
    _, links = topology.route_table(sources[arcs], destinations[arcs])
    return np.bincount(links, minlength=topology.n_links)


@dataclass(frozen=True)
class LinkContention:
    """Observed and predicted contention of one directed link."""

    index: int
    name: str
    kind: str
    capacity: float
    observed_peak: int
    predicted_peak: int
    busy_time: float
    delivered_bytes: float
    utilization: float

    @property
    def matches(self) -> bool:
        """Whether the observed peak equals the MED prediction."""
        return self.observed_peak == self.predicted_peak


class ContentionReport:
    """Ranked per-link contention of one observed run.

    Build with :meth:`from_timeline`; iterate for the per-link rows
    (link-index order), or use :meth:`bottlenecks` / :meth:`render`
    for the ranked views.
    """

    def __init__(self, links: list[LinkContention], duration: float) -> None:
        self.links = links
        self.duration = float(duration)

    @classmethod
    def from_timeline(
        cls,
        timeline: LinkTimeline,
        topology: Topology,
        matrix,
    ) -> "ContentionReport":
        """Compare *timeline* observations against the MED prediction."""
        if timeline.n_links != topology.n_links:
            raise ValueError(
                f"timeline covers {timeline.n_links} links, topology has "
                f"{topology.n_links}"
            )
        predicted = predicted_concurrency(topology, matrix)
        utilization = (
            timeline.utilization()
            if timeline.capacities is not None
            else np.zeros(timeline.n_links)
        )
        links = [
            LinkContention(
                index=link.index,
                name=link.name,
                kind=link.kind.value,
                capacity=link.capacity,
                observed_peak=int(timeline.peak_concurrency[link.index]),
                predicted_peak=int(predicted[link.index]),
                busy_time=float(timeline.busy_time[link.index]),
                delivered_bytes=float(timeline.delivered_bytes[link.index]),
                utilization=float(utilization[link.index]),
            )
            for link in topology.links
        ]
        return cls(links, timeline.duration)

    def __iter__(self):
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)

    @property
    def matches_prediction(self) -> bool:
        """Whether every *used* link peaked exactly at its MED degree.

        Links the traffic never touches (predicted 0) must also observe
        0 — a flow crossing an unpredicted link is a routing bug.
        """
        return all(link.matches for link in self.links)

    def mismatches(self) -> list[LinkContention]:
        """Links whose observed peak differs from the prediction."""
        return [link for link in self.links if not link.matches]

    def bottlenecks(self, top: int = 5) -> list[LinkContention]:
        """The *top* most contended links (busy time, then utilization)."""
        ranked = sorted(
            self.links,
            key=lambda l: (-l.busy_time, -l.utilization, l.index),
        )
        return ranked[: max(top, 0)]

    def to_dict(self) -> dict:
        """JSON-ready view (used by the CLI and tests)."""
        return {
            "duration": self.duration,
            "matches_prediction": self.matches_prediction,
            "links": [
                {
                    "index": link.index,
                    "name": link.name,
                    "kind": link.kind,
                    "observed_peak": link.observed_peak,
                    "predicted_peak": link.predicted_peak,
                    "busy_time": link.busy_time,
                    "delivered_bytes": link.delivered_bytes,
                    "utilization": link.utilization,
                }
                for link in self.links
            ],
        }

    def render(self, top: int = 5) -> str:
        """Human-readable bottleneck table."""
        lines = [
            f"{'link':<24} {'kind':<10} {'peak':>4} {'MED':>4} "
            f"{'busy':>10} {'util':>6}"
        ]
        for link in self.bottlenecks(top):
            marker = "" if link.matches else "  !="
            lines.append(
                f"{link.name:<24} {link.kind:<10} {link.observed_peak:>4} "
                f"{link.predicted_peak:>4} {link.busy_time:>10.6f} "
                f"{link.utilization:>5.1%}{marker}"
            )
        verdict = (
            "observed peaks match the MED prediction on every link"
            if self.matches_prediction
            else f"{len(self.mismatches())} link(s) deviate from the MED "
            "prediction"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContentionReport(links={len(self.links)}, "
            f"matches={self.matches_prediction})"
        )
