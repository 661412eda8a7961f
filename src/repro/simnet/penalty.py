"""Head-of-line (HoL) capacity penalties for cut-through fabrics.

Myrinet is lossless: instead of dropping packets it exerts backpressure,
and a packet blocked on a busy output port holds buffers upstream,
degrading the *effective* capacity of contended ports (tree saturation).
At flow level we model this as a per-link efficiency that decreases with
the number of flows sharing the link:

    effective_capacity = capacity / (1 + eta * max(0, k - 1))

with ``k`` the number of flows crossing the link and ``eta`` a per-link-kind
coefficient.  ``eta = 0`` (the default, and the value for store-and-forward
Ethernet switches) recovers ideal fair sharing.  This is the mechanism
behind the Myrinet contention ratio γ ≈ 2.5: transient
many-to-one bursts not only share a port but *slow the port itself*,
which sustains the convoys that desynchronised Direct Exchange creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entities import LinkKind

__all__ = ["HolPenalty"]


@dataclass(frozen=True)
class HolPenalty:
    """Per-link-kind head-of-line blocking coefficients.

    Attributes
    ----------
    eta:
        Mapping link kind -> blocking coefficient (absent kinds get 0).
    """

    eta: dict[LinkKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind, value in self.eta.items():
            if value < 0:
                raise ValueError(f"eta[{kind}] must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether any kind carries a non-zero penalty."""
        return any(v > 0 for v in self.eta.values())

    def eta_vector(self, kinds: list[LinkKind]) -> np.ndarray:
        """Per-link eta aligned with link indices."""
        return np.array([self.eta.get(kind, 0.0) for kind in kinds])

    def effective(
        self, capacities: np.ndarray, eta_vector: np.ndarray, flow_count: np.ndarray
    ) -> np.ndarray:
        """Effective capacities under the current flow counts."""
        crowd = np.maximum(flow_count - 1, 0)
        return capacities / (1.0 + eta_vector * crowd)
