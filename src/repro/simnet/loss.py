"""TCP-style congestion loss process.

The paper attributes the All-to-All slowdown "almost exclusively" to
network saturation causing packet loss, whose cost is dominated by the
time to *detect* the loss — the TCP retransmission timeout (RTO) — and
cites Grove's analysis of message drops on bottleneck devices (§3).

We model that mechanism at flow level:

* while a flow crosses at least one *overloaded* link (more concurrent
  flows than the device's buffering can absorb), it is exposed to loss
  events drawn from a Poisson process;
* the hazard of a flow is ``coeff_per_byte * rate * overload`` so that the
  *expected number of losses scales with the bytes pushed through the
  congested device* (per-byte drop probability growing with
  oversubscription) — this is what makes the fitted contention ratio γ
  message-size independent, as the paper observes;
* a loss stalls the flow for an RTO; consecutive losses back off
  exponentially (Linux min RTO 200 ms in the 2006-era kernels used on
  GdX/icluster2), which produces the ~6x heavy-tail outliers of Fig. 3;
* the backoff counter resets after the flow manages to move
  ``backoff_reset_bytes`` without a loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entities import LinkKind

__all__ = ["LossParams", "LossModel"]


@dataclass(frozen=True)
class LossParams:
    """Parameters of the congestion loss process.

    Attributes
    ----------
    coeff_per_byte:
        Loss hazard per byte per unit overload.  ``0`` disables losses
        (lossless fabrics such as Myrinet/gm use exactly that).
    sat_flows:
        Per link kind: how many concurrent flows a device of that kind
        can buffer before drops begin (overload = flows/sat_flows - 1).
    rto_min / rto_max:
        First retransmission timeout and its exponential-backoff cap.
    backoff_reset_bytes:
        Bytes a flow must move loss-free before its backoff resets.
    backoff_hazard_factor:
        Loss-spiral coupling: a flow that has already timed out is more
        likely to time out again (its congestion window is tiny, so a
        single further drop re-triggers the RTO).  Hazard is multiplied
        by ``1 + factor * backoff``.
    chain_probability:
        Probability that the *retransmission itself* is lost, chaining
        another timeout at doubled backoff before any data moves.  This
        produces the few-but-extreme outliers of the paper's Fig. 3 —
        most connections finish near the average, a handful much slower
        ("recurrent phenomenon of packet loss that affects a reduced
        number of connections", §3).
    chain_decay:
        Per-chain multiplier on the chain probability (the longer the
        flow has been silent, the more the congestion episode has
        drained, so successive retransmissions are ever more likely to
        get through).  Keeps deep chains rare so the completion time of
        a many-flow collective — a max-statistic over all its flows —
        is not dominated by a single pathological connection.
    chain_max:
        Hard cap on chained timeouts per loss event.
    """

    coeff_per_byte: float = 0.0
    sat_flows: dict[LinkKind, int] | None = None
    rto_min: float = 0.200
    rto_max: float = 3.200
    backoff_reset_bytes: float = 262_144.0
    backoff_hazard_factor: float = 0.0
    chain_probability: float = 0.0
    chain_decay: float = 0.5
    chain_max: int = 4

    def __post_init__(self) -> None:
        if self.coeff_per_byte < 0:
            raise ValueError("coeff_per_byte must be >= 0")
        if self.rto_min <= 0 or self.rto_max < self.rto_min:
            raise ValueError("need 0 < rto_min <= rto_max")
        if not 0.0 <= self.chain_probability < 1.0:
            raise ValueError("chain_probability must be in [0, 1)")
        if not 0.0 <= self.chain_decay <= 1.0:
            raise ValueError("chain_decay must be in [0, 1]")
        if self.chain_max < 0:
            raise ValueError("chain_max must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether the loss process is active at all."""
        return self.coeff_per_byte > 0.0

    def sat_flows_for(self, kind: LinkKind) -> int:
        """Buffered-flow threshold for a link kind (default: generous)."""
        table = self.sat_flows or {}
        return int(table.get(kind, 1_000_000))

    def rto(self, backoff: int) -> float:
        """Timeout duration for the given consecutive-loss count."""
        return float(min(self.rto_min * (2.0 ** max(backoff, 0)), self.rto_max))

    def timeout(
        self, backoff: int, rng: np.random.Generator
    ) -> tuple[float, int, int]:
        """``(penalty, new backoff, losses)`` of one loss at *backoff*.

        One RTO, plus chained timeouts drawn from *rng*: the
        retransmission may itself be dropped, doubling the backoff
        before any data moves (Fig. 3 outliers), with a chance that
        decays per link.  Callers reset *backoff* after loss-free
        progress first.
        """
        penalty = self.rto(backoff)
        backoff += 1
        losses = 1
        chain = self.chain_probability
        while (
            chain > 0
            and losses <= self.chain_max
            and rng.random() < chain
        ):
            penalty += self.rto(backoff)
            backoff += 1
            losses += 1
            chain *= self.chain_decay
        return penalty, backoff, losses


class LossModel:
    """Computes per-flow loss hazards from an allocation snapshot."""

    def __init__(self, params: LossParams, link_kinds: list[LinkKind]) -> None:
        self.params = params
        self._sat_flows = np.array(
            [params.sat_flows_for(kind) for kind in link_kinds], dtype=np.float64
        )

    def overloads(self, link_flow_count: np.ndarray, saturated: np.ndarray) -> np.ndarray:
        """Per-link overload factor (0 when within buffering capacity).

        A link only drops when it is both bandwidth-saturated and carrying
        more flows than its device can buffer.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            over = link_flow_count / self._sat_flows - 1.0
        over = np.where(saturated, np.maximum(over, 0.0), 0.0)
        return over

    def flow_hazards(
        self,
        paths_link_ids: np.ndarray,
        paths_indptr: np.ndarray,
        rates: np.ndarray,
        link_flow_count: np.ndarray,
        saturated: np.ndarray,
        backoffs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Poisson hazard (events/second) per active flow.

        hazard_f = coeff_per_byte * rate_f * max_path_overload
                   * (1 + backoff_hazard_factor * backoff_f)
        """
        n_flows = len(rates)
        if not self.params.enabled or n_flows == 0:
            return np.zeros(n_flows)
        over = self.overloads(link_flow_count, saturated)
        per_entry = over[paths_link_ids]
        # Max overload along each flow's path (vectorised segmented max).
        worst = np.zeros(n_flows)
        row_lengths = np.diff(paths_indptr)
        flow_of_entry = np.repeat(np.arange(n_flows), row_lengths)
        np.maximum.at(worst, flow_of_entry, per_entry)
        hazards = self.params.coeff_per_byte * rates * worst
        if backoffs is not None and self.params.backoff_hazard_factor > 0:
            hazards = hazards * (
                1.0 + self.params.backoff_hazard_factor * backoffs
            )
        return hazards
