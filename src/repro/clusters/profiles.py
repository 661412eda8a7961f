"""Calibrated cluster profiles for the paper's three testbeds.

Each profile bundles a topology factory, a transport parameter set and a
contention mechanism configuration (loss process / HoL penalty), plus the
paper's reported signature, which Table S
(:mod:`repro.experiments.table_signatures`) sets beside the fitted one.

Calibration philosophy: absolute constants are tuned so
that the *mechanisms* produce the paper's qualitative signature — the
ordering γ_GigE > γ_Myrinet > γ_FE ≈ 1, the δ ordering FE > GigE ≫
Myrinet ≈ 0, the Fig. 2/3 stress shapes — not so that 2006 wall-clock
seconds are matched digit for digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..registry import CLUSTERS as _CLUSTER_REGISTRY
from ..registry import register_cluster
from ..simnet.entities import LinkKind
from ..simnet.loss import LossParams
from ..simnet.penalty import HolPenalty
from ..simnet.topology import Topology, edge_core, single_switch
from ..simmpi.runtime import Runtime
from ..simmpi.transport import TransportParams

__all__ = [
    "PaperSignature",
    "ClusterProfile",
    "fast_ethernet",
    "gigabit_ethernet",
    "myrinet",
    "get_cluster",
]

MB = 1_000_000.0


@dataclass(frozen=True)
class PaperSignature:
    """Contention signature the paper reports for a network (§8)."""

    gamma: float
    delta: float  # seconds (0 when below regression resolution)
    threshold: int  # M in bytes; 0 when not applicable


@dataclass(frozen=True)
class ClusterProfile:
    """A reproducible virtual cluster.

    Attributes
    ----------
    name / description:
        Identification (description records what physical system the
        profile stands in for).
    topology_factory:
        ``f(n_hosts) -> Topology`` building the fabric for n hosts.
    transport:
        MPI/driver stack behaviour.
    loss:
        TCP loss process (``None`` for lossless fabrics).
    hol:
        Head-of-line penalty (``None`` for store-and-forward fabrics).
    start_skew_scale:
        Scale of the uniform per-rank start skew (collective entry noise).
    max_hosts:
        Largest sensible size (physical cluster size).
    paper:
        The signature the paper measured on the physical system.
    """

    name: str
    description: str
    topology_factory: Callable[[int], Topology] = field(repr=False)
    transport: TransportParams = field(repr=False)
    loss: LossParams | None = field(repr=False, default=None)
    hol: HolPenalty | None = field(repr=False, default=None)
    start_skew_scale: float = 0.0
    max_hosts: int = 128
    paper: PaperSignature | None = None

    def topology(self, n_hosts: int) -> Topology:
        """Build the fabric for *n_hosts* hosts."""
        if n_hosts > self.max_hosts:
            raise ValueError(
                f"{self.name}: {n_hosts} hosts exceeds physical size "
                f"{self.max_hosts}"
            )
        return self.topology_factory(n_hosts)

    def runtime(
        self,
        nprocs: int,
        *,
        seed: int = 0,
        trace=None,
        timeline=None,
        start_skew_scale: float | None = None,
    ) -> Runtime:
        """Create a fresh MPI runtime with *nprocs* ranks on this cluster.

        *start_skew_scale* overrides the profile's collective-entry skew
        (ping-pong measurements pass 0: a steady-state message exchange
        amortises job start skew away).  *timeline* is an optional
        per-link collector (:class:`repro.obs.LinkTimeline`).
        """
        skew = self.start_skew_scale if start_skew_scale is None else start_skew_scale
        return Runtime(
            self.topology(nprocs),
            self.transport,
            nprocs=nprocs,
            loss_params=self.loss,
            hol_penalty=self.hol,
            start_skew_scale=skew,
            seed=seed,
            trace=trace,
            timeline=timeline,
        )

    def with_overrides(self, **kwargs) -> "ClusterProfile":
        """Derived profile with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


@register_cluster("fast-ethernet", aliases=("fe", "icluster2-fe"))
def fast_ethernet() -> ClusterProfile:
    """icluster2-like Fast Ethernet: 5 edge FE switches + Gigabit core.

    100 Mb/s NICs (~11.9 MB/s effective after framing), ~60 us one-way
    latency (the paper's figure).  Losses exist but the slow wire dwarfs
    the RTO penalty, so γ stays ≈ 1; the dominant contention effect is
    the per-message kernel demultiplexing overhead (δ ≈ 8 ms above 2 KB).
    """
    nic = 12.2 * MB  # 100 Mb/s line rate net of preamble/IFG
    return ClusterProfile(
        name="fast-ethernet",
        description=(
            "icluster2 Fast Ethernet: 5 FE edge switches (20 nodes each) "
            "behind a Gigabit Ethernet core; LAM-MPI over TCP"
        ),
        topology_factory=lambda n: edge_core(
            n,
            nic_bandwidth=nic,
            hosts_per_edge=20,
            trunk_bandwidth=117.0 * MB,
            edge_backplane=None,
            core_backplane=2_000.0 * MB,
            name="icluster2-fe",
        ),
        transport=TransportParams(
            name="tcp-fe",
            base_latency=60e-6,
            eager_threshold=65_536,
            envelope_bytes=64,
            mss=1_460,
            per_segment_wire_bytes=58,
            per_segment_host_time=2e-6,
            per_message_send_overhead=30e-6,
            ctrl_overhead=20e-6,
            sender_concurrency=None,
            mux_overhead=9.0e-3,
            mux_threshold=2_048,
            jitter_scale=20e-6,
        ),
        loss=LossParams(
            coeff_per_byte=2.0e-9,
            sat_flows={
                LinkKind.HOST_RX: 8,
                LinkKind.HOST_TX: 8,
                LinkKind.TRUNK: 24,
                LinkKind.BACKPLANE: 48,
            },
            rto_min=0.200,
            rto_max=3.200,
        ),
        start_skew_scale=200e-6,
        max_hosts=104,
        paper=PaperSignature(gamma=1.0195, delta=8.23e-3, threshold=2_048),
    )


@register_cluster("gigabit-ethernet", aliases=("gige", "gdx"))
def gigabit_ethernet() -> ClusterProfile:
    """GdX-like Gigabit Ethernet: one logical switch, finite backplane.

    118 MB/s effective NICs (the paper's β_F = 8.502e-9 s/B ≈ 117.6 MB/s);
    the 216-port "switch" is physically a stack with oversubscribed
    uplinks, modelled as a finite backplane.  Contention comes from the
    backplane (fluid component of γ) plus TCP RTO losses (the rest of γ
    and the Fig. 3 heavy tail); δ ≈ 5 ms above 8 KB from kernel demux.
    """
    nic = 117.6 * MB
    return ClusterProfile(
        name="gigabit-ethernet",
        description=(
            "GdX Gigabit Ethernet (216 dual-Opteron nodes, Broadcom NICs); "
            "switch stack modelled as one finite-backplane switch; "
            "LAM-MPI over TCP"
        ),
        topology_factory=lambda n: single_switch(
            n,
            nic_bandwidth=nic,
            backplane_capacity=1_200.0 * MB,
            name="gdx-gige",
        ),
        transport=TransportParams(
            name="tcp-gige",
            base_latency=50e-6,
            eager_threshold=65_536,
            envelope_bytes=64,
            mss=1_460,
            per_segment_wire_bytes=58,
            per_segment_host_time=0.4e-6,
            per_message_send_overhead=15e-6,
            ctrl_overhead=10e-6,
            sender_concurrency=None,
            mux_overhead=5.5e-3,
            mux_threshold=8_192,
            jitter_scale=10e-6,
        ),
        loss=LossParams(
            coeff_per_byte=3.3e-9,
            sat_flows={
                LinkKind.HOST_RX: 12,
                LinkKind.HOST_TX: 12,
                LinkKind.BACKPLANE: 24,
            },
            rto_min=0.200,
            rto_max=3.200,
        ),
        start_skew_scale=100e-6,
        max_hosts=216,
        paper=PaperSignature(gamma=4.3628, delta=4.93e-3, threshold=8_192),
    )


@register_cluster("myrinet", aliases=("gm", "icluster2-myrinet"))
def myrinet() -> ClusterProfile:
    """icluster2-like Myrinet 2000 with the gm driver.

    ~245 MB/s links, ~9 us latency, OS bypass (no kernel demux: δ ≈ 0),
    lossless backpressure fabric.  Contention arises from the *convoy
    effect alone*: gm serialises sends (one outstanding DMA), entry skew
    desynchronises Algorithm 1's rotation, transient many-to-one bursts
    share receiver ports, and the induced slowdowns self-reinforce —
    yielding an emergent γ ≈ 2.5 with zero packet loss and no explicit
    penalty term (calibration showed the optional
    :class:`~repro.simnet.penalty.HolPenalty` is not needed; it remains
    available for exploring stronger head-of-line regimes).
    """
    nic = 245.0 * MB
    return ClusterProfile(
        name="myrinet",
        description=(
            "icluster2 Myrinet 2000, one M3-E128 switch (Clos of 16-port "
            "crossbars); LAM-MPI over gm"
        ),
        topology_factory=lambda n: single_switch(
            n,
            nic_bandwidth=nic,
            backplane_capacity=10_000.0 * MB,
            name="icluster2-myrinet",
        ),
        transport=TransportParams(
            name="gm-myrinet",
            base_latency=9e-6,
            eager_threshold=32_768,
            envelope_bytes=16,
            mss=4_096,
            per_segment_wire_bytes=8,
            per_segment_host_time=0.0,
            per_message_send_overhead=2e-6,
            ctrl_overhead=2e-6,
            sender_concurrency=1,
            mux_overhead=0.0,
            mux_threshold=0,
            jitter_scale=150e-6,
        ),
        loss=None,
        hol=None,
        start_skew_scale=1.0e-3,
        max_hosts=104,
        paper=PaperSignature(gamma=2.49754, delta=0.0, threshold=0),
    )


def get_cluster(name: str) -> ClusterProfile:
    """Look a profile up by name (``fast-ethernet`` etc.).

    Lookup is alias- and spelling-tolerant (``fast_ethernet``,
    ``Fast-Ethernet`` and the registered alias ``fe`` all resolve);
    unknown names raise :class:`~repro.exceptions.UnknownNameError`
    listing the registered set.
    """
    return _CLUSTER_REGISTRY.get(name)()
