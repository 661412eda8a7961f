"""Transport protocol parameters (the "MPI + driver stack" of a profile).

One :class:`TransportParams` instance captures how a given interconnect
stack (LAM over TCP/Ethernet, LAM over gm/Myrinet) turns an MPI message
into wire traffic:

* **latency** — one-way start-up α (propagation + stack traversal);
* **eager vs rendezvous** — below ``eager_threshold`` messages are pushed
  immediately with an envelope; above it an RTS/CTS handshake precedes
  the payload (LAM's TCP long-message protocol switches at 64 KiB, which
  is where the paper observes cost "becoming linear");
* **segmentation** — payload is cut into MSS-sized segments, each paying
  wire framing bytes and host processing time; this is the source of the
  small-message staircase of Fig. 5;
* **sender discipline** — TCP sockets progress concurrently (the kernel
  multiplexes), gm serialises DMA sends (one outstanding message per
  host): ``sender_concurrency``;
* **receiver demultiplexing** — kernel stacks pay a serialized per-message
  service cost when many inbound streams complete concurrently (the δ
  mechanism, §5 of DESIGN.md); OS-bypass stacks (gm) pay none;
* **jitter** — random per-message submission noise that breaks the
  perfect symmetry of Algorithm 1's rotation (the convoy-effect seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TransportParams"]


@dataclass(frozen=True)
class TransportParams:
    """Protocol behaviour of one network stack.  Times in s, sizes bytes."""

    name: str = "tcp"
    base_latency: float = 50e-6
    eager_threshold: int = 65_536
    envelope_bytes: int = 64
    mss: int = 1_460
    per_segment_wire_bytes: int = 58
    per_segment_host_time: float = 0.0
    per_message_send_overhead: float = 5e-6
    ctrl_overhead: float = 5e-6
    sender_concurrency: int | None = None
    mux_overhead: float = 0.0
    mux_threshold: int = 0
    mux_min_inbound: int = 2
    jitter_scale: float = 0.0
    local_copy_bandwidth: float = 2e9

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.per_message_send_overhead < 0:
            raise ValueError("latencies must be non-negative")
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.sender_concurrency is not None and self.sender_concurrency < 1:
            raise ValueError("sender_concurrency must be None or >= 1")

    def segments(self, payload: int) -> int:
        """Number of MSS segments the payload occupies (>= 1)."""
        return max(1, math.ceil(max(payload, 1) / self.mss))

    def wire_bytes(self, payload: int) -> float:
        """Bytes put on the wire for a payload (envelope + framing)."""
        return float(
            payload + self.envelope_bytes + self.segments(payload) * self.per_segment_wire_bytes
        )

    def submit_cost(self, payload: int) -> float:
        """Host-side CPU time to push one message into the stack."""
        return self.per_message_send_overhead + self.segments(payload) * self.per_segment_host_time

    def is_eager(self, payload: int) -> bool:
        """Whether a payload uses the eager (no-handshake) path."""
        return payload < self.eager_threshold

    def message_costs(
        self, payloads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-wide ``(is_eager, submit_cost, wire_bytes)`` of int payloads.

        Performs the scalar methods' float operations elementwise, so
        each entry is bit-identical to the scalar result.
        """
        payloads = np.asarray(payloads, dtype=np.int64)
        segments = np.maximum(
            np.ceil(np.maximum(payloads, 1) / self.mss), 1
        ).astype(np.int64)
        eager = payloads < self.eager_threshold
        submit = self.per_message_send_overhead + segments * self.per_segment_host_time
        wire = (
            payloads + self.envelope_bytes + segments * self.per_segment_wire_bytes
        ).astype(np.float64)
        return eager, submit, wire

    def local_copy_time(self, payload: int) -> float:
        """Time for the rank's message to itself (memcpy, never on wire)."""
        if self.local_copy_bandwidth <= 0:
            return 0.0
        return payload / self.local_copy_bandwidth

    def effective_beta(self, payload: int, link_capacity: float) -> float:
        """Seconds per *payload* byte through the framed wire.

        The raw link β is ``1/capacity``, but every payload also carries
        the envelope and per-segment framing (:meth:`wire_bytes`), so the
        β an MPI payload actually experiences is larger.  This is the β
        predictions and lower bounds must use to be consistent with the
        simulator.
        """
        if link_capacity <= 0:
            raise ValueError("link_capacity must be positive")
        payload = max(int(payload), 1)
        return self.wire_bytes(payload) / (payload * link_capacity)

    def mux_applies(self, payload: int, inbound_open: int) -> bool:
        """Whether receiver demultiplexing overhead is charged."""
        return (
            self.mux_overhead > 0.0
            and payload >= self.mux_threshold
            and inbound_open >= self.mux_min_inbound
        )
