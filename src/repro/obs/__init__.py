"""Unified observability: link metrics, trace export, sweep profiling.

The paper's whole argument is that *per-link contention* — how many
flows share a link at once — explains All-to-All cost.  This package
lets you watch that happen instead of trusting a final duration:

* :class:`LinkTimeline` — a collector both engines feed on every
  allocation resolve, recording per-link active-flow concurrency,
  allocated bandwidth, busy time and delivered bytes;
* :class:`ContentionReport` — ranks bottleneck links and compares the
  *observed* peak concurrency on every link against the MED-predicted
  degree (the §5 model made directly testable);
* :mod:`repro.obs.export` — JSONL and Chrome trace-event exporters for
  :class:`~repro.simnet.trace.Trace` (load the Chrome JSON in
  Perfetto / ``chrome://tracing``);
* :class:`Observation` — one observed run: trace + timeline + report,
  returned by ``Scenario.trace()`` / ``measure(metrics=True)``;
* :class:`SweepProfile` — where a sweep's wall-time went (cache hits,
  in-worker simulation seconds, executor overhead, retries);
* :mod:`repro.obs.metrics` — the process-safe registry of labeled
  counters every layer records into, with the snapshot/merge protocol
  that carries worker-side increments back to the parent across any
  executor;
* :mod:`repro.obs.ledger` — the append-only JSONL run ledger
  (fingerprinted entries per CLI/bench invocation);
* :mod:`repro.obs.bench` — the shared benchmark-record schema and the
  regression gate behind ``repro.cli bench ingest|report|compare``;
* :class:`HeartbeatSink` — a periodic stderr ticker (rows/sec, hit
  rate, ETA, top metric deltas) that composes with CSV/JSONL sinks.

Everything here is **opt-in**: the default measurement path never
constructs a collector, so cache keys and row files stay byte-identical
with and without this package.  (Metric counters are always *collected*
— they are dict updates, invisible next to a simulation — but never
surface anywhere unless asked.)  The package is a leaf — it imports
only NumPy and value types from :mod:`repro.simnet` — so every other
layer may import it freely.
"""

from .contention import ContentionReport, LinkContention, predicted_concurrency
from .export import (
    EXPORT_FORMATS,
    to_chrome,
    to_jsonl,
    write_trace,
)
from .heartbeat import HeartbeatSink
from .ledger import LEDGER_ENV, Ledger, default_ledger, record_run
from .metrics import (
    REGISTRY,
    Counter,
    MetricsRegistry,
    diff_snapshots,
)
from .observe import Observation
from .profile import SweepProfile
from .timeline import LinkTimeline

__all__ = [
    "LinkTimeline",
    "LinkContention",
    "ContentionReport",
    "predicted_concurrency",
    "Observation",
    "SweepProfile",
    "EXPORT_FORMATS",
    "to_chrome",
    "to_jsonl",
    "write_trace",
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "diff_snapshots",
    "Ledger",
    "LEDGER_ENV",
    "default_ledger",
    "record_run",
    "HeartbeatSink",
]
