"""Process-safe metrics: labeled counters.

The simulator self-measures — every All-to-All engine run and cache
probe bumps cheap in-process counters — and this module is the ledger
those numbers live in.  There is no shared memory and no lock:
**process safety comes from the snapshot/merge protocol** instead.
Each process owns its private :class:`MetricsRegistry`; a worker
serialises its contribution with :meth:`MetricsRegistry.snapshot` (a
plain JSON-able dict that pickles across any executor), the delta of
one unit of work is :func:`diff_snapshots`, and the parent folds worker
deltas back in with :meth:`MetricsRegistry.merge`.  The sweep engine
wires exactly this: :func:`repro.exec.task.run_task` attaches its delta
to the :class:`~repro.exec.task.TaskOutcome`, and the runner merges
every attempt's delta when (and only when) it crossed a process
boundary — so the serial and process executors land the same totals,
retried attempts included.

The registry holds one kind, :class:`Counter`: a monotonically
increasing float, merged by sum.  Labels are free-form keyword
arguments (``inc(3, engine="vector")``); each label combination is an
independent series.  Collection is always on — an increment is a dict
update, far below simulation cost — and the registry never touches
cache keys or RNG streams.  Sweep rows read it only through the
``REPRO_SIM_STATS`` columns, which sum a point's ``sim.*`` deltas.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "MetricsRegistry",
    "REGISTRY",
    "diff_snapshots",
]


def _label_key(labels: dict[str, object]) -> str:
    """Canonical series key: ``"a=1,b=x"`` (sorted by label name)."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """Monotonically increasing value; merged across processes by sum."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._series: dict[str, float] = {}

    @property
    def series(self) -> dict[str, float]:
        """Live label-key → value view (do not mutate)."""
        return self._series

    def value(self, **labels) -> float | None:
        """The series value for a label combination (None if unseen)."""
        return self._series.get(_label_key(labels))

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, series={len(self._series)})"


class MetricsRegistry:
    """One process's counters, keyed by dotted name.

    :meth:`counter` is get-or-create and idempotent.  Snapshot entries
    are ``{"kind": "counter", "values": {label_key: value}}``.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric

    # -- introspection --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Counter | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- snapshot / merge protocol --------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able capture of every series (picklable, order-stable)."""
        return {
            name: {"kind": "counter", "values": dict(self._metrics[name].series)}
            for name in sorted(self._metrics)
        }

    def merge(self, snapshot: dict[str, dict] | None) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Series add; counters unseen here are created.
        """
        if not snapshot:
            return
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            if kind != "counter":
                raise ValueError(f"snapshot metric {name!r}: unknown kind {kind!r}")
            series = self.counter(name)._series
            for key, value in entry.get("values", {}).items():
                series[key] = series.get(key, 0.0) + value

    def reset(self) -> None:
        """Drop every metric (tests and fresh-run isolation)."""
        self._metrics.clear()


def diff_snapshots(
    before: dict[str, dict] | None, after: dict[str, dict] | None
) -> dict[str, dict]:
    """What happened between two snapshots of one registry.

    Series subtract; all-zero series are dropped, so the delta of an
    idle stretch is ``{}``.
    """
    before = before or {}
    out: dict[str, dict] = {}
    for name, entry in (after or {}).items():
        prior = before.get(name, {}).get("values", {})
        values = {}
        for key, value in entry.get("values", {}).items():
            delta = value - prior.get(key, 0.0)
            if delta:
                values[key] = delta
        if values:
            out[name] = {"kind": "counter", "values": values}
    return out


#: The process-wide registry every built-in layer records into.
REGISTRY = MetricsRegistry()
