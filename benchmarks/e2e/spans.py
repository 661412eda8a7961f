"""In-memory spans around the public entry points of each layer.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces each
target function *where its caller looks it up* — e.g. both
``repro.simnet.vector.max_min_allocation`` and
``repro.simnet.fluid.max_min_allocation``, not only the definition in
``repro.simnet.fairness`` — with a wrapper that records a span
``(name, start, end, parent, point, phase)``.  Spans are recorded only
inside an open root span, so the benchmark's own calls stay out.

A layer's *self time* is its span's duration minus the durations of
its child spans; the root's self time is wall time no layer covered
(``trace.other_s``).  Self times of all spans under one root therefore
sum to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Target", "TARGETS", "Tracer", "self_times", "layer_table", "ROOT"]

#: Span name of the root: one ``repro.cli.main(argv)`` call.
ROOT = "cli.main"

#: Self time of the root span is reported under this layer name.
OTHER = "other"


@dataclass(frozen=True)
class Target:
    """One wrapped call site: ``module:attr`` or ``module:Class.attr``.

    ``enter``/``exit`` name optional :class:`Tracer` hook methods run
    around the call (``enter(args, kwargs)``, ``exit(args, kwargs,
    result)``).
    """

    site: str
    span: str
    enter: str | None = None
    exit: str | None = None


TARGETS = (
    Target("repro.simnet.vector:max_min_allocation", "simnet.fairness.solve"),
    Target("repro.simnet.fluid:max_min_allocation", "simnet.fairness.solve"),
    Target("repro.simnet.vector:VectorSimulator.run", "simnet.vector"),
    Target("repro.simmpi.runtime:Runtime.run", "simmpi.runtime"),
    Target("repro.engines:lower_program", "simmpi.lowering"),
    Target("repro.simnet.loss:LossModel.flow_hazards", "simnet.loss.hazard"),
    Target("repro.clusters.profiles:ClusterProfile.topology", "clusters.topology"),
    Target("repro.sweeps.runner:profile_fingerprint", "sweeps.cache.fingerprint"),
    Target("repro.sweeps.runner:point_key", "sweeps.cache.key"),
    Target("repro.sweeps.cache:ResultCache.get", "sweeps.cache.get"),
    Target("repro.sweeps.cache:ResultCache.put", "sweeps.cache.put"),
    Target("repro.sweeps.spec:SweepSpec.points", "sweeps.spec.points"),
    Target("repro.api:Scenario.sweep_points", "sweeps.spec.points"),
    Target("repro.exec.task:run_task", "exec.task", "_enter_task", "_exit_task"),
    Target("repro.exec.sinks:CsvSink.write", "exec.sinks.write"),
    Target("repro.exec.task:measure_alltoall", "measure", exit="_exit_measure"),
    Target("repro.traffic.spec:PatternSpec.matrix", "traffic.matrix", exit="_exit_matrix"),
    Target("repro.measure.alltoall:apply_placement", "placement.apply"),
    Target("repro.obs.metrics:MetricsRegistry.snapshot", "obs.snapshot"),
    Target("repro.models.selection:compare_for_sweep", "models.compare"),
)


def _resolve(site: str):
    """``module:Owner.attr`` → (owner object, attribute name)."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans of wrapped calls inside root spans.

    ``calls`` counts calls per wrapped site, ``failed_tasks`` counts
    ``run_task`` outcomes that carried an error, and ``messages`` sums
    the off-diagonal nonzeros of each simulated point's traffic matrix
    times its repetitions.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent, point, phase]`` per span; the
        #: list index is the span id.
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.failed_tasks = 0
        self.messages = 0
        self._stack: list[int] = []
        self._point: int | None = None
        self._phase: str | None = None
        self._matrix_nnz = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self._point, self._phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        return record

    def _close(self, record: list) -> None:
        record[2] = self.clock()
        self._stack.pop()

    @contextmanager
    def root(self, phase: str):
        """Open the root span of one phase (``sweep``, ``rerun``)."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._phase = phase
        record = self._open(ROOT)
        try:
            yield record
        finally:
            self._close(record)
            self._phase = None

    def wrap(self, fn, target: Target):
        """*fn* wrapped to record a ``target.span`` span per call."""
        name, site = target.span, target.site
        enter = getattr(self, target.enter) if target.enter else None
        exit_ = getattr(self, target.exit) if target.exit else None
        stack, calls = self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[site] += 1
            if enter is not None:
                enter(args, kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if exit_ is not None:
                exit_(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Replace every target at its lookup site with a wrapper."""
        for target in targets:
            owner, attr = _resolve(target.site)
            # The owner's own attribute: a site that only inherits it, or
            # no longer has it, fails here instead of tracing nothing.
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, target))

    def uninstall(self) -> None:
        """Restore every wrapped site (reverse order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- hooks ------------------------------------------------------------

    def _enter_task(self, args, kwargs) -> None:
        self._point = args[0].index

    def _exit_task(self, args, kwargs, outcome) -> None:
        self._point = None
        if not outcome.ok:
            self.failed_tasks += 1

    def _exit_matrix(self, args, kwargs, matrix) -> None:
        nonzero = matrix != 0
        self._matrix_nnz = int(nonzero.sum() - nonzero.diagonal().sum())

    def _exit_measure(self, args, kwargs, sample) -> None:
        n = args[1]
        per_rep = n * (n - 1) if kwargs.get("pattern") is None else self._matrix_nnz
        self.messages += per_rep * kwargs.get("reps", 3)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for sid, (name, start, end, parent, point, phase) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "point": point,
                    "phase": phase,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of its children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_table(spans, phase: str | None = None) -> dict[str, dict]:
    """``{layer: {"calls", "self_s"}}`` for one phase.

    The root's self time is reported as ``other``; the ``self_s`` of
    all layers sums to the root durations of the phase.
    """
    own = self_times(spans)
    table: dict[str, dict] = {}
    for (name, *_, span_phase), self_s in zip(spans, own):
        if phase is not None and span_phase != phase:
            continue
        row = table.setdefault(
            OTHER if name == ROOT else name, {"calls": 0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += self_s
    return table
