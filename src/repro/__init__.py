"""repro — reproduction of Steffenel, "Modeling Network Contention
Effects on All-to-All Operations" (IEEE CLUSTER 2006).

Public API tour
---------------
* :mod:`repro.core` — the paper's models: Hockney α/β, MED lower bounds
  (Claims 1–3, Proposition 1), the two-β throughput model (§6) and the
  contention signature (γ, δ, M) model (§7) with GLS fitting.
* :mod:`repro.clusters` — calibrated virtual clusters standing in for
  the paper's Fast Ethernet / Gigabit Ethernet / Myrinet testbeds.
* :mod:`repro.measure` — the §8 measurement procedures (ping-pong,
  stress flood, All-to-All sweeps, full characterisation pipeline).
* :mod:`repro.simnet` / :mod:`repro.simmpi` — the substrates: a fluid
  discrete-event network simulator and an MPI-like runtime with four
  All-to-All algorithms.
* :mod:`repro.experiments` — one driver per paper figure/table.
* :mod:`repro.sweeps` — declarative measurement grids with on-disk
  result caching (the ``sweep`` CLI subcommand).
* :mod:`repro.exec` — pluggable sweep execution backends (serial /
  persistent process pool) behind ``@register_executor``,
  per-point failure isolation, and streaming CSV/JSONL result sinks.
* :mod:`repro.traffic` — traffic patterns: irregular (alltoallv-style)
  exchanges as registered (n, n) byte-matrix generators, usable across
  measurements, sweeps, scenarios and the CLI.
* :mod:`repro.models` — the cost-model zoo: pluggable analytical
  performance models (Hockney, the contention signature, LogGP,
  max-rate, saturation-knee) behind ``@register_model``, with a
  fit / cross-validate / compare selection pipeline.
* :mod:`repro.api` — the facade: declarative :class:`~repro.api.Scenario`
  objects (TOML/JSON/dict), plugin registries and ``register_*``
  decorators for user-defined clusters, topologies, algorithms and
  backends.

Quickstart
----------
>>> from repro import clusters, measure
>>> gige = clusters.gigabit_ethernet()
>>> ch = measure.characterize_cluster(gige, sample_nprocs=8, reps=1,
...                                   pingpong_reps=1)
>>> t = ch.predictor.predict(16, 262_144)   # predict unseen (n, m)
>>> t > 0
True
"""

from . import clusters, core, measure, models, placement, registry, simmpi, simnet, sweeps, traffic
from . import exec as exec_  # noqa: F401 - "exec" shadows the builtin name
from . import api, engines, scenario
from ._version import __version__
from .api import Scenario
from .placement import PlacementSpec
from .scenario import ScenarioSpec, WorkloadSpec
from .traffic import PatternSpec
from .core import (
    MED,
    AlltoallPredictor,
    AlltoallSample,
    ContentionSignature,
    HockneyParams,
    alltoall_lower_bound,
    fit_signature,
)
from .clusters import fast_ethernet, get_cluster, gigabit_ethernet, myrinet
from .measure import characterize_cluster

# Every built-in plugin is registered by now: what a fresh worker has.
registry.record_built_ins()

__all__ = [
    "api",
    "clusters",
    "core",
    "engines",
    "exec",
    "measure",
    "models",
    "placement",
    "registry",
    "scenario",
    "simmpi",
    "simnet",
    "sweeps",
    "traffic",
    "__version__",
    "Scenario",
    "ScenarioSpec",
    "WorkloadSpec",
    "PatternSpec",
    "PlacementSpec",
    "AlltoallPredictor",
    "AlltoallSample",
    "ContentionSignature",
    "HockneyParams",
    "MED",
    "alltoall_lower_bound",
    "fit_signature",
    "fast_ethernet",
    "get_cluster",
    "gigabit_ethernet",
    "myrinet",
    "characterize_cluster",
]
