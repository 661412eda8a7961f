"""Parallel sweep engine with on-disk result caching.

The paper's whole methodology is sweeps: characterise a cluster at one
n', then validate predictions across (n, m) grids per network.  This
package turns those grids into first-class objects:

* :class:`SweepSpec` — a declarative grid over clusters x nprocs x
  message sizes x algorithms x seeds;
* :class:`SweepRunner` — resolves points cache-first, runs misses on a
  pluggable executor (:mod:`repro.exec`: serial / persistent process
  pool) with per-point failure isolation and streaming
  result sinks;
* :class:`ResultCache` — content-addressed store keyed by a hash of
  (point coordinates, cluster-profile fingerprint, cache version).

Deterministic seed derivation
-----------------------------
Results are independent of grid composition, execution order, and
worker count, because no stream is ever shared between points.  Each
point carries a base seed (a ``seeds`` axis value); inside the point,
repetition *rep* of the simulation draws from the
:class:`~repro.simnet.rng.RngFactory` child stream named

    ``alltoall/{algorithm}/{n_processes}/{msg_size}/{rep}``

derived from that base seed (this is the naming discipline
:func:`repro.measure.alltoall.measure_alltoall` has always used; the
sweep engine relies on it rather than re-seeding).  Two consequences:

* the same point in two different sweeps (or in a serial re-run of a
  parallel sweep) produces bit-identical samples — which is what makes
  the result cache sound;
* two points differing in any coordinate use statistically independent
  streams, even under the same base seed.

Quickstart
----------
>>> from repro.sweeps import SweepSpec, SweepRunner
>>> spec = SweepSpec(
...     clusters=("gigabit-ethernet",), nprocs=(4,), sizes=(2_048,),
...     algorithms=("direct",), seeds=(0,), reps=1,
... )
>>> result = SweepRunner(workers=1).run(spec)
>>> result.n_points
1
"""

from .cache import CACHE_VERSION, ResultCache, default_cache_dir, point_key, profile_fingerprint
from .runner import (
    PointResult,
    SweepResult,
    SweepRunner,
    configure_default_runner,
    default_runner,
)
from .spec import SweepPoint, SweepSpec

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "default_cache_dir",
    "point_key",
    "profile_fingerprint",
    "PointResult",
    "SweepResult",
    "SweepRunner",
    "configure_default_runner",
    "default_runner",
    "SweepPoint",
    "SweepSpec",
]
