"""Declarative sweep grids.

A :class:`SweepSpec` is the cartesian product

    clusters x nprocs x msg sizes x algorithms x patterns x placements x seeds

with a shared repetition count.  :meth:`SweepSpec.points` expands it into
:class:`SweepPoint` instances in a deterministic order (clusters outer,
seeds inner), so two expansions of the same spec always enumerate the
same points in the same positions.

The ``patterns`` axis holds traffic patterns
(:class:`~repro.traffic.PatternSpec`, names, or dicts); ``None`` — and
the trivial ``uniform`` spec, which canonicalises to ``None`` — is the
legacy regular All-to-All, whose points carry no pattern in their cache
keys (so pre-pattern cache entries stay valid and uniform sweeps hit
them bit-for-bit).

A spec is the grid and nothing else.  What a finished sweep is used for
is its caller's business: ``sweep --models`` ranks cost models on the
result with :func:`repro.models.selection.compare_for_sweep`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..engines import DEFAULT_ENGINE, default_engine
from ..exceptions import UnknownNameError
from ..placement import PlacementSpec, as_placement
from ..registry import ALGORITHMS, CLUSTERS, ENGINES
from ..simmpi.collectives import variant_for
from ..traffic import PatternSpec, as_pattern

__all__ = ["SweepPoint", "SweepSpec"]


@dataclass(frozen=True)
class SweepPoint:
    """One (cluster, n, m, algorithm, pattern, seed) simulation coordinate."""

    cluster: str
    n_processes: int
    msg_size: int
    algorithm: str
    seed: int
    reps: int
    pattern: PatternSpec | None = None
    engine: str | None = None
    placement: PlacementSpec | None = None

    def __post_init__(self) -> None:
        if self.n_processes < 2:
            raise ValueError("All-to-All needs at least 2 processes")
        if self.msg_size < 1:
            raise ValueError("msg_size must be >= 1 byte")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        # Registered algorithm aliases share their canonical name's key;
        # unknown names pass through and fail when measured.
        try:
            object.__setattr__(
                self, "algorithm", ALGORITHMS.canonical(self.algorithm)
            )
        except UnknownNameError:
            pass
        # Uniform canonicalises to None: one identity, one cache key.
        object.__setattr__(self, "pattern", as_pattern(self.pattern))
        # Identity placement likewise collapses to None.
        object.__setattr__(self, "placement", as_placement(self.placement))
        # Engine resolves eagerly (None -> process default), so a
        # REPRO_SIM_ENGINE override participates in cache keys instead
        # of silently aliasing the default engine's entries.
        engine = self.engine if self.engine is not None else default_engine()
        object.__setattr__(self, "engine", ENGINES.canonical(engine))

    def key_payload(self) -> dict[str, object]:
        """The point's contribution to its cache key (stable field order).

        Pattern-less points keep the historical payload exactly, so
        adding the pattern axis never invalidated existing caches.
        """
        payload: dict[str, object] = {
            "cluster": self.cluster,
            "n_processes": self.n_processes,
            "msg_size": self.msg_size,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "reps": self.reps,
        }
        if self.pattern is not None:
            payload["pattern"] = self.pattern.cache_payload()
        if self.engine != DEFAULT_ENGINE:
            # Default-engine points keep the historical payload exactly,
            # so introducing the engine axis never invalidated caches.
            payload["engine"] = self.engine
        if self.placement is not None:
            # Same rule: identity placements never appear in payloads.
            payload["placement"] = self.placement.cache_payload()
        return payload


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of All-to-All measurement points.

    Attributes
    ----------
    clusters:
        Cluster names (entries of :data:`repro.registry.CLUSTERS`;
        aliases and alternate spellings are canonicalised).
    nprocs / sizes:
        Process counts and message sizes (bytes) to cross.
    algorithms:
        Algorithm names (entries of :data:`repro.registry.ALGORITHMS`).
    patterns:
        Traffic patterns (``None``/names/dicts/specs; entries of
        :data:`repro.registry.PATTERNS`).  Defaults to the single
        legacy uniform exchange.
    placements:
        Rank→host mappings (``None``/names/dicts/permutations/specs;
        entries of :data:`repro.registry.PLACEMENTS`).  Defaults to the
        single legacy identity mapping, whose points carry no placement
        in their cache keys (so pre-placement cache entries stay valid
        and identity sweeps hit them bit-for-bit).
    seeds:
        Base seeds; each seed yields an independent replication of the
        whole grid (per-point streams are further derived by name, see
        the package docstring).
    reps:
        Repetitions averaged inside each point.
    engine:
        Simulation engine for every point (an entry of
        :data:`repro.registry.ENGINES`); ``None`` defers to the
        process-wide default (``REPRO_SIM_ENGINE`` or ``fluid``).
        Non-default engines enter each point's cache key.
    """

    clusters: tuple[str, ...]
    nprocs: tuple[int, ...]
    sizes: tuple[int, ...]
    algorithms: tuple[str, ...] = ("direct",)
    patterns: tuple = (None,)
    placements: tuple = (None,)
    seeds: tuple[int, ...] = (0,)
    reps: int = 3
    engine: str | None = None

    def __post_init__(self) -> None:
        # Cluster/algorithm names resolvable in the registries are
        # canonicalised (``Fast_Ethernet`` → ``fast-ethernet``) so
        # aliases share cache keys; unresolvable cluster names pass
        # through untouched (they may be scenario labels).
        object.__setattr__(
            self,
            "clusters",
            tuple(
                CLUSTERS.canonical(c) if c in CLUSTERS else c
                for c in self.clusters
            ),
        )
        object.__setattr__(self, "nprocs", tuple(int(n) for n in self.nprocs))
        object.__setattr__(self, "sizes", tuple(int(m) for m in self.sizes))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not (self.clusters and self.nprocs and self.sizes
                and self.algorithms and self.seeds):
            raise ValueError("every sweep axis needs at least one value")
        if any(n < 2 for n in self.nprocs):
            raise ValueError("nprocs values must be >= 2 (All-to-All needs two processes)")
        if any(m < 1 for m in self.sizes):
            raise ValueError("sizes must be >= 1 byte")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            known = ", ".join(ALGORITHMS.names())
            raise ValueError(f"unknown algorithms {unknown}; known: {known}")
        object.__setattr__(
            self,
            "algorithms",
            tuple(ALGORITHMS.canonical(a) for a in self.algorithms),
        )
        if not isinstance(self.patterns, (tuple, list)):
            raise ValueError("patterns must be a tuple of pattern specs/names")
        object.__setattr__(
            self, "patterns", tuple(as_pattern(p) for p in self.patterns)
        )
        if not self.patterns:
            raise ValueError("every sweep axis needs at least one value")
        for algorithm in self.algorithms:
            for pattern in self.patterns:
                # Reject (algorithm, pattern) combos with no rank program.
                variant_for(algorithm, irregular=pattern is not None)
        if not isinstance(self.placements, (tuple, list)):
            raise ValueError(
                "placements must be a tuple of placement specs/names"
            )
        object.__setattr__(
            self, "placements", tuple(as_placement(p) for p in self.placements)
        )
        if not self.placements:
            raise ValueError("every sweep axis needs at least one value")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.engine is not None:
            object.__setattr__(self, "engine", ENGINES.canonical(self.engine))

    @property
    def n_points(self) -> int:
        """Grid cardinality."""
        return (
            len(self.clusters) * len(self.nprocs) * len(self.sizes)
            * len(self.algorithms) * len(self.patterns)
            * len(self.placements) * len(self.seeds)
        )

    def points(self) -> list[SweepPoint]:
        """Expand the grid (deterministic order: clusters outer, seeds inner)."""
        return [
            SweepPoint(
                cluster=cluster,
                n_processes=n,
                msg_size=m,
                algorithm=algorithm,
                seed=seed,
                reps=self.reps,
                pattern=pattern,
                engine=self.engine,
                placement=placement,
            )
            for cluster, n, m, algorithm, pattern, placement, seed
            in itertools.product(
                self.clusters, self.nprocs, self.sizes,
                self.algorithms, self.patterns, self.placements, self.seeds,
            )
        ]

    def describe(self) -> str:
        """One-line shape summary for logs and the CLI."""
        pattern_part = (
            f"{len(self.patterns)} patterns x "
            if self.patterns != (None,)
            else ""
        )
        placement_part = (
            f"{len(self.placements)} placements x "
            if self.placements != (None,)
            else ""
        )
        return (
            f"{self.n_points} points "
            f"({len(self.clusters)} clusters x {len(self.nprocs)} nprocs x "
            f"{len(self.sizes)} sizes x {len(self.algorithms)} algorithms x "
            f"{pattern_part}{placement_part}{len(self.seeds)} seeds, "
            f"reps={self.reps})"
        )
