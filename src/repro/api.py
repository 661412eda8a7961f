"""Unified facade: scenarios, registries and the paper's pipeline.

This module is the one import an end user needs::

    from repro.api import Scenario

    sc = Scenario.from_file("examples/scenarios/edge_core_gige_stress.toml")
    sweep = sc.sweep()                  # cached, parallel measurement grid
    ch = sc.fit_signature()             # the paper's §8 procedure
    t = sc.predict(64, 1_048_576)       # any (n, m) on that fabric

and the single place new plugins are registered::

    from repro.api import register_topology, register_cluster

Everything the CLI, the experiment drivers and the bench harness do is
routed through the same primitives exposed here, so a scenario defined
as a TOML file behaves identically across all entry points.
"""

from __future__ import annotations

from pathlib import Path

from .clusters.profiles import ClusterProfile, get_cluster
from .core.predictor import AlltoallPredictor
from .core.signature import AlltoallSample, ContentionSignature
from .core.hockney import HockneyParams
from .exceptions import ScenarioError
from .measure.backends import get_backend
from .measure.pipeline import Characterization, characterize_cluster
from .measure.alltoall import measure_alltoall, sweep_grid
from .measure.pingpong import hockney_from_pingpong, measure_pingpong
from .models import (
    DEFAULT_MODELS,
    FittedModel,
    ModelComparison,
    compare_models,
    get_model,
)
from .placement import (
    PlacementResult,
    PlacementSpec,
    as_placement,
    optimize_placement,
)
from .registry import (
    ALGORITHMS,
    BACKENDS,
    CLUSTERS,
    ENGINES,
    EXECUTORS,
    MODELS,
    PATTERNS,
    PLACEMENT_OPTIMIZERS,
    PLACEMENTS,
    TOPOLOGIES,
    register_algorithm,
    register_backend,
    register_cluster,
    register_engine,
    register_executor,
    register_model,
    register_pattern,
    register_placement,
    register_placement_optimizer,
    register_topology,
)
from .scenario import ScenarioSpec, TopologySpec, WorkloadSpec, load_scenario
from .simmpi.collectives import ALLTOALLV_VARIANTS
from .traffic import PatternSpec, as_pattern

#: Inverse of :data:`ALLTOALLV_VARIANTS`: matrix variant → scalar name
#: (signature/model fits always measure the regular All-to-All).
_SCALAR_OF_VARIANT = {v: k for k, v in ALLTOALLV_VARIANTS.items()}

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "PatternSpec",
    "as_pattern",
    "PlacementSpec",
    "as_placement",
    "PlacementResult",
    "optimize_placement",
    "load_scenario",
    "get_cluster",
    "get_backend",
    "list_clusters",
    "list_topologies",
    "list_algorithms",
    "list_backends",
    "list_patterns",
    "list_executors",
    "list_models",
    "list_engines",
    "list_placements",
    "list_placement_optimizers",
    "get_model",
    "FittedModel",
    "ModelComparison",
    "register_topology",
    "register_cluster",
    "register_algorithm",
    "register_backend",
    "register_pattern",
    "register_executor",
    "register_model",
    "register_engine",
    "register_placement",
    "register_placement_optimizer",
    "TOPOLOGIES",
    "CLUSTERS",
    "ALGORITHMS",
    "BACKENDS",
    "PATTERNS",
    "EXECUTORS",
    "MODELS",
    "ENGINES",
    "PLACEMENTS",
    "PLACEMENT_OPTIMIZERS",
]


def list_clusters() -> list[str]:
    """Canonical names of all registered cluster profiles."""
    return CLUSTERS.names()


def list_topologies() -> list[str]:
    """Canonical names of all registered topology factories."""
    return TOPOLOGIES.names()


def list_algorithms() -> list[str]:
    """Canonical names of all registered All-to-All algorithms."""
    return ALGORITHMS.names()


def list_backends() -> list[str]:
    """Canonical names of all registered measurement backends."""
    return BACKENDS.names()


def list_patterns() -> list[str]:
    """Canonical names of all registered traffic patterns."""
    return PATTERNS.names()


def list_executors() -> list[str]:
    """Canonical names of all registered sweep executors."""
    return EXECUTORS.names()


def list_models() -> list[str]:
    """Canonical names of all registered cost models."""
    return MODELS.names()


def list_engines() -> list[str]:
    """Canonical names of all registered simulation engines."""
    return ENGINES.names()


def list_placements() -> list[str]:
    """Canonical names of all registered rank-placement strategies."""
    return PLACEMENTS.names()


def list_placement_optimizers() -> list[str]:
    """Canonical names of all registered placement optimizers."""
    return PLACEMENT_OPTIMIZERS.names()


class Scenario:
    """A :class:`~repro.scenario.ScenarioSpec` bound to the pipeline.

    Construct with :meth:`from_file`, :meth:`from_dict`,
    :meth:`from_name` (a registered cluster with a default workload) or
    directly from a spec.  The built profile and the fitted
    characterisation are cached on the instance.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._profile: ClusterProfile | None = None
        self._characterization: Characterization | None = None
        self._hockney = None
        self._hockney_reps: int | None = None
        self._grid_samples: list[AlltoallSample] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        """Load a ``.toml``/``.json`` scenario file."""
        return cls(ScenarioSpec.from_file(path))

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build from a plain dict (same schema as scenario files)."""
        return cls(ScenarioSpec.from_dict(data))

    @classmethod
    def from_name(cls, cluster: str, **workload) -> "Scenario":
        """A registered cluster under the default (or given) workload.

        Keyword arguments become :class:`~repro.scenario.WorkloadSpec`
        fields, e.g. ``Scenario.from_name("myrinet", nprocs=(8, 16))``.
        """
        canonical = CLUSTERS.canonical(cluster)
        return cls(
            ScenarioSpec(
                name=canonical, base=canonical,
                workload=WorkloadSpec(**workload),
            )
        )

    # -- building blocks ------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def profile(self) -> ClusterProfile:
        """The materialised cluster profile (built once)."""
        if self._profile is None:
            self._profile = self.spec.build_profile()
        return self._profile

    def backend(self, kind: str = "sim"):
        """A measurement backend bound to this scenario's cluster."""
        return get_backend(kind, self.profile)

    # -- pipeline -------------------------------------------------------

    def measure(
        self,
        n_processes: int | None = None,
        msg_size: int | None = None,
        *,
        reps: int | None = None,
        seed: int | None = None,
        algorithm: str | None = None,
        pattern=None,
        engine: str | None = None,
        placement=None,
        metrics: bool = False,
    ) -> AlltoallSample:
        """Measure one All-to-All point (defaults from the workload).

        With ``metrics=True`` the first repetition runs instrumented
        and the returned sample carries an ``observed`` attribute (a
        :class:`repro.obs.Observation`: trace, per-link timeline, and
        the MED contention report).
        """
        workload = self.spec.workload
        return measure_alltoall(
            self.profile,
            n_processes if n_processes is not None else workload.fit_nprocs,
            msg_size if msg_size is not None else workload.sizes[0],
            reps=reps if reps is not None else workload.reps,
            seed=seed if seed is not None else workload.seeds[0],
            algorithm=algorithm if algorithm is not None else self.spec.algorithm,
            pattern=pattern if pattern is not None else workload.pattern,
            engine=engine if engine is not None else self.spec.engine,
            placement=placement if placement is not None else self.spec.placement,
            observe=metrics,
        )

    def trace(
        self,
        n_processes: int | None = None,
        msg_size: int | None = None,
        *,
        seed: int | None = None,
        algorithm: str | None = None,
        pattern=None,
        engine: str | None = None,
        placement=None,
    ):
        """Observe one instrumented run; returns a :class:`repro.obs.Observation`.

        A single repetition with full tracing: the structured event
        trace (exportable to Chrome/Perfetto or JSONL via
        ``observation.export(path, fmt)``), the per-link utilization
        timeline, and the observed-vs-MED contention report.  Defaults
        come from the workload, as in :meth:`measure`.
        """
        sample = self.measure(
            n_processes,
            msg_size,
            reps=1,
            seed=seed,
            algorithm=algorithm,
            pattern=pattern,
            engine=engine,
            placement=placement,
            metrics=True,
        )
        return sample.observed

    def sweep_points(self):
        """The workload grid as sweep points (nprocs x sizes x seeds)."""
        from .sweeps.spec import SweepPoint

        workload = self.spec.workload
        return [
            SweepPoint(
                cluster=self.spec.name,
                n_processes=n,
                msg_size=m,
                algorithm=self.spec.algorithm,
                seed=seed,
                reps=workload.reps,
                pattern=workload.pattern,
                engine=self.spec.engine,
                placement=self.spec.placement,
            )
            for n in workload.nprocs
            for m in workload.sizes
            for seed in workload.seeds
        ]

    def sweep(self, *, runner=None, sinks=(), progress=None):
        """Run the workload grid through the sweep engine.

        Cache keys incorporate both the built profile's fingerprint and
        the scenario definition (:meth:`ScenarioSpec.cache_payload`);
        misses fan out to worker processes even though the profile is
        not registry-resolvable (workers rebuild it from the spec).
        *sinks* (:mod:`repro.exec.sinks`) receive one row per point as
        it lands and *progress* is called as ``(done, total, result)``
        on the same schedule.  Returns a
        :class:`~repro.sweeps.SweepResult`.
        """
        from .sweeps.runner import default_runner

        if runner is None:
            runner = default_runner()
        return runner.run_points(
            self.sweep_points(), profile=self.profile, scenario=self.spec,
            sinks=sinks, progress=progress,
        )

    def optimize_placement(
        self,
        n_processes: int | None = None,
        msg_size: int | None = None,
        *,
        optimizer: str = "greedy",
        seed: int | None = None,
        params: dict | None = None,
        pattern=None,
    ) -> PlacementResult:
        """Search for a contention-minimising rank→host mapping.

        Runs the registered *optimizer* against the predicted-contention
        objective (the MED of the placed workload traffic routed over
        this scenario's fabric; see :mod:`repro.placement.objective`) —
        no simulation.  Defaults: the workload's fit n′, its largest
        message size (where contention dominates), its first seed, and
        its traffic pattern (*pattern* overrides the latter).  Apply the
        result by re-running with ``placement=result.placement`` (or
        bake ``result.placement`` into the scenario spec).
        """
        workload = self.spec.workload
        return optimize_placement(
            self.profile,
            n_processes if n_processes is not None else workload.fit_nprocs,
            msg_size if msg_size is not None else max(workload.sizes),
            pattern=pattern if pattern is not None else workload.pattern,
            optimizer=optimizer,
            seed=seed if seed is not None else workload.seeds[0],
            params=params,
        )

    def fit_signature(self, *, runner=None, force: bool = False, **kwargs) -> Characterization:
        """Run the §8 characterisation on this scenario (cached).

        Fits at n′ = ``workload.fit_nprocs`` over ``workload.sizes``
        (>= 4 sizes required by the paper's regression).  The signature
        is a property of the *network*, so the fit always measures the
        regular All-to-All — a matrix algorithm is lowered to its
        scalar counterpart and any workload pattern or placement is
        ignored here (the regular exchange is permutation-invariant).
        Extra keyword arguments pass through to
        :func:`~repro.measure.pipeline.characterize_cluster`.
        """
        if self._characterization is not None and not force and not kwargs:
            return self._characterization
        workload = self.spec.workload
        custom = bool(kwargs)
        ch = characterize_cluster(
            self.profile,
            sample_nprocs=kwargs.pop("sample_nprocs", workload.fit_nprocs),
            sample_sizes=kwargs.pop("sample_sizes", workload.sizes),
            reps=kwargs.pop("reps", workload.reps),
            seed=kwargs.pop("seed", workload.seeds[0]),
            algorithm=kwargs.pop(
                "algorithm",
                _SCALAR_OF_VARIANT.get(self.spec.algorithm, self.spec.algorithm),
            ),
            engine=kwargs.pop("engine", self.spec.engine),
            runner=runner,
            scenario=self.spec,
            **kwargs,
        )
        if custom:
            # Non-default parameters: hand back without poisoning the cache.
            return ch
        self._characterization = ch
        return ch

    def predictor(self, *, runner=None) -> AlltoallPredictor:
        """Predictor backed by the fitted signature."""
        return self.fit_signature(runner=runner).predictor

    # -- cost-model zoo -------------------------------------------------

    def hockney(self, *, pingpong_reps: int = 3) -> HockneyParams:
        """Ping-pong Hockney α/β for this fabric (measured once, cached).

        The cache is keyed on *pingpong_reps*: asking for a different
        repetition count re-measures instead of silently returning a fit
        taken under other settings.
        """
        if self._hockney is None or self._hockney_reps != pingpong_reps:
            pingpong = measure_pingpong(
                self.profile, reps=pingpong_reps, seed=self.spec.workload.seeds[0]
            )
            self._hockney = hockney_from_pingpong(pingpong).params
            self._hockney_reps = pingpong_reps
        return self._hockney

    def grid_samples(self, *, runner=None, progress=None) -> list[AlltoallSample]:
        """The workload grid as measured samples (cached on the instance).

        Unlike :meth:`fit_signature` (the paper's single-n′ procedure)
        this sweeps the *full* nprocs × sizes grid — what multi-n models
        (LogGP, max-rate, knee) need to identify their parameters.  Like
        the signature fit it measures the regular All-to-All: matrix
        algorithms lower to their scalar variant and any workload
        pattern or placement is ignored (cost models predict the
        regular exchange, which is permutation-invariant).
        """
        if self._grid_samples is None:
            workload = self.spec.workload
            self._grid_samples = sweep_grid(
                self.profile,
                workload.nprocs,
                workload.sizes,
                reps=workload.reps,
                seed=workload.seeds[0],
                algorithm=_SCALAR_OF_VARIANT.get(
                    self.spec.algorithm, self.spec.algorithm
                ),
                engine=self.spec.engine,
                runner=runner,
                scenario=self.spec,
                progress=progress,
            )
        return self._grid_samples

    def fit_model(
        self,
        model: str | None = None,
        *,
        runner=None,
        samples=None,
        **options,
    ) -> FittedModel:
        """Fit one registered cost model on this scenario's grid samples.

        *model* defaults to the scenario's ``model`` field (the paper's
        ``signature`` unless the file says otherwise).  *samples*
        substitutes externally-measured rows (e.g. loaded from a sweep
        CSV via :func:`repro.models.samples_from_rows`) for the
        simulated grid.  Either way the fit runs under this fabric's
        ping-pong Hockney α/β (:meth:`hockney`) and topology, as eq. 1
        is parameterised, so a Hockney fit adopts the ping-pong's α/β
        and never regresses them from the rows.  Extra keyword
        arguments pass through to the model's ``fit``
        (``delta_mode=...``, ``threshold=...``, …).
        """
        name = model if model is not None else self.spec.model
        fit_model = get_model(name)
        if samples is None:
            samples = self.grid_samples(runner=runner)
        return fit_model.fit(
            samples, hockney=self.hockney(), cluster=self.profile, **options
        )

    def compare_models(
        self,
        models=None,
        *,
        runner=None,
        samples=None,
        k: int = 4,
        **options,
    ) -> ModelComparison:
        """Fit a set of models on the same samples and rank them.

        Defaults to every built-in model on the scenario's grid samples,
        scored by in-sample RMSE/MAPE plus k-fold and leave-one-n-out
        cross-validation — the repo's operationalisation of "the
        contention signature beats contention-blind models".  As in
        :meth:`fit_model`, every model fits under the ping-pong context,
        offline comparisons (*samples* given) included.
        """
        # Resolve model names first: a typo must fail before the grid
        # is measured, not after minutes of simulation.
        names = models if models is not None else DEFAULT_MODELS
        for name in names:
            get_model(name)
        if samples is None:
            samples = self.grid_samples(runner=runner)
        comparison = compare_models(
            samples,
            names,
            hockney=self.hockney(),
            cluster=self.profile,
            k=k,
            options=options or None,
        )
        comparison.cluster = self.name
        return comparison

    def predict(
        self,
        n_processes: int,
        msg_size: int,
        *,
        source: str = "fit",
        runner=None,
    ) -> float:
        """Predict an All-to-All completion time for any (n, m).

        ``source="fit"`` uses the signature fitted on this scenario
        (running the characterisation on first use); ``source="paper"``
        uses the signature the paper reports for the base cluster.
        """
        if source == "fit":
            signature = self.fit_signature(runner=runner).signature
        elif source == "paper":
            signature = self.paper_signature(msg_size)
        else:
            raise ValueError(f"unknown predict source {source!r} (fit|paper)")
        return float(signature.predict(n_processes, msg_size))

    def paper_signature(self, msg_size: int = 1_048_576) -> ContentionSignature:
        """The paper-reported signature, with a reference Hockney pair.

        Only available when the scenario is an unmodified registered
        cluster carrying a :class:`~repro.clusters.profiles.PaperSignature`.
        The Hockney β is evaluated at *msg_size* (framing overhead is
        size-dependent).
        """
        profile = self.profile
        if profile.paper is None:
            raise ScenarioError(
                f"scenario {self.name!r} has no paper-reported signature "
                "(custom scenarios must be fitted: use source='fit')"
            )
        topology = profile.topology(2)
        capacity = topology.links[topology.hosts[0].tx_link].capacity
        # β must include the transport's wire-byte framing (envelope +
        # per-segment overhead), or predictions undercut the simulator.
        beta = profile.transport.effective_beta(int(msg_size), capacity)
        return ContentionSignature(
            gamma=profile.paper.gamma,
            delta=profile.paper.delta,
            threshold=profile.paper.threshold,
            hockney=HockneyParams(
                alpha=profile.transport.base_latency, beta=beta
            ),
        )

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        workload = self.spec.workload
        origin = self.spec.base or f"topology:{self.spec.topology.factory}"
        pattern = (
            f", pattern={workload.pattern.key()}"
            if workload.pattern is not None
            else ""
        )
        placement = (
            f", placement={self.spec.placement.key()}"
            if self.spec.placement is not None
            else ""
        )
        return (
            f"{self.name} (from {origin}, algorithm={self.spec.algorithm}"
            f"{pattern}{placement}, "
            f"{len(workload.nprocs)} nprocs x {len(workload.sizes)} sizes x "
            f"{len(workload.seeds)} seeds, reps={workload.reps})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scenario({self.name!r})"
