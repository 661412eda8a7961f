"""Declarative scenarios: clusters, workloads and overrides as data.

A :class:`ScenarioSpec` describes everything needed to characterise a
fabric — which cluster to build (a registered profile, a registered
topology factory with parameters, or both: base profile + overrides),
which All-to-All algorithm to run, and the workload grid to measure —
as a plain dataclass constructible from dicts and TOML/JSON files, with
lossless round-trip serialization (``from_dict(spec.to_dict()) ==
spec`` and ``from_toml(spec.to_toml()) == spec``).

This is the file format behind ``repro-alltoall run --scenario f.toml``
and the :class:`repro.api.Scenario` facade.  A minimal scenario file::

    [scenario]
    name = "my-gige-variant"
    base = "gigabit-ethernet"

    [scenario.transport]
    mux_overhead = 7.5e-3          # override one knob of the base stack

    [scenario.workload]
    nprocs = [4, 8]
    sizes = ["2kB", "32kB", "256kB", "1024kB"]

Scenario definitions feed the sweep-result cache: the canonical
:meth:`ScenarioSpec.cache_payload` is hashed into every point key, so
two scenarios whose definitions differ can never collide on a cache
entry even when their names (or probed topologies) coincide.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import models as _models  # noqa: F401 - registers the built-in cost models
from .clusters.profiles import ClusterProfile, get_cluster
from .engines import DEFAULT_ENGINE
from .exceptions import ScenarioError, UnknownNameError
from .placement.spec import PlacementSpec, as_placement
from .registry import (
    ALGORITHMS,
    ENGINES,
    MODELS,
    PATTERNS,
    PLACEMENTS,
    TOPOLOGIES,
    CLUSTERS as _CLUSTER_REGISTRY,
)
from .simnet.entities import LinkKind
from .simnet.loss import LossParams
from .simnet.penalty import HolPenalty
from .simmpi.collectives import variant_for
from .simmpi.transport import TransportParams
from .traffic import PatternSpec, as_pattern
from .units import parse_size

__all__ = ["TopologySpec", "WorkloadSpec", "ScenarioSpec", "load_scenario"]


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _check_fields(kind: str, mapping: dict, cls) -> None:
    unknown = sorted(set(mapping) - _field_names(cls))
    if unknown:
        known = ", ".join(sorted(_field_names(cls)))
        raise ScenarioError(f"unknown {kind} field(s) {unknown}; known: {known}")


def _link_kinds(mapping: dict) -> dict[LinkKind, float]:
    """``{"HOST_RX": 8}`` → ``{LinkKind.HOST_RX: 8}`` (case-insensitive)."""
    out = {}
    for key, value in mapping.items():
        try:
            out[LinkKind[str(key).upper()]] = value
        except KeyError:
            known = ", ".join(k.name for k in LinkKind)
            raise ScenarioError(
                f"unknown link kind {key!r}; known: {known}"
            ) from None
    return out


@dataclass(frozen=True)
class TopologySpec:
    """A registered topology factory plus its keyword parameters."""

    factory: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.factory:
            raise ScenarioError("topology.factory must be a registered name")

    def build(self, n_hosts: int):
        """Instantiate the fabric for *n_hosts* hosts."""
        return TOPOLOGIES.get(self.factory)(n_hosts, **self.params)

    def to_dict(self) -> dict:
        return {"factory": self.factory, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        if not isinstance(data, dict):
            raise ScenarioError("topology must be a table/dict")
        _check_fields("topology", data, cls)
        return cls(
            factory=str(data.get("factory", "")),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The measurement grid a scenario sweeps.

    ``sample_nprocs`` is the paper's n′ — the process count the
    signature fit samples at; it defaults to the largest ``nprocs``
    and must be one of them (the fit samples a grid column).

    ``pattern`` is the traffic pattern the grid simulates (a
    :class:`~repro.traffic.PatternSpec`, a registered name, or a
    ``{"name", "params"}`` table); unset — or trivially ``uniform`` —
    means the legacy regular All-to-All.
    """

    nprocs: tuple[int, ...] = (4, 8)
    sizes: tuple[int, ...] = (2_048, 8_192, 32_768, 131_072)
    seeds: tuple[int, ...] = (0,)
    reps: int = 2
    sample_nprocs: int | None = None
    pattern: PatternSpec | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "nprocs", tuple(int(n) for n in self.nprocs))
            object.__setattr__(
                self, "sizes", tuple(parse_size(s) for s in self.sizes)
            )
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            # A scalar where a list belongs, a non-numeric entry, …
            raise ScenarioError(f"invalid workload value: {exc}") from None
        if not (self.nprocs and self.sizes and self.seeds):
            raise ScenarioError("workload needs nprocs, sizes and seeds values")
        if any(n < 2 for n in self.nprocs):
            raise ScenarioError("workload nprocs must be >= 2")
        if any(m < 1 for m in self.sizes):
            raise ScenarioError("workload sizes must be >= 1 byte")
        if self.reps < 1:
            raise ScenarioError("workload reps must be >= 1")
        if self.sample_nprocs is not None and self.sample_nprocs < 2:
            raise ScenarioError("workload sample_nprocs must be >= 2")
        if self.sample_nprocs is not None and self.sample_nprocs not in self.nprocs:
            raise ScenarioError(
                f"workload sample_nprocs {self.sample_nprocs} is not one of "
                f"the swept nprocs {list(self.nprocs)}; the signature fit "
                "samples a grid column"
            )
        object.__setattr__(self, "pattern", as_pattern(self.pattern))

    @property
    def fit_nprocs(self) -> int:
        """n′ used by the signature fit (``sample_nprocs`` or max nprocs)."""
        return self.sample_nprocs if self.sample_nprocs else max(self.nprocs)

    def to_dict(self) -> dict:
        out = {
            "nprocs": list(self.nprocs),
            "sizes": list(self.sizes),
            "seeds": list(self.seeds),
            "reps": self.reps,
        }
        if self.sample_nprocs is not None:
            out["sample_nprocs"] = self.sample_nprocs
        if self.pattern is not None:
            out["pattern"] = self.pattern.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        if not isinstance(data, dict):
            raise ScenarioError("workload must be a table/dict")
        _check_fields("workload", data, cls)
        kwargs = dict(data)
        try:
            if "sample_nprocs" in kwargs and kwargs["sample_nprocs"] is not None:
                kwargs["sample_nprocs"] = int(kwargs["sample_nprocs"])
            return cls(**kwargs)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid workload: {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A full declarative scenario.

    Attributes
    ----------
    name / description:
        Identification; the name labels sweep rows and cache entries.
    base:
        Registered cluster to start from (``None`` builds from scratch,
        which then requires ``topology``).
    topology:
        Fabric override: a registered factory name + parameters.
    transport:
        :class:`~repro.simmpi.transport.TransportParams` field
        overrides (full construction when there is no base).
    loss / hol:
        Loss-process / head-of-line overrides.  ``{"enabled": False}``
        removes the base mechanism entirely; other keys are
        :class:`LossParams` / :class:`HolPenalty` fields
        (``sat_flows`` / ``eta`` use link-kind names as keys).
    start_skew_scale / max_hosts:
        Profile-level overrides (``None`` inherits).
    algorithm:
        Registered All-to-All algorithm the workload runs.
    model:
        Registered cost model (:data:`repro.registry.MODELS`) that
        :meth:`repro.api.Scenario.fit_model` fits by default
        (``signature`` — the paper's pipeline — when unset).
    engine:
        Registered simulation engine (:data:`repro.registry.ENGINES`)
        the workload is simulated with.  Unset (or the default
        ``fluid``, to which explicit spellings canonicalise) defers to
        the process-wide default and is omitted from serialization and
        cache payloads, so pre-engine scenario files and cache entries
        keep their meaning.
    placement:
        Rank→host mapping the workload runs under (a
        :class:`~repro.placement.PlacementSpec`, a registered strategy
        name, a ``{"name", "params"}`` / ``{"perm"}`` table, or an
        explicit permutation list).  Unset — or trivially ``identity``
        — means the legacy rank *i* on host *i* mapping and is omitted
        from serialization and cache payloads, so pre-placement
        scenario files and cache entries keep their meaning.
    workload:
        The measurement grid (see :class:`WorkloadSpec`).
    """

    name: str
    description: str = ""
    base: str | None = None
    topology: TopologySpec | None = None
    transport: dict = field(default_factory=dict)
    loss: dict | None = None
    hol: dict | None = None
    start_skew_scale: float | None = None
    max_hosts: int | None = None
    algorithm: str = "direct"
    model: str = "signature"
    engine: str | None = None
    placement: PlacementSpec | None = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if self.base is None and self.topology is None:
            raise ScenarioError(
                "scenario needs a base cluster and/or a topology section"
            )
        if self.base is not None:
            # Fail fast (and canonicalise) instead of at build time.
            object.__setattr__(
                self, "base", _cluster_canonical(self.base)
            )
        if self.topology is not None and self.topology.factory not in TOPOLOGIES:
            # Fail at load time, not mid-sweep inside a lazy build.
            raise ScenarioError(
                f"unknown topology {self.topology.factory!r}; "
                f"known: {', '.join(TOPOLOGIES.names())}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {', '.join(ALGORITHMS.names())}"
            )
        object.__setattr__(
            self, "algorithm", ALGORITHMS.canonical(self.algorithm)
        )
        if self.model not in MODELS:
            raise ScenarioError(
                f"unknown model {self.model!r}; "
                f"known: {', '.join(MODELS.names())}"
            )
        object.__setattr__(self, "model", MODELS.canonical(self.model))
        if self.engine is not None:
            if self.engine not in ENGINES:
                raise ScenarioError(
                    f"unknown engine {self.engine!r}; "
                    f"known: {', '.join(ENGINES.names())}"
                )
            engine = ENGINES.canonical(self.engine)
            # The default engine collapses to None: one identity, one
            # serialized form, one cache payload.
            object.__setattr__(
                self, "engine", None if engine == DEFAULT_ENGINE else engine
            )
        # Identity collapses to None: one identity, one serialized
        # form, one cache payload (as_placement validates the rest).
        object.__setattr__(self, "placement", as_placement(self.placement))
        try:
            variant_for(
                self.algorithm, irregular=self.workload.pattern is not None
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        _check_fields("transport", self.transport, TransportParams)
        if self.loss is not None:
            _check_fields(
                "loss", {k: v for k, v in self.loss.items() if k != "enabled"},
                LossParams,
            )
        if self.hol is not None:
            _check_fields(
                "hol", {k: v for k, v in self.hol.items() if k != "enabled"},
                HolPenalty,
            )
        if self.max_hosts is not None and self.max_hosts < 2:
            raise ScenarioError("max_hosts must be >= 2")

    # -- profile construction ------------------------------------------

    def build_profile(self) -> ClusterProfile:
        """Materialise the scenario as a :class:`ClusterProfile`.

        Raises :class:`ScenarioError` when a parameter table holds a value
        its parameter object rejects (e.g. ``rto_min = -1.0``).
        """
        try:
            return self._build_profile()
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    def _build_profile(self) -> ClusterProfile:
        if self.base is not None:
            profile = get_cluster(self.base)
        else:
            profile = ClusterProfile(
                name=self.name,
                description=self.description or f"scenario {self.name}",
                topology_factory=self.topology.build,
                transport=TransportParams(**{"name": self.name, **self.transport}),
            )
        overrides: dict = {"name": self.name}
        if self.description:
            overrides["description"] = self.description
        if self.base is not None and self.transport:
            overrides["transport"] = replace(profile.transport, **self.transport)
        if self.topology is not None:
            overrides["topology_factory"] = self.topology.build
        if self.loss is not None:
            overrides["loss"] = self._build_loss(profile.loss)
        if self.hol is not None:
            overrides["hol"] = self._build_hol(profile.hol)
        if self.start_skew_scale is not None:
            overrides["start_skew_scale"] = float(self.start_skew_scale)
        if self.max_hosts is not None:
            overrides["max_hosts"] = int(self.max_hosts)
        if not self.is_pure_base:
            # The paper measured the *base* fabric, not this variant.
            overrides["paper"] = None
        return profile.with_overrides(**overrides)

    def _build_loss(self, base: LossParams | None) -> LossParams | None:
        data = dict(self.loss)
        if not data.pop("enabled", True):
            return None
        if "sat_flows" in data and data["sat_flows"] is not None:
            data["sat_flows"] = _link_kinds(data["sat_flows"])
        if base is not None:
            return replace(base, **data)
        return LossParams(**data)

    def _build_hol(self, base: HolPenalty | None) -> HolPenalty | None:
        data = dict(self.hol)
        if not data.pop("enabled", True):
            return None
        if "eta" in data and data["eta"] is not None:
            data["eta"] = _link_kinds(data["eta"])
        if base is not None:
            return replace(base, **data)
        return HolPenalty(**data)

    @property
    def is_pure_base(self) -> bool:
        """Whether this scenario is a registered cluster, unmodified."""
        return (
            self.base is not None
            and self.topology is None
            and not self.transport
            and self.loss is None
            and self.hol is None
            and self.start_skew_scale is None
            and self.max_hosts is None
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON dict (lossless; see :meth:`from_dict`)."""
        out: dict = {"name": self.name}
        if self.description:
            out["description"] = self.description
        if self.base is not None:
            out["base"] = self.base
        if self.topology is not None:
            out["topology"] = self.topology.to_dict()
        if self.transport:
            out["transport"] = dict(self.transport)
        if self.loss is not None:
            out["loss"] = dict(self.loss)
        if self.hol is not None:
            out["hol"] = dict(self.hol)
        if self.start_skew_scale is not None:
            out["start_skew_scale"] = self.start_skew_scale
        if self.max_hosts is not None:
            out["max_hosts"] = self.max_hosts
        out["algorithm"] = self.algorithm
        if self.model != "signature":
            out["model"] = self.model
        if self.engine is not None:
            out["engine"] = self.engine
        if self.placement is not None:
            out["placement"] = self.placement.to_dict()
        out["workload"] = self.workload.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build from a dict (accepts a top-level ``{"scenario": ...}``)."""
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a table/dict")
        if set(data) == {"scenario"}:
            data = data["scenario"]
        _check_fields("scenario", data, cls)
        kwargs = dict(data)
        if kwargs.get("topology") is not None:
            kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])
        if kwargs.get("workload") is not None:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        else:
            kwargs.pop("workload", None)
        try:
            return cls(**kwargs)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        """Load a ``.toml`` or ``.json`` scenario file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text)
        if path.suffix.lower() == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"invalid scenario JSON: {exc}") from None
            return cls.from_dict(data)
        raise ScenarioError(
            f"unsupported scenario file type {path.suffix!r} (use .toml or .json)"
        )

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        """Parse a TOML scenario document."""
        try:
            import tomllib  # noqa: PLC0415 - stdlib on >= 3.11
        except ImportError as exc:  # pragma: no cover - py3.10 fallback
            raise ScenarioError(
                "TOML scenarios need Python >= 3.11 (tomllib); "
                "use a .json scenario instead"
            ) from exc
        try:
            return cls.from_dict(tomllib.loads(text))
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"invalid scenario TOML: {exc}") from None

    def to_toml(self) -> str:
        """Emit the scenario as a TOML document (round-trips via
        :meth:`from_toml`)."""
        lines: list[str] = ["[scenario]"]
        head = self.to_dict()
        tables = {
            key: head.pop(key, None)
            for key in (
                "topology", "transport", "loss", "hol", "placement", "workload"
            )
        }
        for key, value in head.items():
            lines.append(f"{key} = {_toml_value(value)}")
        for key, table in tables.items():
            if table is None:
                continue
            lines.append("")
            _emit_toml_table(lines, f"scenario.{key}", table)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> Path:
        """Write the scenario to a ``.toml`` or ``.json`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix.lower() == ".toml":
            path.write_text(self.to_toml())
        elif path.suffix.lower() == ".json":
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        else:
            raise ScenarioError(
                f"unsupported scenario file type {path.suffix!r} (use .toml or .json)"
            )
        return path

    def uses_only_builtin_plugins(self) -> bool:
        """Whether every registered object this spec references ships
        with the repro package.

        Fresh worker processes (``spawn``/``forkserver`` start methods)
        import only :mod:`repro`, so registrations made in user scripts
        are absent there; the sweep runner uses this to decide whether a
        scenario may be rebuilt in such workers.
        """
        objects = [ALGORITHMS.get(self.algorithm)]
        if self.topology is not None:
            objects.append(TOPOLOGIES.get(self.topology.factory))
        if self.base is not None:
            objects.append(_CLUSTER_REGISTRY.get(self.base))
        if self.workload.pattern is not None:
            objects.append(PATTERNS.get(self.workload.pattern.name))
        if self.placement is not None and not self.placement.is_explicit:
            objects.append(PLACEMENTS.get(self.placement.name))
        return all(
            (getattr(obj, "__module__", "") or "").split(".")[0] == "repro"
            for obj in objects
        )

    # -- cache integration ---------------------------------------------

    def cache_payload(self) -> dict:
        """The definition-bearing fields, canonicalised for cache keys.

        Everything that can change a simulated result is here (topology
        factory + params, transport/loss/hol overrides, skew, size cap,
        base profile); presentation fields (name, description) and the
        workload grid (already encoded per point) are excluded.  Hashing
        this alongside the profile fingerprint guarantees two different
        scenario definitions never share a cache entry.
        """
        payload = {
            "base": self.base,
            "topology": None if self.topology is None else self.topology.to_dict(),
            "transport": dict(self.transport),
            "loss": None if self.loss is None else dict(self.loss),
            "hol": None if self.hol is None else dict(self.hol),
            "start_skew_scale": self.start_skew_scale,
            "max_hosts": self.max_hosts,
        }
        if self.engine is not None:
            # Added only when non-default: pre-engine payloads (and
            # their hashes) stay byte-identical.
            payload["engine"] = self.engine
        if self.placement is not None:
            # Same rule: identity placements never appear, so
            # pre-placement payloads (and their hashes) are untouched.
            payload["placement"] = self.placement.cache_payload()
        return payload


def _cluster_canonical(name: str) -> str:
    """Canonicalise a base-cluster name, as a ScenarioError on failure."""
    try:
        return _CLUSTER_REGISTRY.canonical(name)
    except UnknownNameError as exc:
        raise ScenarioError(exc.args[0]) from None


def _emit_toml_table(lines: list[str], path: str, table: dict) -> None:
    """Append ``[path]`` plus entries; sub-dicts recurse as sub-tables."""
    lines.append(f"[{path}]")
    nested = []
    for key, value in table.items():
        if isinstance(value, dict):
            if value:  # empty sub-tables carry no information
                nested.append((key, value))
        else:
            lines.append(f"{key} = {_toml_value(value)}")
    for key, value in nested:
        _emit_toml_table(lines, f"{path}.{key}", value)


def _toml_value(value) -> str:
    """Serialise one scalar/array for :meth:`ScenarioSpec.to_toml`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if value is None:
        raise ScenarioError("TOML cannot encode null values")
    raise ScenarioError(f"cannot TOML-encode {type(value).__name__}")


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Convenience alias for :meth:`ScenarioSpec.from_file`."""
    return ScenarioSpec.from_file(path)
