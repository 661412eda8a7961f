"""Plugin registries: the repo's extension points as data, not edits.

Every axis a scenario can vary — the fabric shape, the calibrated
cluster, the collective algorithm, the measurement backend — is a named
entry in a :class:`Registry`.  Core modules register their built-ins at
import time with the ``@register_*`` decorators; downstream code (and
user scenarios, see :mod:`repro.scenario`) adds new entries the same
way, with zero core-module edits::

    from repro.api import register_topology

    @register_topology("torus-2d")
    def torus_2d(n_hosts, *, nic_bandwidth, ring_bandwidth):
        ...build and return a finalized Topology...

Lookups are *normalised*: case is folded and ``_``/space collapse to
``-``, so ``get_cluster("Fast_Ethernet")`` resolves the canonical
``fast-ethernet`` entry.  Explicit aliases resolve too, but enumeration
(:meth:`Registry.names`) lists canonical names only.

The process-wide registries live here (:data:`TOPOLOGIES`,
:data:`CLUSTERS`, :data:`ALGORITHMS`, :data:`PATTERNS`, …), and so does
the one check of plugin parameters (:func:`canonical_params`,
:meth:`Registry.check_params`).
"""

from __future__ import annotations

import inspect
from collections.abc import Iterable, Iterator
from typing import Callable, Generic, TypeVar

from .exceptions import DuplicateNameError, ScenarioError, UnknownNameError

__all__ = [
    "Registry",
    "normalize_name",
    "canonical_params",
    "params_key",
    "registry_epoch",
    "record_built_ins",
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
]

T = TypeVar("T")

#: Monotonic counter bumped on every (un)registration, in any registry.
#: The persistent process pool compares it against the value its
#: workers were started at: a changed epoch means the parent gained (or
#: lost) plugins the workers never saw, so the pool must be recycled
#: before reuse (see :class:`repro.exec.ProcessExecutor`).
_epoch = 0


def registry_epoch() -> int:
    """Current plugin-registration epoch (see :data:`_epoch`)."""
    return _epoch


def normalize_name(name: str) -> str:
    """Fold case and separator style (``Fast_Ethernet`` → ``fast-ethernet``)."""
    return "-".join(str(name).strip().lower().replace("_", " ").replace("-", " ").split())


def _canonical_value(kind: str, key, value):
    if isinstance(value, bool):  # before int: bool is an int subclass
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, float, str)):
        return value
    raise ScenarioError(
        f"{kind} param {key!r} must be a scalar "
        f"(int/float/str/bool), got {type(value).__name__}"
    )


def canonical_params(params, kind: str) -> tuple:
    """One spelling of a *kind* plugin's parameters: sorted ``(key, value)`` pairs.

    ``8`` and ``8.0`` must be the *same* parameter — same key, same RNG
    stream, same cache payload — whether they arrived from TOML, the CLI
    or Python, so integral floats collapse to ints; bools stay bools.
    Non-scalar values raise :class:`~repro.exceptions.ScenarioError`.
    """
    pairs = params.items() if isinstance(params, dict) else params
    try:
        return tuple(sorted((str(k), _canonical_value(kind, k, v)) for k, v in pairs))
    except ScenarioError:
        raise
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{kind} params must be a mapping, got {params!r}"
        ) from None


def params_key(name: str, params: tuple) -> str:
    """Compact form of a name and its canonical params, ``name(k=v,…)``.

    It names RNG streams and row columns, so it must not change.
    """
    if not params:
        return name
    inner = ",".join(
        f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in params
    )
    return f"{name}({inner})"


class Registry(Generic[T]):
    """A named collection of plugins with alias-tolerant lookup.

    Parameters
    ----------
    kind:
        Singular noun used in error messages (``"cluster"`` →
        ``unknown cluster 'x'; known: ...``).
    leading / supplied:
        How the registered callables are called, for
        :meth:`check_params`: the number of leading positional
        arguments, and the keyword arguments (``rng``) the caller
        passes itself rather than taking from a spec's parameters.
    """

    def __init__(self, kind: str, *, leading: int = 0, supplied: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self.leading = leading
        self.supplied = supplied
        self._entries: dict[str, T] = {}  # canonical name -> object
        self._aliases: dict[str, str] = {}  # normalised alias -> canonical
        self._built_ins: dict[str, T] = {}  # normalised alias -> object

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        obj: T | None = None,
        *,
        aliases: tuple[str, ...] = (),
        replace: bool = False,
    ):
        """Register *obj* under *name* (decorator form when *obj* is omitted).

        *aliases* are extra lookup names; *replace* allows overwriting an
        existing entry (otherwise :class:`DuplicateNameError`).
        """
        canonical = normalize_name(name)
        if not canonical:
            raise ValueError(f"{self.kind} name must be non-empty")

        def _register(target: T) -> T:
            global _epoch
            all_names = {canonical, *(normalize_name(a) for a in aliases)}
            if not replace:
                taken = sorted(a for a in all_names if a in self._aliases)
                if taken:
                    raise DuplicateNameError(
                        f"{self.kind} name(s) already registered: {taken} "
                        f"(pass replace=True to overwrite)"
                    )
            self._entries[canonical] = target
            for alias in all_names:
                self._aliases[alias] = canonical
            _epoch += 1
            return target

        if obj is None:
            return _register
        return _register(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry and all its aliases (testing/ablation helper)."""
        global _epoch
        canonical = self.canonical(name)
        del self._entries[canonical]
        self._aliases = {a: c for a, c in self._aliases.items() if c != canonical}
        _epoch += 1

    # -- lookup ---------------------------------------------------------

    def canonical(self, name: str, error: type[Exception] = UnknownNameError) -> str:
        """Resolve *name* (canonical, alias, or near-miss) to the canonical name.

        An unknown name raises *error* (specs pass
        :class:`~repro.exceptions.ScenarioError`) with the known set.
        """
        resolved = self._aliases.get(normalize_name(name))
        if resolved is None:
            known = ", ".join(self.names())
            raise error(f"unknown {self.kind} {str(name)!r}; known: {known}")
        return resolved

    def check_params(self, name: str, keys: Iterable[str]) -> None:
        """Check that the parameter names *keys* bind to entry *name*.

        Past the leading positional and the caller-supplied parameters,
        each key must name a parameter (any key does, given
        ``**kwargs``) and each parameter without a default must be a
        key; else :class:`~repro.exceptions.ScenarioError`.
        """
        name = self.canonical(name)
        params = inspect.signature(self.get(name)).parameters.values()
        positional = [
            p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        skip = {*positional[: self.leading], *self.supplied}
        required = {
            p.name: p.default is p.empty for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY) and p.name not in skip
        }
        keys = set(keys)
        unknown = sorted(keys - set(required))
        if unknown and not any(p.kind is p.VAR_KEYWORD for p in params):
            raise ScenarioError(
                f"unknown param(s) {unknown} for {self.kind} {name!r}; "
                f"known: {', '.join(sorted(required)) or '(none)'}"
            )
        missing = sorted(key for key, needed in required.items() if needed and key not in keys)
        if missing:
            raise ScenarioError(f"missing param(s) {missing} for {self.kind} {name!r}")

    def is_built_in(self, name: str) -> bool:
        """Whether *name* resolves to what it named when ``import repro`` finished.

        That is what a fresh interpreter's ``import repro`` registers
        (:func:`record_built_ins`).  A name or alias registered since is
        not built in, even for a ``repro`` object, and neither is a
        built-in name re-registered for another object.
        """
        key = normalize_name(name)
        canonical = self._aliases.get(key)
        return canonical is not None and self._built_ins.get(key) is self._entries[canonical]

    def record_built_ins(self) -> None:
        """Record every current name and alias as built in (see :meth:`is_built_in`)."""
        self._built_ins = {
            alias: self._entries[canonical] for alias, canonical in self._aliases.items()
        }

    def get(self, name: str) -> T:
        """Look an entry up; raises :class:`UnknownNameError` with the known set."""
        return self._entries[self.canonical(name)]

    def names(self) -> list[str]:
        """Sorted canonical names."""
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        """Sorted ``(canonical name, object)`` pairs."""
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        try:
            self.canonical(str(name))
        except UnknownNameError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()})"


# ----------------------------------------------------------------------
# Process-wide registries.  Built-ins register at module import time
# (importing `repro` imports every core module, so the registries are
# fully populated whenever any public API is reachable).
# ----------------------------------------------------------------------

#: ``f(n_hosts, **params) -> Topology`` fabric builders.
TOPOLOGIES: Registry[Callable] = Registry("topology", leading=1)

#: ``f() -> ClusterProfile`` calibrated cluster factories.
CLUSTERS: Registry[Callable] = Registry("cluster")

#: All-to-All rank programs (``f(ctx, msg_size)`` generators).
ALGORITHMS: Registry[Callable] = Registry("algorithm")

#: ``f(cluster=None) -> backend`` measurement-backend factories.
BACKENDS: Registry[Callable] = Registry("backend")

#: ``f(n_processes, msg_size, *, rng, **params) -> (n, n) byte matrix``
#: traffic-pattern generators (see :mod:`repro.traffic`).
PATTERNS: Registry[Callable] = Registry("pattern", leading=2, supplied=("rng",))

#: ``f(workers: int) -> Executor`` execution-backend factories for the
#: sweep engine (see :mod:`repro.exec`).
EXECUTORS: Registry[Callable] = Registry("executor")

#: ``CostModel`` classes — analytical performance models with a
#: ``fit(samples) -> FittedModel`` pipeline (see :mod:`repro.models`).
MODELS: Registry[Callable] = Registry("model")

#: ``f(cluster, n_processes, program, run_arg, seed) -> RunResult``
#: simulation engines (see :mod:`repro.engines`): how one rep of a
#: measurement point is actually simulated.
ENGINES: Registry[Callable] = Registry("engine", leading=5)

#: ``f(n_processes, **params) -> permutation`` rank-placement strategies
#: (see :mod:`repro.placement`): rank *i* runs on host ``perm[i]``.
PLACEMENTS: Registry[Callable] = Registry("placement", leading=1)

#: ``f(evaluate, n_processes, *, rng, **params) -> permutation``
#: placement-search procedures minimising a predicted-contention
#: objective (see :mod:`repro.placement.optimize`).
PLACEMENT_OPTIMIZERS: Registry[Callable] = Registry(
    "placement optimizer", leading=2, supplied=("rng",)
)


def record_built_ins() -> None:
    """Record every registry's names and aliases as built in.

    ``repro/__init__`` calls this once its imports have registered every
    built-in plugin, so :meth:`Registry.is_built_in` tells what a fresh
    ``import repro`` — a ``spawn`` or ``forkserver`` worker — resolves.
    """
    for registry in (
        TOPOLOGIES, CLUSTERS, ALGORITHMS, BACKENDS, PATTERNS, EXECUTORS,
        MODELS, ENGINES, PLACEMENTS, PLACEMENT_OPTIMIZERS,
    ):
        registry.record_built_ins()


def register_topology(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a topology factory ``f(n_hosts, **params)``."""
    return TOPOLOGIES.register(name, aliases=aliases, replace=replace)


def register_cluster(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a cluster-profile factory ``f() -> ClusterProfile``."""
    return CLUSTERS.register(name, aliases=aliases, replace=replace)


def register_algorithm(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register an All-to-All rank program."""
    return ALGORITHMS.register(name, aliases=aliases, replace=replace)


def register_backend(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a measurement-backend factory."""
    return BACKENDS.register(name, aliases=aliases, replace=replace)


def register_pattern(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a traffic-pattern generator
    ``f(n_processes, msg_size, *, rng, **params) -> matrix``."""
    return PATTERNS.register(name, aliases=aliases, replace=replace)


def register_executor(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register an executor factory ``f(workers) -> Executor``."""
    return EXECUTORS.register(name, aliases=aliases, replace=replace)


def register_model(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a :class:`~repro.models.CostModel` class."""
    return MODELS.register(name, aliases=aliases, replace=replace)


def register_engine(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a simulation engine
    ``f(cluster, n_processes, program, run_arg, seed) -> RunResult``."""
    return ENGINES.register(name, aliases=aliases, replace=replace)


def register_placement(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a rank-placement strategy
    ``f(n_processes, **params) -> permutation`` (rank *i* → host ``perm[i]``)."""
    return PLACEMENTS.register(name, aliases=aliases, replace=replace)


def register_placement_optimizer(
    name: str, *, aliases: tuple[str, ...] = (), replace: bool = False
):
    """Decorator: register a placement optimizer
    ``f(evaluate, n_processes, *, rng, **params) -> permutation``."""
    return PLACEMENT_OPTIMIZERS.register(name, aliases=aliases, replace=replace)
