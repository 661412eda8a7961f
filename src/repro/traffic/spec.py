"""Declarative traffic patterns: a registered generator plus parameters.

A :class:`PatternSpec` names a generator from the pattern registry
(:data:`repro.registry.PATTERNS`) together with its keyword parameters,
canonicalised so that equal specs hash and serialise identically — the
property sweep cache keys rely on.  It is the value carried by
``WorkloadSpec.pattern``, ``SweepSpec.patterns`` entries and
``SweepPoint.pattern``.

The spec is *lazy*: the byte matrix is produced per (n, msg_size, seed)
coordinate by :meth:`PatternSpec.matrix` and lowered to the paper's §5
message-exchange digraph by :meth:`PatternSpec.med`.  Randomised
generators draw from a named :class:`~repro.simnet.rng.RngFactory`
stream keyed by the full coordinate, so two processes building the same
coordinate always obtain bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.med import MED
from ..exceptions import ScenarioError
from ..registry import PATTERNS, canonical_params, params_key
from ..simnet.rng import RngFactory

__all__ = ["PatternSpec", "as_pattern"]


@dataclass(frozen=True)
class PatternSpec:
    """A registered traffic-pattern generator plus its parameters.

    ``params`` accepts a dict at construction and is canonicalised to a
    sorted tuple of ``(key, value)`` pairs, so specs are hashable and
    two spellings of the same pattern compare (and cache) equal.
    """

    name: str = "uniform"
    params: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", PATTERNS.canonical(self.name, ScenarioError))
        object.__setattr__(self, "params", canonical_params(self.params, "pattern"))
        # Fail at spec-construction time, not mid-sweep in a worker.
        PATTERNS.check_params(self.name, dict(self.params))

    # -- queries ---------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """Whether this spec is the parameterless regular All-to-All.

        The uniform pattern is special-cased everywhere: it lowers to
        the legacy scalar ``msg_size`` path bit-for-bit (same rank
        programs, same RNG stream names, same sweep cache keys).
        """
        return self.name == "uniform" and not self.params

    def key(self) -> str:
        """Canonical compact form, e.g. ``hotspot(factor=8,targets=2)``.

        Used in RNG stream names and log labels (see
        :func:`~repro.registry.params_key`).
        """
        return params_key(self.name, self.params)

    # -- matrix construction ---------------------------------------------

    def matrix(self, n_processes: int, msg_size: int, *, seed: int = 0) -> np.ndarray:
        """The (n, n) byte matrix at one (n, msg_size, seed) coordinate."""
        if n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if msg_size < 1:
            raise ValueError("msg_size must be >= 1 byte")
        rng = RngFactory(seed).stream(
            f"traffic/{self.key()}/{n_processes}/{msg_size}"
        )
        generator = PATTERNS.get(self.name)
        W = np.asarray(
            generator(int(n_processes), int(msg_size), rng=rng, **dict(self.params))
        )
        if W.shape != (n_processes, n_processes):
            raise ScenarioError(
                f"pattern {self.name!r} returned shape {W.shape}, "
                f"expected ({n_processes}, {n_processes})"
            )
        if np.any(W < 0):
            raise ScenarioError(f"pattern {self.name!r} produced negative bytes")
        return W.astype(np.int64)

    def med(self, n_processes: int, msg_size: int, *, seed: int = 0) -> MED:
        """Lower the pattern to the paper's §5 message exchange digraph."""
        return MED.from_matrix(self.matrix(n_processes, msg_size, seed=seed))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data) -> "PatternSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise ScenarioError("pattern must be a name or a table/dict")
        unknown = sorted(set(data) - {"name", "params"})
        if unknown:
            raise ScenarioError(
                f"unknown pattern field(s) {unknown}; known: name, params"
            )
        return cls(
            name=str(data.get("name", "uniform")),
            params=dict(data.get("params", {})),
        )

    def cache_payload(self) -> dict:
        """JSON-stable identity for sweep cache keys (same as to_dict)."""
        return {"name": self.name, "params": dict(self.params)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key()


def as_pattern(value) -> "PatternSpec | None":
    """Coerce a name/dict/spec to a :class:`PatternSpec` (``None`` passes).

    The trivial uniform spec is collapsed to ``None`` — the legacy
    scalar path — so ``uniform`` and "no pattern" are one identity
    everywhere downstream (one simulation path, one cache key).
    """
    if value is None:
        return None
    if isinstance(value, PatternSpec):
        spec = value
    else:
        spec = PatternSpec.from_dict(value)
    return None if spec.is_uniform else spec
