"""Declarative rank placements: a registered strategy plus parameters.

A :class:`PlacementSpec` names a rank→host mapping — either a strategy
from the placement registry (:data:`repro.registry.PLACEMENTS`) together
with its keyword parameters, or an explicit permutation — canonicalised
so that equal specs hash and serialise identically, the property sweep
cache keys rely on.  It is the value carried by
``ScenarioSpec.placement``, ``SweepSpec.placements`` entries and
``SweepPoint.placement``.

The spec is *lazy*: the permutation is produced per n_processes by
:meth:`PlacementSpec.permutation`.  Rank *i* runs on host ``perm[i]``;
the identity mapping is the legacy behaviour and collapses to ``None``
everywhere downstream (see :func:`as_placement`), so pre-placement
cache keys and results stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ScenarioError
from ..registry import PLACEMENTS, canonical_params, params_key

__all__ = ["PlacementSpec", "as_placement"]

#: Strategy name reserved for explicit permutations; never in the registry.
EXPLICIT = "explicit"


def _validate_permutation(perm) -> tuple[int, ...]:
    """Coerce *perm* to a tuple of ints and check it permutes ``range(n)``."""
    try:
        out = tuple(int(x) for x in perm)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"placement permutation must be a sequence of ints, got {perm!r}"
        ) from None
    if sorted(out) != list(range(len(out))):
        raise ScenarioError(
            f"placement permutation must rearrange 0..{len(out) - 1} "
            f"exactly once each, got {out!r}"
        )
    return out


@dataclass(frozen=True)
class PlacementSpec:
    """A rank→host mapping: registered strategy + params, or explicit.

    ``params`` accepts a dict at construction and is canonicalised to a
    sorted tuple of ``(key, value)`` pairs, so specs are hashable and
    two spellings of the same placement compare (and cache) equal.  An
    explicit permutation is carried in ``perm`` (the strategy name is
    then the reserved ``"explicit"``) and is only valid at its own n.
    """

    name: str = "identity"
    params: tuple = field(default_factory=tuple)
    perm: tuple | None = None

    def __post_init__(self) -> None:
        if self.perm is not None:
            if self.params:
                raise ScenarioError(
                    "an explicit placement permutation takes no params"
                )
            object.__setattr__(self, "perm", _validate_permutation(self.perm))
            object.__setattr__(self, "name", EXPLICIT)
            object.__setattr__(self, "params", ())
            return
        object.__setattr__(self, "name", PLACEMENTS.canonical(self.name, ScenarioError))
        object.__setattr__(self, "params", canonical_params(self.params, "placement"))
        # Fail at spec-construction time, not mid-sweep in a worker.
        PLACEMENTS.check_params(self.name, dict(self.params))

    # -- queries ---------------------------------------------------------

    @property
    def is_explicit(self) -> bool:
        """Whether this spec carries a literal permutation."""
        return self.perm is not None

    @property
    def is_identity(self) -> bool:
        """Whether this spec is the do-nothing rank→host mapping.

        Identity is special-cased everywhere: it follows the legacy
        no-placement path bit-for-bit (same routes, same RNG streams,
        same sweep cache keys).  An explicit permutation that happens to
        be ``0..n-1`` in order counts too.
        """
        if self.perm is not None:
            return self.perm == tuple(range(len(self.perm)))
        return self.name == "identity" and not self.params

    def key(self) -> str:
        """Canonical compact form, e.g. ``round-robin(groups=4)``.

        Used in row columns and log labels (see
        :func:`~repro.registry.params_key`).  Explicit permutations
        render as ``explicit[2,0,1,...]``.
        """
        if self.perm is not None:
            return f"{EXPLICIT}[{','.join(str(p) for p in self.perm)}]"
        return params_key(self.name, self.params)

    # -- permutation construction ----------------------------------------

    def permutation(self, n_processes: int) -> tuple[int, ...]:
        """The rank→host permutation at one n (rank *i* → host ``[i]``)."""
        n = int(n_processes)
        if n < 1:
            raise ValueError("n_processes must be >= 1")
        if self.perm is not None:
            if len(self.perm) != n:
                raise ScenarioError(
                    f"explicit placement is for n={len(self.perm)}, "
                    f"cannot apply it to n={n}"
                )
            return self.perm
        strategy = PLACEMENTS.get(self.name)
        try:
            raw = strategy(n, **dict(self.params))
        except ValueError as exc:
            raise ScenarioError(
                f"placement {self.key()!r} failed at n={n}: {exc}"
            ) from None
        out = _validate_permutation(raw)
        if len(out) != n:
            raise ScenarioError(
                f"placement {self.name!r} returned {len(out)} entries, "
                f"expected {n}"
            )
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        if self.perm is not None:
            return {"perm": list(self.perm)}
        out: dict = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data) -> "PlacementSpec":
        if isinstance(data, str):
            return cls(name=data)
        if isinstance(data, (list, tuple)):
            return cls(perm=tuple(data))
        if not isinstance(data, dict):
            raise ScenarioError(
                "placement must be a name, a permutation list, or a table/dict"
            )
        unknown = sorted(set(data) - {"name", "params", "perm"})
        if unknown:
            raise ScenarioError(
                f"unknown placement field(s) {unknown}; known: name, params, perm"
            )
        if "perm" in data:
            if "name" in data or "params" in data:
                raise ScenarioError(
                    "placement takes either perm or name/params, not both"
                )
            return cls(perm=tuple(data["perm"]))
        return cls(
            name=str(data.get("name", "identity")),
            params=dict(data.get("params", {})),
        )

    def cache_payload(self) -> dict:
        """JSON-stable identity for sweep cache keys (same as to_dict)."""
        if self.perm is not None:
            return {"perm": list(self.perm)}
        return {"name": self.name, "params": dict(self.params)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key()


def as_placement(value) -> "PlacementSpec | None":
    """Coerce a name/dict/perm/spec to a :class:`PlacementSpec` (``None`` passes).

    The identity spec is collapsed to ``None`` — the legacy no-placement
    path — so ``identity`` and "no placement" are one identity everywhere
    downstream (same routes, same cache keys).
    """
    if value is None:
        return None
    if isinstance(value, PlacementSpec):
        spec = value
    else:
        spec = PlacementSpec.from_dict(value)
    return None if spec.is_identity else spec
