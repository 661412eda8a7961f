"""Cost-model zoo foundations: the :class:`CostModel` protocol.

A *cost model* is an analytical formula ``T(n, m)`` for the completion
time of an All-to-All (or, through the MED generalisation, any
personalised exchange) whose parameters are learned from measured
samples.  The paper's contention signature is one such model; Hockney's
postal model is the baseline it is judged against; LogGP and max-rate /
min-bandwidth bottleneck models (Bienz et al.) are the related-work
alternatives.  Putting them behind one protocol lets the selection
pipeline (:mod:`repro.models.selection`) fit *any* set of models on the
*same* samples and rank them — the repo's operationalisation of the
paper's claim that contention-aware models beat contention-blind ones.

Models are classes registered in :data:`repro.registry.MODELS` with
``@register_model``; each implements:

* :attr:`~CostModel.param_schema` — the learned parameters, described;
* :meth:`~CostModel.fit` — samples (+ optional context) → :class:`FittedModel`;
* :meth:`~CostModel.predict` / :meth:`~CostModel.predict_med` — evaluate
  a parameter dict at (n, m) or on an arbitrary exchange digraph;
* dict round-trip via :meth:`FittedModel.to_dict` /
  :meth:`FittedModel.from_dict` (cache keys, scenario TOML).

A :class:`FittedModel` is a plain ``(model name, params dict)`` pair —
JSON-able, hashable through its canonical dict, and evaluable without
the fitting context that produced it.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from ..core.med import MED
from ..exceptions import FittingError
from ..registry import MODELS

__all__ = [
    "ParamSpec",
    "FittedModel",
    "CostModel",
    "get_model",
    "list_models",
]


@dataclass(frozen=True)
class ParamSpec:
    """One learned parameter of a cost model.

    ``kind`` is the canonical Python type of the value in a params dict:
    ``"float"`` (default), ``"int"`` or ``"str"``.
    """

    name: str
    unit: str = ""
    description: str = ""
    kind: str = "float"

    def __post_init__(self) -> None:
        if self.kind not in ("float", "int", "str"):
            raise ValueError(f"unknown param kind {self.kind!r}")

    def coerce(self, value):
        """Validate and canonicalise one value for this parameter."""
        if self.kind == "str":
            return str(value)
        if self.kind == "int":
            return int(value)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"param {self.name!r} must be finite, got {value!r}")
        return value


@dataclass(frozen=True)
class FittedModel:
    """A cost model bound to learned parameters.

    ``params`` is a plain dict of scalars matching the model's
    :attr:`~CostModel.param_schema`; ``diagnostics`` optionally carries
    the fit object that produced it (regression output, chosen
    threshold, …) and is excluded from equality and serialization.
    """

    model: str
    params: dict
    diagnostics: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        spec = get_model(self.model)
        object.__setattr__(self, "model", spec.name)
        object.__setattr__(self, "params", spec.validate_params(self.params))

    def predict(self, n_processes, msg_size):
        """Predicted completion time (vectorised over n and m)."""
        return get_model(self.model).predict(self.params, n_processes, msg_size)

    def predict_med(self, med: MED) -> float:
        """Predicted completion time for an arbitrary exchange digraph."""
        return get_model(self.model).predict_med(self.params, med)

    def to_dict(self) -> dict:
        """Plain-JSON form, canonical key order (cache keys, TOML)."""
        return {
            "model": self.model,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FittedModel":
        """Rebuild from :meth:`to_dict` output (bit-exact round-trip)."""
        if not isinstance(data, dict):
            raise FittingError("FittedModel.from_dict needs a dict")
        unknown = sorted(set(data) - {"model", "params"})
        if unknown:
            raise FittingError(
                f"unknown FittedModel field(s) {unknown}; known: model, params"
            )
        if "model" not in data:
            raise FittingError("FittedModel dict is missing 'model'")
        return cls(model=str(data["model"]), params=dict(data.get("params", {})))

    def __str__(self) -> str:
        inner = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(self.params.items())
        )
        return f"{self.model}({inner})"


class CostModel(abc.ABC):
    """An analytical All-to-All performance model (fit + evaluate).

    Subclasses set :attr:`name` / :attr:`param_schema` and implement
    :meth:`fit`, :meth:`predict` and :meth:`predict_med`.  Instances are
    stateless — all learned state lives in :class:`FittedModel` param
    dicts, so one instance may fit any number of sample sets.
    """

    #: Canonical registry name (must match the ``@register_model`` name).
    name: str = ""

    #: The learned parameters, in canonical order.
    param_schema: tuple[ParamSpec, ...] = ()

    # -- protocol -------------------------------------------------------

    @abc.abstractmethod
    def fit(self, samples, *, hockney=None, cluster=None, **options) -> FittedModel:
        """Learn parameters from :class:`~repro.core.AlltoallSample` rows.

        *hockney* (a :class:`~repro.core.HockneyParams`) is the
        point-to-point context the paper's pipeline always has;
        *cluster* (a :class:`~repro.clusters.profiles.ClusterProfile`)
        lets fabric-aware models read link capacities from the topology.
        Models raise :class:`~repro.exceptions.FittingError` when the
        samples (or missing context) cannot identify their parameters.
        """

    @abc.abstractmethod
    def predict(self, params: dict, n_processes, msg_size):
        """Evaluate a parameter dict at (n, m) (vectorised)."""

    @abc.abstractmethod
    def predict_med(self, params: dict, med: MED) -> float:
        """Evaluate a parameter dict on an arbitrary exchange digraph."""

    # -- shared plumbing ------------------------------------------------

    def validate_params(self, params: dict) -> dict:
        """Schema-check and canonicalise a params dict (raises on gaps)."""
        if not isinstance(params, dict):
            raise FittingError(f"model {self.name!r} params must be a dict")
        by_name = {spec.name: spec for spec in self.param_schema}
        unknown = sorted(set(params) - set(by_name))
        if unknown:
            raise FittingError(
                f"unknown param(s) {unknown} for model {self.name!r}; "
                f"known: {', '.join(by_name)}"
            )
        missing = sorted(set(by_name) - set(params))
        if missing:
            raise FittingError(
                f"model {self.name!r} params missing {missing}"
            )
        try:
            return {
                name: spec.coerce(params[name]) for name, spec in by_name.items()
            }
        except (TypeError, ValueError) as exc:
            raise FittingError(f"model {self.name!r}: {exc}") from None

    def fitted(self, params: dict, diagnostics=None) -> FittedModel:
        """Wrap a params dict (validated) as a :class:`FittedModel`."""
        return FittedModel(model=self.name, params=params, diagnostics=diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


def get_model(name: str) -> CostModel:
    """Instantiate a registered cost model by (alias-tolerant) name."""
    return MODELS.get(name)()


def list_models() -> list[str]:
    """Canonical names of all registered cost models."""
    return MODELS.names()
