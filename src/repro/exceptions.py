"""Exception hierarchy for the repro package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "RoutingError",
    "LoweringError",
    "FittingError",
    "MeasurementError",
    "ExecutionError",
    "BackendUnavailableError",
    "RegistryError",
    "DuplicateNameError",
    "UnknownNameError",
    "ScenarioError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class RegistryError(ReproError):
    """A plugin-registry operation failed."""


class DuplicateNameError(RegistryError, ValueError):
    """A name (or alias) is already registered and ``replace`` was not set."""


class UnknownNameError(RegistryError, KeyError, ValueError):
    """A registry lookup failed.

    Inherits both :class:`KeyError` (the historical ``get_cluster`` /
    ``run_experiment`` contract) and :class:`ValueError` (the historical
    ``get_backend`` / ``SweepSpec`` contract) so pre-registry call sites
    keep catching what they always caught.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class ScenarioError(ReproError, ValueError):
    """A scenario definition is malformed or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All rank processes are blocked and no event can make progress."""


class RoutingError(SimulationError):
    """No route exists between two hosts in the topology."""


class LoweringError(SimulationError):
    """A rank program cannot be compiled to a static phase schedule.

    Raised by :mod:`repro.simmpi.lowering` for programs whose behaviour
    depends on runtime state the compiler cannot know (wildcard receives,
    ``ctx.now``, a receive's status) or whose sends and receives do not
    pair up statically.  Both engines run lowered schedules only.
    """


class FittingError(ReproError):
    """A model fit could not be performed (e.g. too few samples)."""


class MeasurementError(ReproError):
    """A measurement harness was misconfigured or produced no data."""


class ExecutionError(ReproError, RuntimeError):
    """A sweep point failed inside an executor.

    Raised when a worker-side exception cannot be re-hydrated as the
    exception type that was originally raised (the isolation boundary
    ships errors between processes as strings, not pickled objects).
    """


class BackendUnavailableError(MeasurementError):
    """The requested measurement backend (e.g. mpi4py) is not importable."""
