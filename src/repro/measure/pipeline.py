"""End-to-end cluster characterisation (the paper's §8 procedure).

1. ping-pong → Hockney α, β  ("a simple point-to-point measure");
2. All-to-All sweep at one sample size n′ over >= 4 message sizes;
3. GLS regression of the measurements against the lower bound → (γ, δ, M);
4. hand back an :class:`~repro.core.predictor.AlltoallPredictor` usable
   for *any* (n, m) on that network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clusters.profiles import ClusterProfile
from ..core.hockney import HockneyFit
from ..core.predictor import AlltoallPredictor
from ..core.signature import AlltoallSample, SignatureFit, fit_signature
from .alltoall import sweep_grid
from .pingpong import PingPongResult, hockney_from_pingpong, measure_pingpong

__all__ = ["Characterization", "characterize_cluster", "DEFAULT_SAMPLE_SIZES"]

#: Default fit sizes: >= 4 points as the paper requires, spanning both
#: the small-message region (so the threshold M is locatable) and the
#: affine region (128 KiB .. 1 MiB as in figures 8/11/14).
DEFAULT_SAMPLE_SIZES = (
    2_048, 8_192, 32_768, 131_072, 262_144, 524_288, 786_432, 1_048_576
)


@dataclass(frozen=True)
class Characterization:
    """Everything learned about one network."""

    cluster: str
    pingpong: PingPongResult
    hockney_fit: HockneyFit
    samples: tuple[AlltoallSample, ...]
    signature_fit: SignatureFit
    predictor: AlltoallPredictor

    @property
    def signature(self):
        """The fitted contention signature (γ, δ, M)."""
        return self.signature_fit.signature


def characterize_cluster(
    cluster: ClusterProfile,
    *,
    sample_nprocs: int,
    sample_sizes=DEFAULT_SAMPLE_SIZES,
    reps: int = 3,
    pingpong_reps: int = 5,
    seed: int = 0,
    method: str = "gls",
    delta_mode: str = "per_round",
    threshold: int | str = "auto",
    algorithm: str = "direct",
    engine: str | None = None,
    runner=None,
    scenario=None,
) -> Characterization:
    """Run the full §8 procedure on a virtual cluster.

    ``sample_nprocs`` is the paper's n′ — it should be large enough to
    saturate the network (the paper attributes its Myrinet error to an
    unsaturated sample size; the ablation bench quantifies this).

    The All-to-All sweep goes through the sweep engine; pass *runner*
    (a :class:`~repro.sweeps.SweepRunner`) to parallelise it or serve
    repeated characterisations from the result cache.  *scenario* (a
    :class:`~repro.scenario.ScenarioSpec`) is forwarded to the engine so
    scenario-defined clusters key the cache on their full definition.

    *engine* selects the simulation engine for the All-to-All sweep
    (:data:`repro.registry.ENGINES`; ``None`` defers to the process
    default).  The ping-pong stays on the reference fluid engine: it is
    two flows on an otherwise idle fabric — nothing to batch — and
    keeping it fixed means Hockney α/β never depend on engine choice.
    """
    pingpong = measure_pingpong(
        cluster, reps=pingpong_reps, seed=seed
    )
    hockney_fit = hockney_from_pingpong(pingpong)
    samples = sweep_grid(
        cluster,
        [sample_nprocs],
        sample_sizes,
        reps=reps,
        seed=seed,
        algorithm=algorithm,
        engine=engine,
        runner=runner,
        scenario=scenario,
    )
    signature_fit = fit_signature(
        samples,
        hockney_fit.params,
        threshold=threshold,
        method=method,
        delta_mode=delta_mode,
    )
    return Characterization(
        cluster=cluster.name,
        pingpong=pingpong,
        hockney_fit=hockney_fit,
        samples=tuple(samples),
        signature_fit=signature_fit,
        predictor=AlltoallPredictor(signature=signature_fit.signature),
    )
