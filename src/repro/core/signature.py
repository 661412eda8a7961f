"""Contention signature model — the paper's §7 contribution.

The signature of a network is the pair (γ, δ) that relates the measured
All-to-All completion time to the theoretical lower bound:

    T(n, m) = (n-1)·(α + m·β)·γ                     if m <  M
    T(n, m) = (n-1)·((α + m·β)·γ + δ)               if m >= M

(δ parenthesisation: eq. 5 leaves open whether δ is paid once or once
per round; per-round is the default because only it generalises across
n, and the "global" reading stays available for the ablation in
``benchmarks/bench_ablation_delta_mode.py``).

Fitting (γ, δ) is a *linear* problem: with LB = (n-1)(α+mβ) and the
indicator 1[m >= M],

    T = γ·LB + δ·(n-1)·1[m >= M]

so a two-column GLS regression recovers both parameters from >= 4
sample points measured on a single cluster size n′ (paper §8).  The
threshold M is selected by scanning candidate values and keeping the
best residual sum of squares (the paper states M per network without
describing its selection; the scan is our operationalisation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..exceptions import FittingError
from .bounds import (
    alltoall_lower_bound,
    combined_lower_bound,
    delta_eligible_rounds,
)
from .hockney import HockneyParams
from .med import MED
from .regression import LinearFit, fit_linear

__all__ = ["AlltoallSample", "ContentionSignature", "SignatureFit", "fit_signature"]

#: fitted δ below this is treated as zero (the paper's Myrinet case:
#: "the linear regression pointed a start-up cost δ smaller than 1
#: microsecond", so no δ term is applied).
DELTA_FLOOR = 1e-6


@dataclass(frozen=True)
class AlltoallSample:
    """One measured All-to-All point: mean of *reps* runs."""

    n_processes: int
    msg_size: int
    mean_time: float
    std_time: float = 0.0
    reps: int = 1

    def __post_init__(self) -> None:
        if self.n_processes < 2:
            raise ValueError("All-to-All needs at least 2 processes")
        if self.msg_size < 0 or self.mean_time <= 0:
            raise ValueError("invalid sample")

    @property
    def variance_of_mean(self) -> float:
        """Var(mean) = std² / reps (GLS weighting)."""
        if self.reps <= 1:
            return self.std_time**2
        return self.std_time**2 / self.reps


@dataclass(frozen=True)
class ContentionSignature:
    """A fitted (γ, δ, M) network signature over Hockney parameters."""

    gamma: float
    delta: float
    threshold: int
    hockney: HockneyParams
    delta_mode: str = "per_round"

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.delta_mode not in ("per_round", "global"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")

    def predict(self, n_processes, msg_size):
        """Predicted completion time (vectorised over n and m)."""
        n = np.asarray(n_processes, dtype=np.float64)
        m = np.asarray(msg_size, dtype=np.float64)
        base = alltoall_lower_bound(n, m, self.hockney) * self.gamma
        above = (m >= self.threshold).astype(np.float64)
        if self.delta_mode == "per_round":
            base = base + above * self.delta * (n - 1.0)
        else:
            base = base + above * self.delta
        if np.isscalar(n_processes) and np.isscalar(msg_size):
            return float(base)
        return base

    def lower_bound(self, n_processes, msg_size):
        """The contention-free Proposition-1 bound (γ = 1, δ = 0)."""
        return alltoall_lower_bound(n_processes, msg_size, self.hockney)

    def predict_med(self, med: MED) -> float:
        """Predicted completion time for an arbitrary exchange digraph.

        Generalises :meth:`predict` from the regular All-to-All to any
        personalised exchange: γ multiplies the §5 combined lower bound
        (Claim 3: start-ups from the MED degrees, bandwidth from the
        per-node max in/out bytes), and δ is charged per
        threshold-crossing message on the bottleneck node
        (:func:`~repro.core.bounds.delta_eligible_rounds`).  On a
        uniform MED this reduces exactly to ``predict(n, m)``.
        """
        base = combined_lower_bound(med, self.hockney) * self.gamma
        if self.delta > 0:
            rounds = delta_eligible_rounds(med, self.threshold)
            if self.delta_mode == "per_round":
                base += self.delta * rounds
            else:
                base += self.delta * (1.0 if rounds else 0.0)
        return float(base)

    def lower_bound_med(self, med: MED) -> float:
        """The §5 combined (Claim 3) bound for an arbitrary exchange."""
        return combined_lower_bound(med, self.hockney)

    def to_dict(self) -> dict:
        """Plain-JSON form (lossless; see :meth:`from_dict`)."""
        return {
            "gamma": self.gamma,
            "delta": self.delta,
            "threshold": self.threshold,
            "delta_mode": self.delta_mode,
            "hockney": self.hockney.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContentionSignature":
        """Rebuild from :meth:`to_dict` output (bit-exact round-trip)."""
        if not isinstance(data, dict):
            raise ValueError("ContentionSignature.from_dict needs a dict")
        known = {"gamma", "delta", "threshold", "delta_mode", "hockney"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ContentionSignature field(s) {unknown}; "
                f"known: {', '.join(sorted(known))}"
            )
        try:
            return cls(
                gamma=float(data["gamma"]),
                delta=float(data["delta"]),
                threshold=int(data["threshold"]),
                hockney=HockneyParams.from_dict(data["hockney"]),
                delta_mode=str(data.get("delta_mode", "per_round")),
            )
        except KeyError as exc:
            raise ValueError(
                f"ContentionSignature dict is missing {exc.args[0]!r}"
            ) from None

    def __str__(self) -> str:
        delta_ms = self.delta * 1e3
        return (
            f"Signature(gamma={self.gamma:.4f}, delta={delta_ms:.3f} ms, "
            f"M={self.threshold} B, mode={self.delta_mode})"
        )


@dataclass(frozen=True)
class SignatureFit:
    """Fitted signature plus diagnostics."""

    signature: ContentionSignature
    fit: LinearFit
    samples: tuple[AlltoallSample, ...]
    candidate_thresholds: tuple[int, ...]
    rss_by_threshold: dict[int, float]


def _design(
    samples: list[AlltoallSample],
    hockney: HockneyParams,
    threshold: int,
    delta_mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = np.array([s.n_processes for s in samples], dtype=np.float64)
    m = np.array([s.msg_size for s in samples], dtype=np.float64)
    y = np.array([s.mean_time for s in samples], dtype=np.float64)
    lb = alltoall_lower_bound(n, m, hockney)
    above = (m >= threshold).astype(np.float64)
    delta_col = above * (n - 1.0) if delta_mode == "per_round" else above
    X = np.column_stack([lb, delta_col])
    return X, y, m


def fit_signature(
    samples,
    hockney: HockneyParams,
    *,
    threshold: int | str = "auto",
    method: str = "gls",
    delta_mode: str = "per_round",
    prune_delta: bool = True,
) -> SignatureFit:
    """Fit (γ, δ, M) from All-to-All samples against the lower bound.

    Parameters
    ----------
    samples:
        Iterable of :class:`AlltoallSample`; the paper uses >= 4 points
        measured at one sample size n′, varying the message size.
    hockney:
        α/β from the point-to-point measurement.
    threshold:
        The affine threshold M in bytes, or ``"auto"`` to scan the
        sample sizes for the best-RSS breakpoint.
    method:
        Regression method (``gls`` uses repetition variances when
        available, FGLS otherwise).
    delta_mode:
        ``"per_round"`` (default, see the module docstring) or ``"global"``.
    prune_delta:
        Apply the paper's Myrinet rule: a fitted δ below 1 us (or a
        negative one) is dropped entirely.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise FittingError(
            f"the paper requires at least four measurement points, got {len(samples)}"
        )
    variances = np.array([s.variance_of_mean for s in samples])
    have_variances = bool(np.any(variances > 0))

    sizes = sorted({s.msg_size for s in samples})
    if threshold == "auto":
        # Candidate breakpoints: every observed size plus "no threshold"
        # (all samples below M, pure-γ model).
        candidates = list(sizes) + [max(sizes) + 1]
    else:
        candidates = [int(threshold)]

    best: tuple[float, int, LinearFit] | None = None
    rss_by_threshold: dict[int, float] = {}
    for candidate in candidates:
        X, y, _ = _design(samples, hockney, candidate, delta_mode)
        if not np.any(X[:, 1] > 0):
            # No sample reaches M: drop the δ column, fit γ alone.
            fit = fit_linear(
                X[:, :1], y, method=method,
                variances=variances if have_variances else None,
            )
            params = np.array([fit.params[0], 0.0])
            fit = replace(fit, params=params, stderr=np.append(fit.stderr, 0.0))
        else:
            fit = fit_linear(
                X, y, method=method,
                variances=variances if have_variances else None,
            )
        rss_by_threshold[candidate] = fit.rss
        if best is None or fit.rss < best[0] - 1e-18:
            best = (fit.rss, candidate, fit)
    assert best is not None
    _, chosen, fit = best

    gamma = float(fit.params[0])
    delta = float(fit.params[1])
    if gamma <= 0:
        raise FittingError(
            f"fitted gamma={gamma:.4g} is not positive; the samples are "
            "inconsistent with the lower-bound model"
        )
    if prune_delta and delta < DELTA_FLOOR:
        delta = 0.0
    delta = max(delta, 0.0)

    signature = ContentionSignature(
        gamma=gamma,
        delta=delta,
        threshold=int(chosen) if delta > 0 else 0,
        hockney=hockney,
        delta_mode=delta_mode,
    )
    return SignatureFit(
        signature=signature,
        fit=fit,
        samples=tuple(samples),
        candidate_thresholds=tuple(candidates),
        rss_by_threshold=rss_by_threshold,
    )
