"""Model selection: fit a zoo of cost models on one sample set, rank them.

The pipeline turns sweep output (live :class:`~repro.sweeps.SweepResult`
rows or CSV/JSONL files written by the streaming sinks) into
:class:`~repro.core.AlltoallSample` lists, fits any set of registered
models on them, scores each fit in-sample (RMSE and MAPE, the paper's
``|measured/estimated - 1|`` metric) and out-of-sample (deterministic
k-fold plus leave-one-n-out cross-validation), and emits a ranked
:class:`ModelComparison` — the machinery behind
``repro-alltoall compare-models``, ``sweep --models`` and the tableM
shootout experiment.

Everything here is deterministic: folds are assigned round-robin over a
canonical sample ordering, never drawn from an RNG, so the same samples
always produce the same ranking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.signature import AlltoallSample
from ..exceptions import FittingError
from ..registry import MODELS
from .base import FittedModel, get_model
from .builtins import DEFAULT_MODELS

__all__ = [
    "ModelScore",
    "ModelReport",
    "ModelComparison",
    "samples_from_rows",
    "score_fit",
    "kfold_errors",
    "leave_one_n_out_errors",
    "compare_models",
    "compare_for_sweep",
]


@dataclass(frozen=True)
class ModelScore:
    """Error of one fitted model against one sample set."""

    rmse: float
    mape: float
    n_samples: int


@dataclass(frozen=True)
class ModelReport:
    """One model's outcome in a comparison (fit, scores — or the failure)."""

    model: str
    fitted: FittedModel | None
    fit_seconds: float
    score: ModelScore | None = None
    cv_mape: float | None = None
    cv_rmse: float | None = None
    lono_mape: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.fitted is not None


@dataclass
class ModelComparison:
    """Ranked model reports over one sample set (best first).

    ``ranked_by`` records which error the ranking used: ``"cv-mape"``
    when every fitted model could be cross-validated, ``"mape"``
    (in-sample) otherwise — CV scores of some models are never compared
    against optimistic in-sample scores of others.
    """

    reports: list[ModelReport]
    k: int
    n_samples: int
    cluster: str | None = None
    ranked_by: str = "cv-mape"
    options: dict = field(default_factory=dict)

    def rank_metric_of(self, report: ModelReport) -> float:
        """The value the ranking actually used for *report*."""
        if not report.ok or report.score is None:
            return float("inf")
        if self.ranked_by == "cv-mape" and report.cv_mape is not None:
            return report.cv_mape
        return report.score.mape

    @property
    def ranking(self) -> list[str]:
        """Model names, best first (failed fits last, by name)."""
        return [r.model for r in self.reports]

    @property
    def best(self) -> ModelReport:
        if not self.reports or not self.reports[0].ok:
            raise FittingError("no model could be fitted on these samples")
        return self.reports[0]

    def report(self, model: str) -> ModelReport:
        """The report for one model (canonical or alias name)."""
        name = MODELS.canonical(model)
        for r in self.reports:
            if r.model == name:
                return r
        raise KeyError(f"model {model!r} is not part of this comparison")

    def render(self) -> str:
        """Deterministic ranked table (no timings — diff-stable output)."""
        header = (
            f"{'model':<12} {'mape%':>9} {'cv-mape%':>9} {'lono%':>9} "
            f"{'rmse':>10}  params"
        )
        lines = [header, "-" * len(header)]

        def fmt(value, spec=".2f"):
            return "-" if value is None else format(value, spec)

        for r in self.reports:
            if r.ok:
                detail = str(r.fitted)
                detail = detail[detail.index("(") :]  # params only
            else:
                detail = f"unfittable: {r.error}"
            lines.append(
                f"{r.model:<12} "
                f"{fmt(r.score.mape if r.score else None):>9} "
                f"{fmt(r.cv_mape):>9} {fmt(r.lono_mape):>9} "
                f"{fmt(r.score.rmse if r.score else None, '.3e'):>10}  {detail}"
            )
        lines.append(
            "ranking: " + " > ".join(self.ranking)
            + f"  (by {self.ranked_by})"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-able summary (CI artifacts, bench entries)."""
        return {
            "cluster": self.cluster,
            "n_samples": self.n_samples,
            "k": self.k,
            "ranking": self.ranking,
            "ranked_by": self.ranked_by,
            "reports": [
                {
                    "model": r.model,
                    "params": None if r.fitted is None else r.fitted.to_dict()["params"],
                    "mape": None if r.score is None else r.score.mape,
                    "rmse": None if r.score is None else r.score.rmse,
                    "cv_mape": r.cv_mape,
                    "cv_rmse": r.cv_rmse,
                    "lono_mape": r.lono_mape,
                    "fit_seconds": r.fit_seconds,
                    "error": r.error,
                }
                for r in self.reports
            ],
        }


# ----------------------------------------------------------------------
# Samples from rows
# ----------------------------------------------------------------------


def samples_from_rows(rows, *, cluster: str | None = None) -> list[AlltoallSample]:
    """Sweep rows (dicts, e.g. from :func:`repro.analysis.io.read_rows`)
    → :class:`AlltoallSample` list.

    Error rows, rows carrying a non-uniform traffic pattern or a
    non-identity placement (the zoo models predict the regular
    All-to-All under the default mapping) and rows with a missing or
    non-finite ``mean_time`` are skipped.  With *cluster* set, rows
    labelled with a *different* cluster are dropped; rows with no
    ``cluster`` column at all are trusted as-is (files written by the
    sweep sinks always carry the column — only hand-rolled rows can be
    unlabelled).  Without *cluster*, rows spanning several clusters are
    rejected (fit one network at a time).
    """
    samples = []
    clusters_seen = set()
    for row in rows:
        if row.get("error"):
            continue
        pattern = row.get("pattern")
        if pattern not in (None, "", "uniform"):
            continue
        placement = row.get("placement")
        if placement not in (None, "", "identity"):
            continue
        mean_time = row.get("mean_time")
        if mean_time in (None, ""):
            continue
        name = row.get("cluster")
        if cluster is not None and name is not None and str(name) != cluster:
            continue
        try:
            mean_time = float(mean_time)
            std = row.get("std_time")
            std = 0.0 if std in (None, "") else float(std)
            if not np.isfinite(mean_time):
                # One poisoned cell (NaN/inf) must not make every model
                # unfittable; drop the row like any other unusable one.
                continue
            sample = AlltoallSample(
                n_processes=int(float(row["n_processes"])),
                msg_size=int(float(row["msg_size"])),
                mean_time=mean_time,
                std_time=std if np.isfinite(std) else 0.0,
                reps=int(float(row.get("reps", 1) or 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FittingError(f"malformed sweep row {row!r}: {exc}") from None
        if name is not None:
            clusters_seen.add(str(name))
        samples.append(sample)
    if cluster is None and len(clusters_seen) > 1:
        raise FittingError(
            f"rows span several clusters {sorted(clusters_seen)}; "
            "pass cluster= to pick one"
        )
    return samples


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


def _prediction_errors(
    fitted: FittedModel, samples
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (|measured/estimated - 1|·100, squared error), one
    ``predict`` pass — the paper's MAPE metric and the RMSE numerator."""
    n = np.array([s.n_processes for s in samples], dtype=np.float64)
    m = np.array([s.msg_size for s in samples], dtype=np.float64)
    t = np.array([s.mean_time for s in samples], dtype=np.float64)
    estimated = np.asarray(fitted.predict(n, m), dtype=np.float64)
    if np.any(estimated <= 0) or not np.all(np.isfinite(estimated)):
        raise FittingError(
            f"model {fitted.model!r} produced non-positive predictions"
        )
    return np.abs(t / estimated - 1.0) * 100.0, (t - estimated) ** 2


def score_fit(fitted: FittedModel, samples) -> ModelScore:
    """In-sample RMSE (seconds) and MAPE (%) of a fitted model."""
    samples = list(samples)
    if not samples:
        raise FittingError("no samples to score against")
    abs_err, sq_err = _prediction_errors(fitted, samples)
    return ModelScore(
        rmse=float(np.sqrt(sq_err.mean())),
        mape=float(abs_err.mean()),
        n_samples=len(samples),
    )


def _canonical_order(samples) -> list[int]:
    """Deterministic sample ordering for fold assignment.

    Size-major: round-robin fold assignment then spreads the samples of
    one message size across folds, so every training split spans the
    full size ladder (a fold holding *all* samples of one size would
    force threshold models to extrapolate outside their scanned range).
    """
    return sorted(
        range(len(samples)),
        key=lambda i: (
            samples[i].msg_size,
            samples[i].n_processes,
            samples[i].mean_time,
        ),
    )


def _held_out_errors(model_name, folds, samples, context):
    """Fit on each fold's train split, collect test-split errors.

    *folds* is a list of (train indices, test indices).  Folds whose
    training split cannot fit the model are skipped; returns
    ``(abs error % array, squared error array)`` over every scored
    held-out sample, or ``None`` when no fold could be scored.
    """
    model = get_model(model_name)
    abs_errors: list[np.ndarray] = []
    sq_errors: list[np.ndarray] = []
    for train_idx, test_idx in folds:
        if not train_idx or not test_idx:
            continue
        train = [samples[i] for i in train_idx]
        test = [samples[i] for i in test_idx]
        try:
            fitted = model.fit(train, **context)
            abs_err, sq_err = _prediction_errors(fitted, test)
        except FittingError:
            continue
        abs_errors.append(abs_err)
        sq_errors.append(sq_err)
    if not abs_errors:
        return None
    return np.concatenate(abs_errors), np.concatenate(sq_errors)


def kfold_errors(model_name: str, samples, *, k: int = 4, **context):
    """Deterministic k-fold CV: ``(mape, rmse)`` over held-out samples.

    Folds are assigned round-robin over the canonical (n, m, time)
    ordering — no RNG, so rankings are reproducible.  Returns ``None``
    when fewer than two samples exist or no fold could be fitted.
    """
    samples = list(samples)
    k = min(int(k), len(samples))
    if k < 2:
        return None
    order = _canonical_order(samples)
    folds = []
    for fold in range(k):
        test = [idx for pos, idx in enumerate(order) if pos % k == fold]
        train = [idx for pos, idx in enumerate(order) if pos % k != fold]
        folds.append((train, test))
    result = _held_out_errors(model_name, folds, samples, context)
    if result is None:
        return None
    abs_err, sq_err = result
    return float(abs_err.mean()), float(np.sqrt(sq_err.mean()))


def leave_one_n_out_errors(model_name: str, samples, **context):
    """Leave-one-n-out CV: hold out every process count in turn.

    The harshest test of a model's *extrapolation* over the saturation
    axis (the paper's figures 8/11/14 question).  Returns the held-out
    MAPE, or ``None`` with fewer than two distinct process counts.
    """
    samples = list(samples)
    ns = sorted({s.n_processes for s in samples})
    if len(ns) < 2:
        return None
    folds = []
    for held in ns:
        test = [i for i, s in enumerate(samples) if s.n_processes == held]
        train = [i for i, s in enumerate(samples) if s.n_processes != held]
        folds.append((train, test))
    result = _held_out_errors(model_name, folds, samples, context)
    if result is None:
        return None
    abs_err, _ = result
    return float(abs_err.mean())


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def compare_models(
    samples,
    models=None,
    *,
    hockney=None,
    cluster=None,
    k: int = 4,
    options: dict | None = None,
) -> ModelComparison:
    """Fit *models* (default: every built-in) on *samples* and rank them.

    *hockney* / *cluster* are the fit context handed to every model
    (ping-pong α/β, topology link capacities); *options* are extra
    per-fit keyword arguments (``delta_mode=...`` etc.).  Models that
    cannot fit (missing context, too few distinct n, …) are kept in the
    comparison as failed reports, ranked last — a comparison never
    crashes because one zoo member is unfittable on this sample set.

    Ranking: successful fits first, by cross-validated MAPE; when any
    fitted model could not be cross-validated (too few samples for its
    folds), *every* model is ranked by in-sample MAPE instead — a model
    must never win just because its CV folds failed.  Ties break by
    name.
    """
    samples = list(samples)
    if not samples:
        raise FittingError("no samples to compare models on")
    # Canonicalise and deduplicate (an alias plus its canonical name is
    # one model).
    names: list[str] = []
    for model in models or DEFAULT_MODELS:
        resolved = MODELS.canonical(model)
        if resolved not in names:
            names.append(resolved)
    context = {"hockney": hockney, "cluster": cluster, **(options or {})}
    reports = []
    for name in names:
        model = get_model(name)
        start = time.perf_counter()
        try:
            fitted = model.fit(samples, **context)
        except FittingError as exc:
            reports.append(
                ModelReport(
                    model=name,
                    fitted=None,
                    fit_seconds=time.perf_counter() - start,
                    error=str(exc),
                )
            )
            continue
        fit_seconds = time.perf_counter() - start
        try:
            score = score_fit(fitted, samples)
        except FittingError as exc:
            reports.append(
                ModelReport(
                    model=name, fitted=None, fit_seconds=fit_seconds,
                    error=str(exc),
                )
            )
            continue
        cv = kfold_errors(name, samples, k=k, **context)
        lono = leave_one_n_out_errors(name, samples, **context)
        reports.append(
            ModelReport(
                model=name,
                fitted=fitted,
                fit_seconds=fit_seconds,
                score=score,
                cv_mape=None if cv is None else cv[0],
                cv_rmse=None if cv is None else cv[1],
                lono_mape=lono,
            )
        )
    fitted_reports = [r for r in reports if r.ok]
    use_cv = bool(fitted_reports) and all(
        r.cv_mape is not None for r in fitted_reports
    )
    comparison = ModelComparison(
        reports=reports,
        k=k,
        n_samples=len(samples),
        cluster=getattr(cluster, "name", None),
        ranked_by="cv-mape" if use_cv else "mape",
        options=dict(options or {}),
    )
    reports.sort(
        key=lambda r: (not r.ok, comparison.rank_metric_of(r), r.model)
    )
    return comparison


def compare_for_sweep(
    result,
    models,
    *,
    k: int = 4,
    seed: int = 0,
    pingpong_reps: int = 3,
    profile=None,
) -> dict[str, "ModelComparison"]:
    """Per-cluster model comparison over a finished sweep (``sweep --models``).

    Fits the successful uniform-pattern, identity-placement points (the
    only exchange the zoo models predict) per cluster, always under the
    fabric's ping-pong context as eq. 1 is parameterised: Hockney α/β
    from *pingpong_reps* ping-pongs at *seed*, and the topology.  The
    fabric is *profile* when given (a scenario sweep's), else the
    registered cluster of that name.  Returns ``{cluster name:
    ModelComparison}`` in name order, empty when no point qualifies.
    """
    from ..clusters.profiles import get_cluster
    from ..measure.pingpong import hockney_from_pingpong, measure_pingpong

    by_cluster: dict[str, list[AlltoallSample]] = {}
    for point_result in result.results:
        point = point_result.point
        if point_result.ok and point.pattern is None and point.placement is None:
            by_cluster.setdefault(point.cluster, []).append(point_result.sample)
    comparisons: dict[str, ModelComparison] = {}
    for name in sorted(by_cluster):
        fabric = profile if profile is not None else get_cluster(name)
        pingpong = measure_pingpong(fabric, reps=pingpong_reps, seed=seed)
        comparison = compare_models(
            by_cluster[name], models,
            hockney=hockney_from_pingpong(pingpong).params, cluster=fabric, k=k,
        )
        comparison.cluster = name
        comparisons[name] = comparison
    return comparisons
