"""Bench: cost-model zoo fit + predict throughput per model.

Builds a deterministic synthetic sample set from the paper's GigE
signature (no simulation — the fitting/eval machinery itself is the
measured workload), then per registered built-in model measures

* fit throughput   — fits/second over the 32-sample set;
* predict throughput — vectorised predictions/second over a 10k grid;

and checks that every fitted parameter is finite, that two independent
model-comparison runs rank identically (the selection pipeline is
deterministic by construction), and that the contention signature
ranks above Hockney.

Run ``pytest benchmarks/bench_models.py -q -s``; it writes
``benchmarks/output/BENCH_models.json``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from record import finish, make_metric, per_fluid_unit

from repro.clusters.profiles import get_cluster
from repro.core import AlltoallSample, ContentionSignature, HockneyParams
from repro.models import DEFAULT_MODELS, compare_models, get_model

OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_models.json"

HOCKNEY = HockneyParams(alpha=50e-6, beta=8.5e-9)
SIGNATURE = ContentionSignature(
    gamma=4.3628, delta=4.93e-3, threshold=8_192, hockney=HOCKNEY
)

FIT_REPEATS = 25
PREDICT_GRID = 10_000


def synthetic_samples() -> list[AlltoallSample]:
    """32 deterministic samples drawn from the paper-reported signature."""
    rng = np.random.default_rng(2006)
    samples = []
    for n in (4, 8, 16, 32):
        for m in (2_048, 8_192, 32_768, 131_072, 262_144, 524_288,
                  786_432, 1_048_576):
            t = float(SIGNATURE.predict(n, m)) * (
                1.0 + 0.02 * float(rng.standard_normal())
            )
            samples.append(
                AlltoallSample(
                    n_processes=n, msg_size=m, mean_time=abs(t),
                    std_time=abs(t) * 0.01, reps=3,
                )
            )
    return samples


def test_models_bench():
    """Finite fits, positive throughputs, a deterministic ranking with
    the signature above Hockney."""
    samples = synthetic_samples()
    gige = get_cluster("gigabit-ethernet")

    fits_per_sec, predict_per_sec = {}, {}
    for name in DEFAULT_MODELS:
        model = get_model(name)
        fitted = model.fit(samples, hockney=HOCKNEY, cluster=gige)
        assert all(
            math.isfinite(v) for v in fitted.params.values()
            if isinstance(v, float)
        ), f"{name}: non-finite params {fitted.params}"

        start = time.perf_counter()
        for _ in range(FIT_REPEATS):
            model.fit(samples, hockney=HOCKNEY, cluster=gige)
        fits_per_sec[name] = round(FIT_REPEATS / (time.perf_counter() - start), 2)

        n_grid = np.linspace(4, 64, PREDICT_GRID)
        m_grid = np.linspace(1_024, 1_048_576, PREDICT_GRID)
        start = time.perf_counter()
        predictions = np.asarray(fitted.predict(n_grid, m_grid))
        predict_per_sec[name] = round(
            PREDICT_GRID / (time.perf_counter() - start), 0
        )
        assert predictions.shape == (PREDICT_GRID,)
        assert np.all(np.isfinite(predictions))

    first = compare_models(samples, hockney=HOCKNEY, cluster=gige)
    second = compare_models(samples, hockney=HOCKNEY, cluster=gige)
    deterministic = first.ranking == second.ranking
    beats = first.ranking.index("signature") < first.ranking.index("hockney")
    # Tracked: the paper's headline ordering (signature beats hockney),
    # selection determinism, and the signature model's fit throughput
    # in fluid units.
    metrics = {
        "ranking_deterministic": make_metric(
            1.0 if deterministic else 0.0, direction="higher", tolerance=0.0
        ),
        "signature_beats_hockney": make_metric(
            1.0 if beats else 0.0, direction="higher", tolerance=0.0
        ),
        "signature_fits_per_fluid_unit": make_metric(
            round(per_fluid_unit(fits_per_sec["signature"]), 3),
            direction="higher", tolerance=0.50,
        ),
    }
    record = finish("cost_model_zoo", metrics, OUTPUT_PATH)
    assert json.loads(OUTPUT_PATH.read_text()) == record

    assert deterministic, (first.ranking, second.ranking)
    assert beats, first.ranking
    for name in DEFAULT_MODELS:
        assert fits_per_sec[name] > 0, name
        assert predict_per_sec[name] > 0, name
    print(f"\nmodels bench: {', '.join(DEFAULT_MODELS)}; ranking {first.ranking}")
