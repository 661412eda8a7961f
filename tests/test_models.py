"""Cost-model zoo: registry, built-ins, round-trips, selection pipeline."""

import numpy as np
import pytest

from repro.core import (
    MED,
    AlltoallSample,
    ContentionSignature,
    HockneyParams,
    combined_lower_bound,
    fit_signature,
)
from repro.exceptions import FittingError, ScenarioError
from repro.models import (
    DEFAULT_MODELS,
    FittedModel,
    ModelComparison,
    compare_for_sweep,
    compare_models,
    fabric_rates,
    get_model,
    kfold_errors,
    leave_one_n_out_errors,
    list_models,
    samples_from_rows,
    score_fit,
)


HOCKNEY = HockneyParams(alpha=50e-6, beta=8.5e-9)
SIGNATURE = ContentionSignature(
    gamma=4.36, delta=4.9e-3, threshold=8192, hockney=HOCKNEY
)


def signature_samples(
    nprocs=(4, 8, 16), sizes=(2_048, 8_192, 65_536, 524_288), noise=0.0
):
    """Samples drawn exactly (or nearly) from the reference signature."""
    rng = np.random.default_rng(7)
    samples = []
    for n in nprocs:
        for m in sizes:
            t = float(SIGNATURE.predict(n, m))
            if noise:
                t *= 1.0 + noise * float(rng.standard_normal())
            samples.append(
                AlltoallSample(
                    n_processes=n, msg_size=m, mean_time=abs(t),
                    std_time=abs(t) * 0.01, reps=3,
                )
            )
    return samples


class TestRegistry:
    def test_builtins_registered(self):
        assert set(DEFAULT_MODELS) <= set(list_models())
        assert {"hockney", "signature", "loggp", "max-rate", "knee"} <= set(
            list_models()
        )

    def test_aliases_resolve(self):
        assert get_model("naive").name == "hockney"
        assert get_model("contention-signature").name == "signature"
        assert get_model("min-bandwidth").name == "max-rate"
        assert get_model("Max_Rate").name == "max-rate"

    def test_unknown_model_lists_known(self):
        with pytest.raises(Exception, match="unknown model"):
            get_model("does-not-exist")

    def test_param_schema_exposed(self):
        schema = get_model("signature").param_schema
        assert {"alpha", "beta", "gamma", "delta", "threshold", "delta_mode"} == {
            p.name for p in schema
        }


class TestFittedModelRoundTrip:
    def test_dict_round_trip_every_builtin(self):
        samples = signature_samples()
        cluster = None
        for name in DEFAULT_MODELS:
            try:
                fitted = get_model(name).fit(
                    samples, hockney=HOCKNEY, cluster=cluster
                )
            except FittingError:
                continue
            data = fitted.to_dict()
            rebuilt = FittedModel.from_dict(data)
            assert rebuilt == fitted
            # Bit-exact params and identical predictions.
            assert rebuilt.params == fitted.params
            assert float(rebuilt.predict(12, 100_000)) == float(
                fitted.predict(12, 100_000)
            )

    def test_from_dict_resolves_aliases(self):
        fitted = FittedModel.from_dict(
            {"model": "naive", "params": {"alpha": 1e-5, "beta": 1e-9}}
        )
        assert fitted.model == "hockney"

    def test_validate_rejects_unknown_and_missing(self):
        with pytest.raises(FittingError, match="unknown param"):
            FittedModel(model="hockney", params={"alpha": 1e-5, "beta": 1e-9, "x": 1})
        with pytest.raises(FittingError, match="missing"):
            FittedModel(model="hockney", params={"alpha": 1e-5})

    def test_validate_rejects_non_finite(self):
        with pytest.raises(FittingError, match="finite"):
            FittedModel(
                model="hockney", params={"alpha": float("nan"), "beta": 1e-9}
            )

    def test_from_dict_rejects_junk(self):
        with pytest.raises(FittingError):
            FittedModel.from_dict({"params": {}})
        with pytest.raises(FittingError):
            FittedModel.from_dict({"model": "hockney", "extra": 1})


class TestPortedBuiltinsBitIdentical:
    """The ported models must reproduce the legacy fits exactly."""

    def test_signature_port_matches_fit_signature(self):
        samples = signature_samples(noise=0.05)
        legacy = fit_signature(samples, HOCKNEY).signature
        ported = get_model("signature").fit(samples, hockney=HOCKNEY)
        assert ported.params["gamma"] == legacy.gamma
        assert ported.params["delta"] == legacy.delta
        assert ported.params["threshold"] == legacy.threshold
        assert ported.params["alpha"] == legacy.hockney.alpha
        assert ported.params["beta"] == legacy.hockney.beta
        # And identical predictions, bit for bit, scalar and vector.
        n = np.array([4.0, 12.0, 40.0])
        m = np.array([1_024.0, 65_536.0, 1_048_576.0])
        np.testing.assert_array_equal(ported.predict(n, m), legacy.predict(n, m))
        assert float(ported.predict(24, 262_144)) == float(
            legacy.predict(24, 262_144)
        )

    def test_signature_fit_options_pass_through(self):
        samples = signature_samples(noise=0.05)
        legacy = fit_signature(samples, HOCKNEY, delta_mode="global").signature
        ported = get_model("signature").fit(
            samples, hockney=HOCKNEY, delta_mode="global"
        )
        assert ported.params["delta_mode"] == "global"
        assert ported.params["gamma"] == legacy.gamma

    def test_hockney_port_adopts_pingpong_params_verbatim(self):
        samples = signature_samples()
        ported = get_model("hockney").fit(samples, hockney=HOCKNEY)
        assert ported.params["alpha"] == HOCKNEY.alpha
        assert ported.params["beta"] == HOCKNEY.beta
        # eq. 1 exactly: the Proposition-1 bound.
        assert float(ported.predict(8, 4_096)) == float(
            SIGNATURE.lower_bound(8, 4_096)
        )

    def test_hockney_regression_without_context(self):
        h = HockneyParams(alpha=2e-4, beta=3e-8)
        samples = [
            AlltoallSample(n, m, float((n - 1) * (h.alpha + m * h.beta)))
            for n in (4, 8) for m in (1_024, 32_768, 262_144)
        ]
        fitted = get_model("hockney").fit(samples)
        assert fitted.params["alpha"] == pytest.approx(h.alpha, rel=1e-6)
        assert fitted.params["beta"] == pytest.approx(h.beta, rel=1e-6)


class TestHockneySignatureDictRoundTrip:
    def test_hockney_params_round_trip(self):
        rebuilt = HockneyParams.from_dict(HOCKNEY.to_dict())
        assert rebuilt == HOCKNEY

    def test_hockney_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            HockneyParams.from_dict({"alpha": 1e-5, "beta": 1e-9, "gamma": 2})
        with pytest.raises(ValueError, match="missing"):
            HockneyParams.from_dict({"alpha": 1e-5})

    def test_contention_signature_round_trip(self):
        rebuilt = ContentionSignature.from_dict(SIGNATURE.to_dict())
        assert rebuilt == SIGNATURE
        assert float(rebuilt.predict(40, 1_048_576)) == float(
            SIGNATURE.predict(40, 1_048_576)
        )

    def test_contention_signature_rejects_unknown(self):
        data = SIGNATURE.to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            ContentionSignature.from_dict(data)


class TestLogGP:
    def test_exact_recovery(self):
        L, o, G = 3e-4, 2e-5, 4e-8
        samples = [
            AlltoallSample(n, m, L + (n - 1) * (o + m * G))
            for n in (4, 8, 16) for m in (2_048, 65_536, 524_288)
        ]
        fitted = get_model("loggp").fit(samples)
        assert fitted.params["latency"] == pytest.approx(L, rel=1e-5)
        assert fitted.params["overhead"] == pytest.approx(o, rel=1e-5)
        assert fitted.params["gap"] == pytest.approx(G, rel=1e-5)

    def test_single_n_unfittable(self):
        samples = [
            AlltoallSample(8, m, 1e-3 + m * 1e-8)
            for m in (1_024, 8_192, 65_536, 524_288)
        ]
        with pytest.raises(FittingError, match=">= 2 process counts"):
            get_model("loggp").fit(samples)

    def test_predict_med_uniform_matches_grid(self):
        fitted = FittedModel(
            model="loggp",
            params={"latency": 1e-4, "overhead": 2e-5, "gap": 3e-8},
        )
        med = MED.alltoall(6, 10_000)
        assert fitted.predict_med(med) == pytest.approx(
            float(fitted.predict(6, 10_000))
        )


class TestMaxRate:
    def test_fabric_rates_gige(self, gige_cluster):
        nic, capacity = fabric_rates(gige_cluster, 8)
        assert nic == pytest.approx(117.6e6)
        assert capacity == pytest.approx(1_200e6)

    def test_fabric_rates_trunks_counted_per_direction(self, fe_cluster):
        # One edge switch cabled to the core: one full-duplex trunk
        # (two directed links) must count once, not twice.
        nic, capacity = fabric_rates(fe_cluster, 8)
        assert nic == pytest.approx(12.2e6)
        assert capacity == pytest.approx(117.0e6)

    def test_capacity_bottleneck_kinks_predictions(self):
        params = {"alpha": 1e-4, "kappa": 1.0, "rate": 1e8, "capacity": 1e9}
        fitted = FittedModel(model="max-rate", params=params)
        m = 1_000_000
        below = float(fitted.predict(8, m))  # 8/1e9 < 1/1e8: NIC-bound
        above = float(fitted.predict(20, m))  # 20/1e9 > 1/1e8: fabric-bound
        nic_only = FittedModel(
            model="max-rate",
            params={**params, "capacity": 0.0},
        )
        assert below == pytest.approx(float(nic_only.predict(8, m)))
        assert above > float(nic_only.predict(20, m))

    def test_fit_uses_cluster_topology(self, gige_cluster):
        samples = signature_samples(nprocs=(4, 8, 16))
        fitted = get_model("max-rate").fit(samples, cluster=gige_cluster)
        assert fitted.params["rate"] == pytest.approx(117.6e6)
        assert fitted.params["capacity"] == pytest.approx(1_200e6)
        assert fitted.params["kappa"] > 0

    def test_fit_without_any_rate_context_fails(self):
        with pytest.raises(FittingError, match="max-rate needs"):
            get_model("max-rate").fit(signature_samples())

    def test_hockney_fallback_rate(self):
        fitted = get_model("max-rate").fit(signature_samples(), hockney=HOCKNEY)
        assert fitted.params["rate"] == pytest.approx(HOCKNEY.bandwidth)
        assert fitted.params["capacity"] == 0.0


class TestKnee:
    def test_requires_three_process_counts(self):
        samples = signature_samples(nprocs=(4, 8))
        with pytest.raises(FittingError, match=">= 3 process counts"):
            get_model("knee").fit(samples, hockney=HOCKNEY)

    def test_requires_hockney(self):
        with pytest.raises(FittingError, match="hockney"):
            get_model("knee").fit(signature_samples())

    def test_ramp_recovers_saturation_shape(self):
        # Data generated from a ramped signature: small n behave
        # contention-free, large n fully saturated.
        from repro.core import SaturatedSignature, SaturationRamp

        truth = SaturatedSignature(
            base=SIGNATURE, ramp=SaturationRamp(n_free=2, n_sat=12, power=1.0)
        )
        samples = [
            AlltoallSample(n, m, float(truth.predict(n, m)))
            for n in (4, 6, 8, 12, 16)
            for m in (2_048, 65_536, 262_144, 1_048_576)
        ]
        fitted = get_model("knee").fit(samples, hockney=HOCKNEY)
        assert 2.0 < fitted.params["n_sat"] <= 16.0
        # The ramped model must beat the plain signature on these samples.
        plain = get_model("signature").fit(samples, hockney=HOCKNEY)
        assert score_fit(fitted, samples).mape < score_fit(plain, samples).mape

    def test_predict_med_uniform_consistent(self):
        samples = signature_samples(nprocs=(4, 8, 16), noise=0.02)
        fitted = get_model("knee").fit(samples, hockney=HOCKNEY)
        med = MED.alltoall(8, 65_536)
        grid = float(fitted.predict(8, 65_536))
        assert fitted.predict_med(med) == pytest.approx(grid, rel=0.05)


class TestPredictMed:
    def test_hockney_med_is_combined_bound(self):
        fitted = get_model("hockney").fit(signature_samples(), hockney=HOCKNEY)
        med = MED.from_matrix([[0, 100, 0], [0, 0, 200], [50, 0, 0]])
        assert fitted.predict_med(med) == pytest.approx(
            combined_lower_bound(med, HOCKNEY)
        )

    def test_signature_med_delegates(self):
        fitted = get_model("signature").fit(
            signature_samples(noise=0.02), hockney=HOCKNEY
        )
        sig = get_model("signature").signature(fitted.params)
        med = MED.alltoall(6, 32_768)
        assert fitted.predict_med(med) == pytest.approx(sig.predict_med(med))

    def test_empty_exchange_predicts_zero(self):
        med = MED(4)  # no arcs at all
        for name, params in (
            ("hockney", {"alpha": 1e-5, "beta": 1e-9}),
            ("loggp", {"latency": 1e-4, "overhead": 1e-5, "gap": 1e-9}),
            ("max-rate", {"alpha": 1e-5, "kappa": 1.0, "rate": 1e8,
                          "capacity": 0.0}),
        ):
            fitted = FittedModel(model=name, params=params)
            assert fitted.predict_med(med) == 0.0


class TestSelection:
    def test_comparison_ranks_signature_above_hockney(self):
        samples = signature_samples(noise=0.03)
        comp = compare_models(samples, hockney=HOCKNEY)
        ranking = comp.ranking
        assert ranking.index("signature") < ranking.index("hockney")
        assert comp.best.model == ranking[0]
        report = comp.report("signature")
        assert report.cv_mape is not None
        assert report.cv_mape < comp.report("hockney").cv_mape

    def test_comparison_is_deterministic(self):
        samples = signature_samples(noise=0.03)
        a = compare_models(samples, hockney=HOCKNEY)
        b = compare_models(samples, hockney=HOCKNEY)
        assert a.ranking == b.ranking
        for ra, rb in zip(a.reports, b.reports):
            assert ra.cv_mape == rb.cv_mape
            assert ra.lono_mape == rb.lono_mape
            if ra.fitted is not None:
                assert ra.fitted.params == rb.fitted.params

    def test_unfittable_model_ranked_last_with_error(self):
        samples = signature_samples(nprocs=(8,))  # single n: loggp unfittable
        comp = compare_models(
            samples, ("hockney", "loggp"), hockney=HOCKNEY
        )
        assert comp.ranking == ["hockney", "loggp"]
        report = comp.report("loggp")
        assert not report.ok
        assert "process counts" in report.error
        assert "unfittable" in comp.render()

    def test_ranking_never_mixes_cv_and_in_sample(self):
        # 4 samples: hockney (no refit) cross-validates, signature's
        # 3-sample training folds all fail.  The ranking must fall back
        # to in-sample MAPE for *everyone*, not hand signature a win by
        # comparing its optimistic in-sample score against hockney's CV.
        samples = signature_samples(nprocs=(8,), sizes=(2_048, 8_192,
                                                        65_536, 524_288))
        comp = compare_models(samples, ("hockney", "signature"),
                              hockney=HOCKNEY)
        assert comp.report("signature").cv_mape is None
        assert comp.report("hockney").cv_mape is not None
        assert comp.ranked_by == "mape"
        assert "(by mape)" in comp.render()
        # With enough samples every fitted model cross-validates.
        full = compare_models(
            signature_samples(noise=0.02), ("hockney", "signature"),
            hockney=HOCKNEY,
        )
        assert full.ranked_by == "cv-mape"

    def test_alias_plus_canonical_deduplicated(self):
        # Same policy as SweepSpec.models: one model, fitted once.
        comp = compare_models(
            signature_samples(), ("hockney", "naive"), hockney=HOCKNEY
        )
        assert comp.ranking == ["hockney"]

    def test_empty_samples_rejected(self):
        with pytest.raises(FittingError, match="no samples"):
            compare_models([], hockney=HOCKNEY)

    def test_render_and_to_dict(self):
        samples = signature_samples(noise=0.03)
        comp = compare_models(samples, ("hockney", "signature"), hockney=HOCKNEY)
        text = comp.render()
        assert "ranking: signature > hockney" in text
        data = comp.to_dict()
        assert data["ranking"] == ["signature", "hockney"]
        assert data["reports"][0]["model"] == "signature"
        assert np.isfinite(
            list(data["reports"][0]["params"].values())[0]
        )

    def test_kfold_deterministic_and_bounded(self):
        samples = signature_samples(noise=0.03)
        a = kfold_errors("signature", samples, k=4, hockney=HOCKNEY)
        b = kfold_errors("signature", samples, k=4, hockney=HOCKNEY)
        assert a == b
        assert a is not None and a[0] >= 0

    def test_kfold_too_few_samples_returns_none(self):
        samples = signature_samples(nprocs=(4,), sizes=(2_048,))
        assert kfold_errors("hockney", samples, k=4, hockney=HOCKNEY) is None

    def test_leave_one_n_out_single_n_returns_none(self):
        samples = signature_samples(nprocs=(8,))
        assert leave_one_n_out_errors("hockney", samples, hockney=HOCKNEY) is None

    def test_leave_one_n_out_scores_extrapolation(self):
        samples = signature_samples(noise=0.02)
        lono = leave_one_n_out_errors("signature", samples, hockney=HOCKNEY)
        assert lono is not None and 0 <= lono < 50


class TestSamplesFromRows:
    def test_typed_rows_convert(self):
        rows = [
            {"cluster": "x", "n_processes": 4, "msg_size": 2048,
             "mean_time": 0.01, "std_time": 0.001, "reps": 2,
             "pattern": "uniform", "error": ""},
            {"cluster": "x", "n_processes": 8, "msg_size": 2048,
             "mean_time": 0.02, "std_time": "", "reps": 2,
             "pattern": "", "error": None},
        ]
        samples = samples_from_rows(rows)
        assert [s.n_processes for s in samples] == [4, 8]
        assert samples[1].std_time == 0.0

    def test_error_and_pattern_rows_skipped(self):
        rows = [
            {"n_processes": 4, "msg_size": 1024, "mean_time": 0.01,
             "error": "boom"},
            {"n_processes": 4, "msg_size": 1024, "mean_time": 0.01,
             "pattern": "hotspot(factor=8)"},
            {"n_processes": 4, "msg_size": 1024, "mean_time": ""},
            {"n_processes": 4, "msg_size": 1024, "mean_time": 0.01},
        ]
        assert len(samples_from_rows(rows)) == 1

    def test_multi_cluster_rows_rejected(self):
        rows = [
            {"cluster": "a", "n_processes": 4, "msg_size": 1024,
             "mean_time": 0.01},
            {"cluster": "b", "n_processes": 4, "msg_size": 1024,
             "mean_time": 0.01},
        ]
        with pytest.raises(FittingError, match="several clusters"):
            samples_from_rows(rows)
        assert len(samples_from_rows(rows, cluster="a")) == 1

    def test_non_finite_mean_time_rows_skipped(self):
        rows = [
            {"n_processes": 4, "msg_size": 1024, "mean_time": float("nan")},
            {"n_processes": 4, "msg_size": 1024, "mean_time": float("inf")},
            {"n_processes": 4, "msg_size": 1024, "mean_time": 0.01,
             "std_time": float("nan")},
        ]
        samples = samples_from_rows(rows)
        assert len(samples) == 1  # one poisoned cell never kills the set
        assert samples[0].std_time == 0.0

    def test_malformed_row_raises(self):
        with pytest.raises(FittingError, match="malformed"):
            samples_from_rows(
                [{"n_processes": "four", "msg_size": 1024, "mean_time": 0.01}]
            )


class TestScenarioIntegration:
    def test_scenario_spec_model_field_round_trips(self):
        from repro.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {"name": "zoo", "base": "myrinet", "model": "LogGP"}
        )
        assert spec.model == "loggp"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert 'model = "loggp"' in spec.to_toml()
        # The default model is omitted from serialized forms.
        default = ScenarioSpec.from_dict({"name": "d", "base": "myrinet"})
        assert default.model == "signature"
        assert "model" not in default.to_dict()

    def test_scenario_spec_unknown_model_rejected(self):
        from repro.scenario import ScenarioSpec

        with pytest.raises(ScenarioError, match="unknown model"):
            ScenarioSpec.from_dict(
                {"name": "zoo", "base": "myrinet", "model": "nope"}
            )

    def test_model_field_does_not_change_cache_payload(self):
        from repro.scenario import ScenarioSpec

        a = ScenarioSpec.from_dict({"name": "zoo", "base": "myrinet"})
        b = ScenarioSpec.from_dict(
            {"name": "zoo", "base": "myrinet", "model": "loggp"}
        )
        assert a.cache_payload() == b.cache_payload()

    def test_scenario_fit_and_compare(self):
        from repro.api import Scenario

        sc = Scenario.from_name(
            "myrinet", nprocs=(4, 6), sizes=(2_048, 32_768, 262_144), reps=1
        )
        fitted = sc.fit_model()  # the spec default: signature
        assert fitted.model == "signature"
        assert np.isfinite(fitted.params["gamma"])
        comp = sc.compare_models(("hockney", "signature"))
        assert comp.ranking.index("signature") < comp.ranking.index("hockney")
        assert comp.cluster == "myrinet"
        # Grid samples are measured once and reused across fits.
        assert sc.grid_samples() is sc.grid_samples()

    def test_scenario_fit_model_override_and_rows(self):
        from repro.api import Scenario

        sc = Scenario.from_name("myrinet")
        samples = signature_samples(noise=0.02)
        fitted = sc.fit_model("loggp", samples=samples)
        assert fitted.model == "loggp"
        # Offline fits run under the fabric's ping-pong context, whatever
        # the models: Hockney reports the ping-pong's α/β, not the rows'.
        pingpong = sc.hockney()
        comp = sc.compare_models(("hockney", "loggp", "max-rate"), samples=samples)
        assert set(comp.ranking) == {"hockney", "loggp", "max-rate"}
        expected = {"alpha": pingpong.alpha, "beta": pingpong.beta}
        assert comp.report("hockney").fitted.params == expected
        assert sc.fit_model("hockney", samples=samples).params == expected
        assert sc.fit_model("signature", samples=samples).params["alpha"] == (
            pingpong.alpha
        )

    def test_offline_fit_is_order_independent(self):
        # A warm instance (ping-pong already measured) and a fresh one
        # fit the same rows alike: both under the fabric's ping-pong
        # α/β, never α/β regressed from the rows (here 2e-4 s, 4e-8 s/B).
        from repro.api import Scenario

        h = HockneyParams(alpha=2e-4, beta=4e-8)
        rows = [
            AlltoallSample(n, m, float((n - 1) * (h.alpha + m * h.beta)))
            for n in (4, 8) for m in (1_024, 32_768, 262_144)
        ]
        fresh = Scenario.from_name("fast-ethernet").fit_model(
            "hockney", samples=rows
        )
        warm_sc = Scenario.from_name("fast-ethernet")
        pingpong = warm_sc.hockney()
        warm = warm_sc.fit_model("hockney", samples=rows)
        assert warm.params == fresh.params == {
            "alpha": pingpong.alpha, "beta": pingpong.beta,
        }
        assert fresh.params["alpha"] != pytest.approx(h.alpha, rel=0.01)


def _myrinet_sweep(*placements):
    """A finished Myrinet flag sweep: n in {4, 6}, two sizes, one rep."""
    from repro.sweeps import SweepRunner, SweepSpec

    spec = SweepSpec(
        clusters=("myrinet",), nprocs=(4, 6), sizes=(2_048, 32_768), reps=1,
        placements=placements or (None,),
    )
    return SweepRunner(workers=1).run(spec)


def _hockney_line(out: str) -> str:
    """The params of the ``hockney`` row of a rendered comparison."""
    line = next(line for line in out.splitlines() if line.startswith("hockney "))
    return line[line.index("("):]


@pytest.fixture(scope="module")
def myrinet_sweep():
    return _myrinet_sweep()


class TestSweepIntegration:
    def test_compare_for_sweep_canonicalises_models(self, myrinet_sweep):
        comp = compare_for_sweep(
            myrinet_sweep, ("Contention_Signature", "naive")
        )["myrinet"]
        assert sorted(comp.ranking) == ["hockney", "signature"]

    def test_compare_for_sweep_deduplicates_models(self, myrinet_sweep):
        # An alias plus its canonical name is one model, not a
        # post-sweep comparison crash.
        comp = compare_for_sweep(
            myrinet_sweep, ("hockney", "naive", "signature")
        )["myrinet"]
        assert sorted(comp.ranking) == ["hockney", "signature"]

    def test_compare_for_sweep_unknown_model_rejected(self, myrinet_sweep):
        from repro.exceptions import UnknownNameError

        with pytest.raises(UnknownNameError, match="unknown model 'bogus'"):
            compare_for_sweep(myrinet_sweep, ("bogus",))

    def test_models_flag_is_not_an_axis(self, capsys, tmp_path):
        # --models never changes which points run or their cache keys:
        # the same grid with it reads every point from the first run.
        from repro.cli import main

        argv = [
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB,32kB", "--reps", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--models", "hockney"]) == 0
        out = capsys.readouterr().out
        assert "simulated : 0" in out and "cached    : 2" in out
        assert "model comparison — myrinet:" in out

    def test_compare_for_sweep_fits_under_the_pingpong(self, myrinet_sweep):
        from repro.clusters.profiles import get_cluster
        from repro.measure.pingpong import hockney_from_pingpong, measure_pingpong

        comp = compare_for_sweep(
            myrinet_sweep, ("hockney", "signature")
        )["myrinet"]
        assert isinstance(comp, ModelComparison)
        assert comp.ranking.index("signature") < comp.ranking.index("hockney")
        # eq. 1 keeps the ping-pong's α/β (3 reps at the grid's seed).
        pingpong = hockney_from_pingpong(
            measure_pingpong(get_cluster("myrinet"), reps=3, seed=0)
        ).params
        assert comp.report("hockney").fitted.params == {
            "alpha": pingpong.alpha, "beta": pingpong.beta,
        }

    def test_compare_for_sweep_fits_identity_points_only(self):
        # On a uniform exchange a placed point repeats an identity
        # point; fitting both would count each sample twice.
        result = _myrinet_sweep(
            None, {"name": "round-robin", "params": {"groups": 2}}
        )
        assert result.n_points == 8
        comp = compare_for_sweep(result, ("hockney",))["myrinet"]
        assert comp.n_samples == 4

    def test_scenario_sweep_with_models_flag(self, capsys, tmp_path):
        # --models ranks cost models on the finished sweep, never adds
        # an axis, so it composes with --scenario sweeps (under the
        # scenario's own profile/ping-pong context).
        from repro.api import Scenario
        from repro.cli import main
        from repro.scenario import ScenarioSpec

        path = tmp_path / "sc.toml"
        ScenarioSpec.from_dict({
            "name": "zoo-sweep", "base": "myrinet",
            "workload": {"nprocs": [4, 6], "sizes": [2048, 32768],
                         "reps": 1},
        }).save(path)
        assert main([
            "sweep", "--scenario", str(path), "--no-cache",
            "--models", "hockney,signature",
        ]) == 0
        out = capsys.readouterr().out
        assert "model comparison — zoo-sweep:" in out
        ranking = next(
            line for line in out.splitlines() if line.startswith("ranking:")
        )
        assert ranking.index("signature") < ranking.index("hockney")
        # Hockney alone fits under the same ping-pong context: its α/β
        # do not depend on which other models are compared.
        assert main([
            "sweep", "--scenario", str(path), "--no-cache",
            "--models", "hockney",
        ]) == 0
        alone = capsys.readouterr().out
        hockney = Scenario.from_file(path).hockney()
        expected = f"(alpha={hockney.alpha:.4g}, beta={hockney.beta:.4g})"
        assert _hockney_line(alone) == _hockney_line(out) == expected

    def test_models_hook_on_pattern_sweep_warns_not_crashes(self, capsys):
        # A pure-irregular sweep has no uniform samples to fit on; the
        # CLI must say so instead of silently dropping the flag.
        from repro.cli import main

        assert main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB", "--reps", "1", "--no-cache",
            "--pattern", "permutation", "--models", "hockney",
        ]) == 0
        captured = capsys.readouterr()
        assert "model comparison skipped" in captured.err
        assert "model comparison —" not in captured.out


class TestCli:
    def test_list_models(self, capsys):
        from repro.cli import main

        assert main(["list", "models"]) == 0
        out = capsys.readouterr().out
        for name in ("hockney", "signature", "loggp", "max-rate", "knee"):
            assert name in out

    def test_compare_models_edge_core_ranks_signature_above_hockney(
        self, capsys, tmp_path
    ):
        # The acceptance grid: fast-ethernet is the edge-core fabric.
        from repro.cli import main
        from repro.sweeps import configure_default_runner

        argv = [
            "compare-models", "fast-ethernet",
            "--nprocs", "4,6", "--sizes", "2kB,8kB,32kB,131072",
            "--reps", "1", "--models", "hockney,signature,loggp",
        ]
        runner = configure_default_runner(cache_dir=tmp_path)
        try:
            assert main(argv) == 0
            out = capsys.readouterr().out
            # A rerun served from the cache reports the same, byte for byte.
            assert main(argv) == 0
            assert capsys.readouterr().out == out
            assert runner.cache.hits == 8
        finally:
            configure_default_runner()
        ranking = next(
            line for line in out.splitlines() if line.startswith("ranking:")
        )
        assert ranking.index("signature") < ranking.index("hockney")
        assert "best      : " in out

    @pytest.mark.parametrize("argv", [
        ["myrinet", "--model", "loggp",
         "--nprocs", "4,6", "--sizes", "2kB,32kB,262144", "--reps", "1"],
        ["examples/scenarios/loggp_myrinet_zoo.toml"],
    ], ids=["flags", "scenario"])
    def test_fit_named_model(self, capsys, argv):
        from repro.cli import main

        assert main(["fit", *argv]) == 0
        out = capsys.readouterr().out
        assert "model     : loggp" in out
        assert "gap" in out
        assert "in-sample : mape=" in out

    def test_fit_unknown_model_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fit", "myrinet", "--model", "bogus"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_fit_unknown_cluster_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fit", "not-a-cluster"]) == 2
        assert "unknown cluster" in capsys.readouterr().err

    def test_compare_models_from_rows(self, capsys, tmp_path):
        from repro.analysis.io import write_csv
        from repro.cli import main
        from repro.exec.sinks import ROW_FIELDS

        # A multi-cluster sweep file: only the target's rows are fitted.
        rows = [
            {
                "cluster": cluster, "algorithm": "direct",
                "pattern": "uniform", "n_processes": s.n_processes,
                "msg_size": s.msg_size, "seed": 0, "reps": s.reps,
                "mean_time": s.mean_time, "std_time": s.std_time,
                "cached": 0, "error": "",
            }
            for cluster in ("gigabit-ethernet", "myrinet")
            for s in signature_samples(noise=0.02)
        ]
        path = tmp_path / "sweep.csv"
        write_csv(path, ROW_FIELDS, rows)
        assert main([
            "compare-models", "gigabit-ethernet",
            "--from-rows", str(path),
            "--models", "hockney,signature",
        ]) == 0
        out = capsys.readouterr().out
        assert "ranking: signature > hockney" in out
        assert "over 12 samples" in out  # half the file: one cluster

    def test_from_rows_fits_under_the_pingpong(self, capsys, tmp_path):
        # Offline fits take α/β from the fabric's ping-pong, whichever
        # models are compared or fitted: never regressed from the rows.
        from repro.analysis.io import write_csv
        from repro.api import Scenario
        from repro.cli import main
        from repro.exec.sinks import ROW_FIELDS

        rows = [
            {
                "cluster": "myrinet", "algorithm": "direct",
                "pattern": "uniform", "n_processes": s.n_processes,
                "msg_size": s.msg_size, "seed": 0, "reps": s.reps,
                "mean_time": s.mean_time, "std_time": s.std_time,
                "cached": 0, "error": "",
            }
            for s in signature_samples(noise=0.02)
        ]
        path = tmp_path / "sweep.csv"
        write_csv(path, ROW_FIELDS, rows)
        lines = []
        for models in ("hockney", "hockney,signature"):
            assert main([
                "compare-models", "myrinet", "--from-rows", str(path),
                "--models", models,
            ]) == 0
            lines.append(_hockney_line(capsys.readouterr().out))
        hockney = Scenario.from_name("myrinet").hockney()
        assert lines == [
            f"(alpha={hockney.alpha:.4g}, beta={hockney.beta:.4g})"
        ] * 2
        assert main([
            "fit", "myrinet", "--from-rows", str(path), "--model", "hockney",
        ]) == 0
        assert f"alpha = {hockney.alpha:.6g} s" in capsys.readouterr().out

    def test_from_rows_wrong_cluster_rejected(self, capsys, tmp_path):
        # A file measured on a different cluster must not silently fit
        # under this target's ping-pong/topology context.
        from repro.analysis.io import write_csv
        from repro.cli import main
        from repro.exec.sinks import ROW_FIELDS

        rows = [
            {
                "cluster": "gigabit-ethernet", "algorithm": "direct",
                "pattern": "uniform", "n_processes": s.n_processes,
                "msg_size": s.msg_size, "seed": 0, "reps": s.reps,
                "mean_time": s.mean_time, "std_time": s.std_time,
                "cached": 0, "error": "",
            }
            for s in signature_samples()
        ]
        path = tmp_path / "sweep.csv"
        write_csv(path, ROW_FIELDS, rows)
        assert main([
            "compare-models", "myrinet", "--from-rows", str(path),
        ]) == 1
        err = capsys.readouterr().err
        assert "no usable" in err and "myrinet" in err

    def test_compare_models_json_report(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_path = tmp_path / "report.json"
        assert main([
            "compare-models", "myrinet",
            "--nprocs", "4,6", "--sizes", "2kB,32kB,262144", "--reps", "1",
            "--models", "hockney,signature", "--json", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert set(data["ranking"]) == {"hockney", "signature"}

    def test_compare_models_all_unfittable_exits_1(self, capsys, tmp_path):
        # One usable row: every model is unfittable; a comparison that
        # produced zero fits must not exit 0 over a name-order ranking.
        from repro.analysis.io import write_csv
        from repro.cli import main
        from repro.exec.sinks import ROW_FIELDS

        rows = [{
            "cluster": "myrinet", "algorithm": "direct",
            "pattern": "uniform", "n_processes": 4, "msg_size": 2_048,
            "seed": 0, "reps": 1, "mean_time": 0.001, "std_time": 0.0,
            "cached": 0, "error": "",
        }]
        path = tmp_path / "one.csv"
        write_csv(path, ROW_FIELDS, rows)
        assert main([
            "compare-models", "myrinet", "--from-rows", str(path),
            "--models", "loggp,knee",
        ]) == 1
        captured = capsys.readouterr()
        assert "unfittable" in captured.out
        assert "no model could be fitted" in captured.err

    def test_from_rows_missing_file_exits_2(self, capsys):
        from repro.cli import main

        assert main([
            "compare-models", "myrinet", "--from-rows", "/nonexistent.csv",
        ]) == 2

    def test_scenario_file_rejects_workload_flags(self, capsys, tmp_path):
        from repro.cli import main
        from repro.scenario import ScenarioSpec

        path = tmp_path / "sc.toml"
        ScenarioSpec.from_dict({"name": "s", "base": "myrinet"}).save(path)
        assert main(["fit", str(path), "--nprocs", "4,8"]) == 2
        assert "its own workload" in capsys.readouterr().err
