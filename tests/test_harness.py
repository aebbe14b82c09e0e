import dataclasses

import numpy as np
import pytest

import oracles
from adaptrd import estimator

from adaptrd.adaptation import (
    FixedThreshold,
    NntTargetThreshold,
    NoModelUpdate,
    RateTargetThreshold,
    RecalibrateModel,
)
from adaptrd.errors import AdaptRdError, ConfigError, NonConvergenceError
from adaptrd.estimator import COMPARATOR_PREDICTORS, EstimatorConfig, fit_outcome_surface
from adaptrd.harness import (
    METHODS,
    ScenarioConfig,
    evaluate_at_final_threshold,
    run_replications,
    run_scenario,
    scenario_preset,
)
from adaptrd.numerics import GAUSSIAN, LOGIT, fit_glm
from adaptrd.outcomes import AscvdParams, OutcomeModel, draw_noise, outcomes_from_noise
from adaptrd.seeds import SeedStream
from oracles import aipw_ate_reference, ipw_ate_reference, outcome_regression_ate_reference
from tables import concat


def small_preset(sid, seed=9, n=700, **overrides):
    return scenario_preset(sid, seed=seed, n_patients=n, **overrides)


class TestConfigValidation:
    def test_scenario_outcome_mismatch(self):
        with pytest.raises(ConfigError, match="attendance"):
            ScenarioConfig(
                scenario_id=1,
                outcome=OutcomeModel("cholesterol"),
                threshold_strategy=RateTargetThreshold(0.3),
                model_strategy=NoModelUpdate(),
                estimator=EstimatorConfig(family=GAUSSIAN),
            )

    def test_family_outcome_consistency(self):
        with pytest.raises(ConfigError, match="bernoulli"):
            ScenarioConfig(
                scenario_id=1,
                outcome=OutcomeModel("attendance"),
                threshold_strategy=RateTargetThreshold(0.3),
                model_strategy=NoModelUpdate(),
                estimator=EstimatorConfig(family=GAUSSIAN),
            )

    def test_degenerate_strategies_always_allowed(self):
        cfg = ScenarioConfig(
            scenario_id=2,
            outcome=OutcomeModel("cholesterol"),
            threshold_strategy=FixedThreshold(0.1),
            model_strategy=NoModelUpdate(),
            estimator=EstimatorConfig(family=GAUSSIAN),
            n_patients=500,
        )
        assert cfg.scenario_id == 2

    def test_wrong_adaptive_strategy_rejected(self):
        with pytest.raises(ConfigError, match="threshold strategy"):
            ScenarioConfig(
                scenario_id=1,
                outcome=OutcomeModel("attendance"),
                threshold_strategy=NntTargetThreshold(3.0),
                model_strategy=NoModelUpdate(),
                estimator=EstimatorConfig(family=LOGIT),
            )

    def test_warmup_bounds(self):
        with pytest.raises(ConfigError, match="warmup"):
            scenario_preset(1, n_patients=300, warmup=400)

    def test_invalid_scenario_id(self):
        with pytest.raises(ConfigError, match="scenario id"):
            scenario_preset(9)


class TestRunScenario:
    def test_static_strategies_single_version_constant_threshold(self):
        cfg = ScenarioConfig(
            scenario_id=2,
            outcome=OutcomeModel("cholesterol"),
            threshold_strategy=FixedThreshold(0.1),
            model_strategy=NoModelUpdate(),
            estimator=EstimatorConfig(family=GAUSSIAN),
            n_patients=500,
            seed=4,
        )
        trial = run_scenario(cfg)
        assert np.all(trial.threshold == 0.1)
        assert len(trial.history.models) == 1
        assert trial.matrix.n_distinct == 1
        assert trial.events == []

    def test_same_seed_reproduces_trial_exactly(self):
        cfg = small_preset(1)
        t1, t2 = run_scenario(cfg), run_scenario(cfg)
        for field in ("raw_risk", "shifted_risk", "treatment", "outcome",
                      "baseline_risk", "threshold", "model_version"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field)), field
        assert t1.events == t2.events

    def test_treatment_matches_assignment_rule(self):
        trial = run_scenario(small_preset(1))
        assert np.array_equal(trial.treatment, (trial.shifted_risk >= 0).astype(int))
        assert np.allclose(trial.shifted_risk, trial.raw_risk - trial.threshold)

    def test_warmup_discipline_and_cadence(self):
        trial = run_scenario(small_preset(1, n=700))
        indices = sorted({e.index for e in trial.events})
        assert all(i >= 400 for i in indices)
        assert all((i - 400) % 100 == 0 for i in indices)
        assert indices == [400, 500, 600]

    def test_no_retroactivity(self):
        # records at or before an update index keep the threshold they saw
        trial = run_scenario(small_preset(1, n=700))
        updates = [e for e in trial.events if e.kind == "threshold_update"]
        assert updates
        ev = updates[0]
        assert np.all(trial.threshold[: ev.index] == ev.old)
        assert trial.threshold[ev.index] == ev.new

    def test_dgp_stationarity_replay(self):
        cfg = small_preset(4, n=900)
        trial = run_scenario(cfg)
        noise = draw_noise(cfg.outcome, SeedStream(cfg.seed).child(1), cfg.n_patients)
        replay = outcomes_from_noise(cfg.outcome, trial.baseline_risk, trial.treatment, noise)
        assert np.array_equal(replay, trial.outcome)

    def test_scenario1_rate_targeting(self):
        cfg = scenario_preset(1, seed=3)
        trial = run_scenario(cfg)
        assert abs(np.mean(trial.treatment[-1000:]) - 0.30) < 0.05

    def test_scenario1_mu_curves_track_truth(self):
        # estimated arm-mean curves stay close to the kernel-smoothed true
        # conditional means wherever both arms have kernel support
        from adaptrd.estimator import default_grid, effect_curve, fit_outcome_surface
        from adaptrd.outcomes import true_smoothed_arm_mean

        cfg = scenario_preset(1, seed=0)
        trial = run_scenario(cfg, SeedStream(0, (1,)))
        surface = fit_outcome_surface(trial.matrix, trial.treatment, trial.outcome, cfg.estimator)
        grid = default_grid(trial.matrix.focal_shifted, 41)
        curve = effect_curve(surface, trial.matrix, grid, cfg.estimator)
        focal = trial.matrix.focal_shifted
        errs = []
        for e in curve.estimates:
            if e.low_support:
                continue
            for arm, mu_hat in ((0, e.mu0_hat), (1, e.mu1_hat)):
                mu_true = true_smoothed_arm_mean(
                    cfg.outcome, trial.baseline_risk, arm, e.r,
                    cfg.estimator.bandwidth, weight_values=focal,
                )
                errs.append(abs(mu_hat - mu_true))
        assert np.mean(errs) < 0.05

    def test_scenario2_naive_bias_exceeds_adaptive(self):
        cfg = small_preset(2, n=800, seed=23)
        rep = run_replications(cfg, 10)
        pm = rep.per_method
        assert abs(pm["naive"]["bias"]) > abs(pm["adaptive_rd"]["bias"])

    def test_model_updates_produce_new_versions(self):
        trial = run_scenario(small_preset(5, n=900))
        assert len(trial.history.models) >= 2
        assert trial.history.models[0].provenance == "original"
        assert all(m.provenance == "revised" for m in trial.history.models[1:])

    def test_each_model_version_is_scored_once(self, monkeypatch):
        import adaptrd.harness as harness
        import adaptrd.risk_engine as risk_engine

        rows = []

        def counted(model, table):
            rows.append(len(table))
            return risk_engine.predict_risk_batch(model, table)

        def forbidden(model, table):
            raise AssertionError("build_counterfactual_matrix must not score")

        monkeypatch.setattr(harness, "predict_risk_batch", counted)
        trial = run_scenario(small_preset(5, n=900))
        assert len(trial.history.models) >= 2
        assert rows == [900] * len(trial.history.models)
        monkeypatch.setattr(risk_engine, "predict_risk_batch", forbidden)
        matrix = harness.build_counterfactual_matrix(trial.history, {
            m.version_id: trial.matrix.raw[:, v] for v, m in enumerate(trial.history.models)
        })
        assert np.array_equal(matrix.raw, trial.matrix.raw)

    def test_nnt_target_d_is_computed_once_per_trial(self, monkeypatch):
        import adaptrd.harness as harness
        from adaptrd.adaptation import nnt_to_cohens_d

        calls = []

        def counted(nnt):
            calls.append(nnt)
            return nnt_to_cohens_d(nnt)

        monkeypatch.setattr(harness, "nnt_to_cohens_d", counted)
        trial = run_scenario(small_preset(3, n=900))
        updates = [e for e in trial.events if e.kind == "threshold_update"]
        assert len(updates) == 5
        assert calls == [trial.config.threshold_strategy.nnt]
        target = f" target_d={nnt_to_cohens_d(calls[0])!r} "
        assert all(target in e.detail for e in updates)

    def test_nnt_without_a_d_skips_each_update_with_the_reason(self):
        import dataclasses

        strategy = dataclasses.replace(small_preset(3).threshold_strategy, nnt=1.0 + 1e-13)
        trial = run_scenario(small_preset(3, threshold_strategy=strategy))
        thresholds = [e for e in trial.events if e.kind.startswith("threshold")]
        assert len(thresholds) == 3
        for e in thresholds:
            assert e.kind == "threshold_skipped"
            assert e.detail == f"NNT {1.0 + 1e-13} implies d above the search window"

    def test_rows_after_m_do_not_reach_the_first_m(self, tmp_path):
        # Each new model version scores the whole cohort when it is created,
        # so later patients are scored early; nothing up to row 800 may
        # depend on them.
        from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort, save_cohort_csv

        head = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(81), 900)
        tail = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(82), 100)
        trials = []
        for name, patients in (("a", head), ("b", concat(head.slice(0, 800), tail))):
            path = tmp_path / f"{name}.csv"
            save_cohort_csv(path, patients)
            trials.append(run_scenario(small_preset(5, n=900, cohort_csv=str(path))))
        a, b = trials
        assert not np.array_equal(a.raw_risk[800:], b.raw_risk[800:])
        for field in ("raw_risk", "shifted_risk", "model_version", "threshold", "treatment", "outcome"):
            assert np.array_equal(getattr(a, field)[:800], getattr(b, field)[:800]), field
        early = [[e for e in t.events if e.index <= 800] for t in trials]
        assert early[0] and early[0] == early[1]

    def test_baseline_risk_is_original_model(self):
        from adaptrd.risk_engine import original_pce_model, predict_risk_batch

        trial = run_scenario(small_preset(4, n=900))
        expected = predict_risk_batch(original_pce_model(), trial.covariates)
        assert np.array_equal(trial.baseline_risk, expected)

    def test_csv_cohort_source(self, tmp_path):
        from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort, save_cohort_csv

        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(77), 600)
        path = tmp_path / "cohort.csv"
        save_cohort_csv(path, table)
        cfg = scenario_preset(1, n_patients=500, cohort_csv=str(path), seed=5)
        trial = run_scenario(cfg)
        assert trial.n == 500
        assert np.array_equal(trial.covariates.age, table.age[:500])

    def test_csv_cohort_too_short_rejected(self, tmp_path):
        from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort, save_cohort_csv

        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(78), 100)
        path = tmp_path / "cohort.csv"
        save_cohort_csv(path, table)
        cfg = scenario_preset(1, n_patients=500, cohort_csv=str(path))
        with pytest.raises(ConfigError, match="100 rows"):
            run_scenario(cfg)



# Recorded at commit d73d81a, before the NNT update read only the curve's
# betas and before the model history was stored as run-length segments.
SCENARIO3_PINNED = {
    0: (
        [(0, 0.1), (400, 0.23960371183573193), (500, 0.27165000899647374),
         (600, 0.28127097687041125), (700, 0.3195982616678298),
         (800, 0.36298463012728377), (900, 0.3577101335602254)],
        -2.7159539911055193,
    ),
    1: (
        [(0, 0.1), (400, 0.11277450381130184), (500, 0.13404851446788907),
         (600, 0.1574114372209956), (700, 0.08109703622919577),
         (800, 0.0428540764036824), (900, 0.17507629394022617)],
        -0.5127140351475392,
    ),
    2: (
        [(0, 0.1), (400, 0.05242106637149563), (500, 0.04780503936283782),
         (600, 0.19919302163386735), (700, 0.17817889226672373),
         (800, 0.16977534819151557), (900, 0.18198434657041115)],
        -3.2503629516637593,
    ),
}


@pytest.mark.parametrize("seed", sorted(SCENARIO3_PINNED))
def test_scenario3_trajectory_and_estimate_are_pinned(seed):
    trajectory, estimate = SCENARIO3_PINNED[seed]
    trial = run_scenario(small_preset(3, seed=seed, n=1000))
    assert trial.threshold_trajectory() == trajectory
    assert evaluate_at_final_threshold(trial).methods["adaptive_rd"].estimate == estimate


# Recorded at commit d73d81a: (final threshold, adaptive-RD SE, the estimates
# of METHODS in order). They guard the bit-identity of the baseline-risk
# reuse in the run loop and of the GLM deviance (logit surfaces and
# comparators in S1, Gaussian in S2, cloglog model refits in S4 and S5).
OTHER_SCENARIOS_PINNED = {
    (1, 0): (0.12376132412536162, 0.09846163924519503, (0.08956466540292025, 0.2385098216718781, 0.2468543811881846, 0.2910303399959943, -0.005065180043048802)),
    (1, 1): (0.11539000537365277, 0.04680639303861186, (0.27474790789877346, 0.2503893438868429, 0.2582632909208617, 0.35369810767708143, -0.08306943275649935)),
    (2, 0): (0.12376132412536162, 0.8577472477632141, (-2.245408876311464, -2.3573787516842226, -1.9188357510430023, -3.3283887357072315, -3.0940687942081757)),
    (2, 1): (0.11539000537365277, 0.8230783626380014, (0.6707705507583404, -2.060957951073829, -1.0663185498477468, 4.703067279614848, 4.076999040618912)),
    (4, 0): (0.1, 0.07491621789831512, (-0.0972656223267329, 0.2625997925407044, 0.04941056654759197, -0.016396759017517214, 0.0391871962794787)),
    (4, 1): (0.1, 0.14451022475993183, (0.132770723469765, 0.2604224918609843, 0.09258320046011191, 0.01482671858074117, 0.10810087474079544)),
    (5, 0): (0.1, 0.04905580424691613, (0.04257662332716968, 0.2586102250861991, 0.0057754154567914336, 0.042048270197458715, 0.0474342354318436)),
    (5, 1): (0.1, 0.05072883563143858, (-0.0022796297774264913, 0.24131944444444442, 0.017570062197622173, -0.05948802222337508, -0.04175569526248595)),
}


@pytest.mark.parametrize("scenario,seed", sorted(OTHER_SCENARIOS_PINNED))
def test_other_scenarios_are_pinned(scenario, seed):
    threshold, se, estimates = OTHER_SCENARIOS_PINNED[(scenario, seed)]
    trial = run_scenario(small_preset(scenario, seed=seed, n=1000))
    methods = evaluate_at_final_threshold(trial).methods
    assert trial.final_threshold == threshold
    assert methods["adaptive_rd"].se == se
    assert tuple(methods[m].estimate for m in METHODS) == estimates


class TestEvaluate:
    def test_null_treatment_effect_within_three_se(self):
        # gamma3 = 0 removes the treatment term entirely; truth is 0
        hits = 0
        for rep in range(8):
            cfg = scenario_preset(
                4,
                seed=61,
                n_patients=1500,
                outcome=OutcomeModel("ascvd", AscvdParams(gamma3=0.0)),
            )
            trial = run_scenario(cfg, SeedStream(cfg.seed, (rep,)))
            result = evaluate_at_final_threshold(trial)
            assert result.truth == 0.0
            m = result.methods["adaptive_rd"]
            if m.estimate is not None and abs(m.estimate) < 3 * m.se:
                hits += 1
        assert hits >= 7

    def test_all_methods_reported(self):
        trial = run_scenario(small_preset(2, n=800))
        result = evaluate_at_final_threshold(trial)
        assert set(result.methods) == {
            "adaptive_rd", "naive", "outcome_regression", "ipw", "aipw",
        }
        for m in result.methods.values():
            assert (m.estimate is None) != (m.error is None)


COMPARATOR_METHODS = ("outcome_regression", "ipw", "aipw")
COMPARATOR_REFERENCES = (outcome_regression_ate_reference, ipw_ate_reference, aipw_ate_reference)
OUTCOME_MODEL_WIDTH = len(COMPARATOR_PREDICTORS) + 2  # intercept, predictors, treatment
PROPENSITY_WIDTH = len(COMPARATOR_PREDICTORS) + 1


def oracle_comparators(trial):
    """Each comparator's (estimate bits, error) from the functions that fit their own models."""
    args = (
        trial.covariates, trial.treatment, trial.outcome, trial.matrix.focal_shifted, 0.0,
        trial.config.estimator,
    )
    out = []
    for fn in COMPARATOR_REFERENCES:
        try:
            out.append((int(np.float64(fn(*args)).view(np.uint64)), None))
        except AdaptRdError as exc:
            out.append((None, str(exc)))
    return out


def evaluated_comparators(trial):
    methods = evaluate_at_final_threshold(trial).methods
    return [
        (
            None if methods[m].estimate is None
            else int(np.float64(methods[m].estimate).view(np.uint64)),
            methods[m].error,
        )
        for m in COMPARATOR_METHODS
    ]


def patch_fit_glm(monkeypatch, fail_width=None, message=""):
    """Route the estimator's and the oracle's fits through one spy; list the fit widths.

    A fit whose design has ``fail_width`` columns raises NonConvergenceError.
    """
    calls = []

    def spy(spec):
        calls.append(spec.design.shape[1])
        if spec.design.shape[1] == fail_width:
            raise NonConvergenceError(message)
        return fit_glm(spec)

    monkeypatch.setattr(estimator, "fit_glm", spy)
    monkeypatch.setattr(oracles, "fit_glm", spy)
    return calls


class TestComparatorsAtFinalThreshold:
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_match_the_oracle_bitwise(self, scenario, seed):
        trial = run_scenario(small_preset(scenario, seed=seed, n=1000))
        got = evaluated_comparators(trial)
        assert got == oracle_comparators(trial)
        assert all(bits is not None for bits, _ in got)

    @pytest.fixture
    def trial(self):
        trial = run_scenario(small_preset(1, seed=2, n=1000))
        # A scenario-1 surface has no PC block, so its design is narrower
        # than either comparator model's.
        surface = fit_outcome_surface(
            trial.matrix, trial.treatment, trial.outcome, trial.config.estimator
        )
        assert surface.fit.theta.size < PROPENSITY_WIDTH
        return trial

    def test_failed_outcome_fit_fails_or_and_aipw_only(self, trial, monkeypatch):
        patch_fit_glm(monkeypatch, OUTCOME_MODEL_WIDTH, "outcome model did not converge")
        got = evaluated_comparators(trial)
        assert got == oracle_comparators(trial)
        (_, or_error), (ipw_bits, ipw_error), (_, aipw_error) = got
        assert or_error == aipw_error == "outcome model did not converge"
        assert ipw_bits is not None and ipw_error is None

    def test_failed_propensity_fit_fails_ipw_and_aipw_only(self, trial, monkeypatch):
        patch_fit_glm(monkeypatch, PROPENSITY_WIDTH, "propensity did not converge")
        got = evaluated_comparators(trial)
        assert got == oracle_comparators(trial)
        (or_bits, or_error), (_, ipw_error), (_, aipw_error) = got
        assert ipw_error == aipw_error == "propensity did not converge"
        assert or_bits is not None and or_error is None

    def test_too_few_per_arm_fails_all_three_alike(self, trial, monkeypatch):
        treatment = np.zeros_like(trial.treatment)
        treatment[:9] = 1
        trial = dataclasses.replace(trial, treatment=treatment)
        calls = patch_fit_glm(monkeypatch)
        got = evaluated_comparators(trial)
        assert got == oracle_comparators(trial)
        assert {error for _, error in got} == {"need at least 10 patients per arm"}
        assert OUTCOME_MODEL_WIDTH not in calls and PROPENSITY_WIDTH not in calls

    def test_each_comparator_model_is_fitted_once(self, trial, monkeypatch):
        calls = patch_fit_glm(monkeypatch)
        evaluate_at_final_threshold(trial)
        # One surface fit, then the outcome model and the propensity.
        assert calls[1:] == [OUTCOME_MODEL_WIDTH, PROPENSITY_WIDTH]
        calls.clear()
        oracle_comparators(trial)
        assert calls == [OUTCOME_MODEL_WIDTH, PROPENSITY_WIDTH] * 2


class TestReplications:
    def test_count_one_reduces_to_single_evaluation(self):
        cfg = small_preset(2, n=800, seed=13)
        report = run_replications(cfg, 1)
        trial = run_scenario(cfg, SeedStream(cfg.seed, (0,)))
        result = evaluate_at_final_threshold(trial)
        est = result.methods["adaptive_rd"].estimate
        err = report.per_method["adaptive_rd"]["errors"][0]
        assert err == pytest.approx(est - result.truth, abs=1e-12)

    def test_aggregates_consistent(self):
        report = run_replications(small_preset(2, n=800, seed=17), 5)
        for entry in report.per_method.values():
            if entry["bias"] is None:
                continue
            assert entry["mse"] + 1e-12 >= entry["bias"] ** 2
        cov = report.per_method["adaptive_rd"]["coverage"]
        assert cov is None or 0.0 <= cov <= 1.0

    def test_failure_reasons_count_each_failure_in_order(self):
        cfg = scenario_preset(4, seed=7, n_patients=24, warmup=12, update_every=4)
        report = run_replications(cfg, 6)
        reasons = report.to_dict()["failure_reasons"]
        assert list(reasons) == ["trial", *METHODS]
        assert sum(reasons["trial"].values()) == report.trial_failures
        for name in METHODS:
            assert sum(reasons[name].values()) == report.per_method[name]["failures"]
            assert list(reasons[name]) == sorted(reasons[name])
        assert reasons["outcome_regression"] == {
            "IRLS did not converge in 100 iterations (family=bernoulli_logit)": 2,
            "need at least 10 patients per arm": 1,
        }

    def test_failed_trials_keep_their_reason(self, tmp_path):
        missing = tmp_path / "missing.csv"
        report = run_replications(small_preset(2, n=700, seed=19, cohort_csv=missing), 2)
        assert report.trial_failures == 2
        assert report.failure_reasons["trial"] == {f"cohort file not found: {missing}": 2}
        assert all(report.failure_reasons[name] == {} for name in METHODS)

    def test_worker_count_invariance(self):
        cfg = small_preset(2, n=700, seed=19)
        r1 = run_replications(cfg, 4, workers=1)
        r2 = run_replications(cfg, 4, workers=2)
        assert r1.to_dict() == r2.to_dict()

    def test_replication_indexing_is_stable(self):
        cfg = small_preset(2, n=700, seed=19)
        r1 = run_replications(cfg, 2)
        r2 = run_replications(cfg, 4)
        # first two replications identical regardless of batch size
        assert r1.per_method["adaptive_rd"]["errors"] == r2.per_method["adaptive_rd"]["errors"][:2]
