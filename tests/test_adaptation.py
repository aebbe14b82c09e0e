import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrd.adaptation import (
    NntTargetThreshold,
    RateTargetThreshold,
    cohens_d_curve,
    nnt_to_cohens_d,
    pooled_outcome_sd,
    recalibrate_model,
    revise_model,
    shrink_coefficients,
    shrink_weight,
    threshold_for_nnt,
    threshold_for_rate,
)
from adaptrd.cohort import DEFAULT_COHORT_PARAMS, CohortTable, sample_cohort
from adaptrd.errors import ConfigError, InsufficientDataError, ValidationError
from adaptrd.numerics import normal_cdf
from adaptrd.outcomes import AscvdParams, OutcomeModel, draw_noise, outcomes_from_noise
from adaptrd.risk_engine import (
    GLM_UNSTRATIFIED,
    original_pce_model,
    predict_risk_batch,
)
from adaptrd.seeds import SeedStream


class TestThresholdForRate:
    def test_half_rate_is_median(self):
        risks = np.array([0.05, 0.10, 0.15, 0.20, 0.25] * 5)
        assert threshold_for_rate(risks, 0.5) == pytest.approx(np.median(risks))

    def test_quantile_oracle_on_grid(self):
        risks = np.arange(1, 101) / 100.0
        assert threshold_for_rate(risks, 0.3) == pytest.approx(0.703, abs=1e-12)

    def test_constant_risks_return_constant(self):
        assert threshold_for_rate(np.full(30, 0.42), 0.17) == pytest.approx(0.42)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            threshold_for_rate(np.full(19, 0.3), 0.5)

    def test_future_treated_fraction_close_to_target(self):
        rng = np.random.default_rng(4)
        risks = rng.uniform(0.0, 1.0, 2_000)
        thr = threshold_for_rate(risks, 0.3)
        frac = float(np.mean(risks >= thr))
        assert abs(frac - 0.3) <= 1.0 / risks.size + 1e-12


class TestNntConversion:
    def test_anchor_nnt_three(self):
        d = nnt_to_cohens_d(3.0)
        assert 0.60 <= d <= 0.62

    def test_large_nnt_gives_vanishing_effect(self):
        assert nnt_to_cohens_d(1e6) < 1e-4

    def test_round_trip(self):
        for nnt in (1.5, 2.0, 3.0, 10.0, 50.0):
            d = nnt_to_cohens_d(nnt)
            implied = 1.0 / (2.0 * normal_cdf(d / math.sqrt(2.0)) - 1.0)
            assert implied == pytest.approx(nnt, abs=1e-8 * max(1.0, nnt))

    def test_strictly_decreasing(self):
        ds = [nnt_to_cohens_d(v) for v in (1.2, 2.0, 3.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_domain(self):
        with pytest.raises(ConfigError):
            nnt_to_cohens_d(1.0)


class TestCohensDCurve:
    def test_zero_effects(self):
        curve = cohens_d_curve([(0.1, 0.0), (0.2, 0.0)], pooled_sd=3.0)
        assert all(d == 0.0 for _, d in curve)

    def test_cholesterol_anchor(self):
        curve = cohens_d_curve([(0.5, -5.0)], pooled_sd=5.0)
        assert curve[0][1] == 1.0

    def test_doubling_sd_halves_d(self):
        base = cohens_d_curve([(0.1, -3.0)], pooled_sd=2.0)[0][1]
        assert cohens_d_curve([(0.1, -3.0)], pooled_sd=4.0)[0][1] == pytest.approx(base / 2)

    def test_pooled_sd_formula(self):
        y = np.concatenate([np.zeros(10), np.full(15, 2.0)])
        a = np.concatenate([np.zeros(10), np.ones(15)])
        y[:10] = [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        y[10:] = np.arange(15) * 0.5
        v1 = np.var(y[10:], ddof=1)
        v0 = np.var(y[:10], ddof=1)
        expected = math.sqrt((14 * v1 + 9 * v0) / 23)
        assert pooled_outcome_sd(y, a) == pytest.approx(expected)


class TestThresholdForNnt:
    def test_exact_hit_selected(self):
        curve = [(0.1, 0.2), (0.305, 0.61), (0.5, 1.2)]
        new = threshold_for_nnt(curve, 0.61, previous_threshold=0.305, smoothing=0.5)
        assert new == pytest.approx(0.305)

    def test_full_smoothing_keeps_previous(self):
        curve = [(0.4, 0.9)]
        assert threshold_for_nnt(curve, 0.61, 0.17, smoothing=1.0) == pytest.approx(0.17)

    def test_half_smoothing_arithmetic_mean(self):
        curve = [(0.30, 0.61)]
        assert threshold_for_nnt(curve, 0.61, 0.10, smoothing=0.5) == pytest.approx(0.20)

    def test_tie_breaks_to_smaller_risk(self):
        curve = [(0.2, 0.5), (0.4, 0.7)]  # equidistant from 0.6
        assert threshold_for_nnt(curve, 0.6, 0.3, smoothing=0.0) == pytest.approx(0.2)

    def test_empty_curve(self):
        with pytest.raises(InsufficientDataError):
            threshold_for_nnt([], 0.6, 0.1)


class TestShrinkage:
    def test_zero_patients_keeps_original(self):
        new = np.array([5.0, 5.0])
        orig = np.array([1.0, 2.0])
        assert np.array_equal(shrink_coefficients(new, orig, 0, 5000), orig)

    def test_n_equal_n0_averages(self):
        new = np.array([4.0, 0.0])
        orig = np.array([0.0, 2.0])
        out = shrink_coefficients(new, orig, 5000, 5000)
        assert np.allclose(out, [2.0, 1.0])

    def test_limit_is_new_coefficients(self):
        new = np.array([3.0, -1.0])
        orig = np.array([0.0, 0.0])
        out = shrink_coefficients(new, orig, 10**9, 5000)
        assert np.max(np.abs(out - new)) < 1e-4 * np.max(np.abs(new - orig))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            shrink_coefficients(np.ones(2), np.ones(3), 10, 10)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 10**6), n0=st.integers(1, 10**5))
    def test_weight_in_unit_interval_and_decreasing(self, n, n0):
        w = shrink_weight(n, n0)
        assert 0.0 < w <= 1.0
        assert shrink_weight(n + 1, n0) < w


def _simulated_update_inputs(n, gamma, seed=101, threshold=0.10):
    """Cohort risks + treatments + outcomes from a known event process."""
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(seed).child(0), n)
    model = original_pce_model()
    risks = predict_risk_batch(model, table)
    treatments = (risks >= threshold).astype(float)
    outcome_model = OutcomeModel("ascvd", gamma)
    noise = draw_noise(outcome_model, SeedStream(seed).child(1), n)
    outcomes = outcomes_from_noise(outcome_model, risks, treatments, noise)
    return table, treatments, outcomes, model


class TestRecalibrate:
    def test_identity_process_recovers_identity_calibration(self):
        # Events generated exactly at the model's own risks, no treatment
        # effect: the fitted calibration map should be close to (0, 1).
        table, a, y, model = _simulated_update_inputs(
            5000, AscvdParams(gamma1=0.0, gamma2=1.0, gamma3=0.0)
        )
        updated = recalibrate_model(table, a, y, model)
        assert abs(updated.fit_details["fitted_intercept"]) < 0.1
        assert abs(updated.fit_details["fitted_slope"] - 1.0) < 0.1
        assert updated.provenance == "recalibrated"
        assert updated.version_id == 1

    def test_miscalibrated_process_recovers_slope_direction(self):
        table, a, y, model = _simulated_update_inputs(5000, AscvdParams())
        updated = recalibrate_model(table, a, y, model)
        assert updated.fit_details["fitted_slope"] < 1.0

    def test_insufficient_records_rejected(self):
        table, a, y, model = _simulated_update_inputs(30, AscvdParams())
        with pytest.raises(InsufficientDataError):
            recalibrate_model(table, a, y, model)

    def test_single_arm_rejected(self):
        table, _, y, model = _simulated_update_inputs(200, AscvdParams())
        with pytest.raises(InsufficientDataError):
            recalibrate_model(table, np.ones(200), y, model)

    def test_shrinkage_pulls_toward_identity(self):
        table, a, y, model = _simulated_update_inputs(400, AscvdParams())
        updated = recalibrate_model(table, a, y, model, n0=5000)
        w = updated.fit_details["shrink_weight"]
        fitted = updated.fit_details["fitted_slope"]
        shrunk = updated.fit_details["shrunk_slope"]
        assert shrunk == pytest.approx(w * 1.0 + (1 - w) * fitted, abs=1e-12)


class TestRevise:
    def test_race_and_sex_dropped(self):
        table, a, y, model = _simulated_update_inputs(2000, AscvdParams())
        revised = revise_model(table, a, y, model)
        assert revised.kind == GLM_UNSTRATIFIED
        # three twins: white male, black male, black female
        twins = CohortTable(
            age=np.full(3, 60.0), female=np.array([False, False, True]),
            race=np.array(["white", "black", "black"]), systolic_bp=np.full(3, 130.0),
            total_chol=np.full(3, 200.0), hdl_chol=np.full(3, 50.0),
            smoker=np.zeros(3, bool), diabetes=np.zeros(3, bool), bp_treated=np.zeros(3, bool),
        )
        ra, rb, rc = predict_risk_batch(revised, twins)
        assert ra == rb == rc

    def test_risks_stay_in_unit_interval(self):
        table, a, y, model = _simulated_update_inputs(2000, AscvdParams())
        revised = revise_model(table, a, y, model)
        risks = predict_risk_batch(revised, table)
        assert risks.min() >= 0.0 and risks.max() <= 1.0

    def test_insufficient_records_rejected(self):
        table, a, y, model = _simulated_update_inputs(10, AscvdParams())
        with pytest.raises(InsufficientDataError):
            revise_model(table, a, y, model)

    def test_huge_n0_pins_to_original_projection(self):
        # with n0 huge the shrink weight stays near 1, pinning the revised
        # model to the original's least-squares projection onto the
        # demographic-free design
        from adaptrd.risk_engine import cloglog_of_risk, unstratified_design

        table, a, y, model = _simulated_update_inputs(2000, AscvdParams())
        revised = revise_model(table, a, y, model, n0=10**9)
        design = unstratified_design(table)
        z = cloglog_of_risk(predict_risk_batch(model, table))
        beta, *_ = np.linalg.lstsq(design, z, rcond=None)
        projected = 1.0 - np.exp(-np.exp(design @ beta))
        new = predict_risk_batch(revised, table)
        assert np.max(np.abs(new - projected)) < 1e-6


class TestStrategyValidation:
    def test_rate_target_bounds(self):
        with pytest.raises(ConfigError):
            RateTargetThreshold(target_rate=0.0)

    def test_nnt_target_bounds(self):
        with pytest.raises(ConfigError):
            NntTargetThreshold(nnt=1.0)
        with pytest.raises(ConfigError):
            NntTargetThreshold(nnt=3.0, smoothing=1.5)
