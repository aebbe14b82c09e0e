import math

import numpy as np
import pytest

from adaptrd.errors import ConfigError, ValidationError
from adaptrd.numerics import gaussian_kernel_weights
from adaptrd.outcomes import (
    AscvdParams,
    AttendanceParams,
    CholesterolParams,
    ClampStats,
    OutcomeModel,
    ascvd_prob,
    attendance_prob,
    cholesterol_mean,
    draw_noise,
    outcomes_from_noise,
    true_local_ate,
    true_smoothed_ate,
    true_smoothed_arm_mean,
)
from adaptrd.seeds import SeedStream


class TestAttendance:
    def test_maximal_effect_at_quarter_risk(self):
        p = AttendanceParams()
        effect = attendance_prob(0.25, 1, p) - attendance_prob(0.25, 0, p)
        assert effect == 0.25  # exact in floating point at the defaults

    def test_untreated_is_linear(self):
        assert attendance_prob(0.3, 0, AttendanceParams()) == pytest.approx(0.03, abs=1e-15)

    def test_treatment_term_vanishes_at_full_risk(self):
        assert attendance_prob(1.0, 1, AttendanceParams()) == pytest.approx(0.10, abs=1e-15)

    def test_effect_maximized_at_quarter_by_grid_search(self):
        p = AttendanceParams()
        grid = np.linspace(0.0, 1.0, 10_001)
        effects = attendance_prob(grid, np.ones_like(grid), p) - attendance_prob(
            grid, np.zeros_like(grid), p
        )
        assert grid[np.argmax(effects)] == pytest.approx(0.25, abs=1e-4)
        assert effects.max() == pytest.approx(0.25, abs=1e-9)

    def test_invalid_params_rejected_on_grid(self):
        with pytest.raises(ConfigError):
            AttendanceParams(alpha1=1.5, alpha2=1.5)

    def test_clamping_counted(self):
        p = AttendanceParams(alpha1=0.9, alpha2=0.25 * 16 / 9)
        stats = ClampStats()
        attendance_prob(np.array([0.2, 0.9]), np.array([1.0, 1.0]), p, stats)
        assert stats.count == 0
        # out-of-band params cannot be constructed, so drive clamping via the
        # raw function with a crafted (valid) parameter set and risk grid
        q = AttendanceParams(alpha1=1.0, alpha2=0.0)
        attendance_prob(np.array([1.0]), np.array([0.0]), q, stats)
        assert stats.count == 0


class TestCholesterol:
    def test_effect_at_half_risk(self):
        p = CholesterolParams()
        effect = cholesterol_mean(0.5, 1, p) - cholesterol_mean(0.5, 0, p)
        assert effect == -5.0

    def test_untreated_mean_is_intercept(self):
        assert cholesterol_mean(0.73, 0, CholesterolParams()) == 2.0

    def test_cohens_d_anchor(self):
        p = CholesterolParams()
        effect = cholesterol_mean(0.5, 1, p) - cholesterol_mean(0.5, 0, p)
        assert abs(effect) / p.sigma == 1.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigError):
            CholesterolParams(sigma=0.0)


class TestAscvd:
    def test_identity_map_under_correct_specification(self):
        p = AscvdParams(gamma1=0.0, gamma2=1.0, gamma3=0.0)
        grid = np.linspace(0.0005, 0.9995, 1000)
        probs = ascvd_prob(grid, np.zeros_like(grid), p)
        assert np.max(np.abs(probs - grid)) < 1e-12

    def test_positive_treatment_shift_increases_probability(self):
        p = AscvdParams()
        grid = np.linspace(0.01, 0.95, 50)
        treated = ascvd_prob(grid, np.ones_like(grid), p)
        untreated = ascvd_prob(grid, np.zeros_like(grid), p)
        assert np.all(treated > untreated)

    def test_default_params_frozen_value(self):
        # Independently computed from the formula eta = g1 + g2*log(-log(1-r))
        # + g3*a with the defaults, r=0.2, a=0. (The value 0.2806 sometimes
        # quoted for this case does not satisfy the formula.)
        value = ascvd_prob(0.2, 0, AscvdParams())
        eta = 0.1 + 0.9 * math.log(-math.log(0.8))
        assert value == pytest.approx(1.0 - math.exp(-math.exp(eta)), abs=1e-15)
        assert value == pytest.approx(0.24912814326087362, abs=1e-12)


def draw_one(model: OutcomeModel, r1: float, a: int, stream: SeedStream) -> float:
    """One patient's outcome through the batch noise-then-transform path."""
    noise = draw_noise(model, stream, 1)
    return float(outcomes_from_noise(model, np.array([r1]), np.array([a]), noise)[0])


class TestDraws:
    def test_probability_zero_and_one_degenerate(self):
        model = OutcomeModel("ascvd", AscvdParams(gamma1=-50.0, gamma2=0.0, gamma3=0.0))
        assert draw_one(model, 0.5, 0, SeedStream(1)) == 0.0
        model = OutcomeModel("ascvd", AscvdParams(gamma1=50.0, gamma2=0.0, gamma3=0.0))
        assert draw_one(model, 0.5, 0, SeedStream(1)) == 1.0

    def test_binomial_mean_oracle(self):
        # 10k draws at p=0.3: sample mean within 3*sqrt(p(1-p)/n)
        model = OutcomeModel("attendance", AttendanceParams(alpha1=0.0, alpha2=0.25 * 16 / 9))
        p_target = attendance_prob(0.25, 1, model.params)  # = 0.25 here
        noise = draw_noise(model, SeedStream(5), 10_000)
        draws = outcomes_from_noise(
            model, np.full(10_000, 0.25), np.ones(10_000), noise
        )
        tol = 3 * math.sqrt(p_target * (1 - p_target) / 10_000)
        assert abs(draws.mean() - p_target) < tol

    def test_continuous_noise_scale(self):
        model = OutcomeModel("cholesterol")
        noise = draw_noise(model, SeedStream(7), 20_000)
        draws = outcomes_from_noise(model, np.full(20_000, 0.0), np.zeros(20_000), noise)
        assert draws.mean() == pytest.approx(2.0, abs=0.15)
        assert draws.std() == pytest.approx(5.0, abs=0.15)

    def test_draws_reproducible(self):
        model = OutcomeModel("ascvd")
        a = draw_one(model, 0.3, 1, SeedStream(11, (4,)))
        b = draw_one(model, 0.3, 1, SeedStream(11, (4,)))
        assert a == b

    def test_baseline_risk_range_validated(self):
        with pytest.raises(ValidationError):
            attendance_prob(1.2, 1, AttendanceParams())


class TestTrueEffects:
    def test_local_anchors(self):
        assert true_local_ate(OutcomeModel("attendance"), 0.25) == 0.25
        assert true_local_ate(OutcomeModel("cholesterol"), 0.0) == 0.0
        null = OutcomeModel("ascvd", AscvdParams(gamma3=0.0))
        grid = np.linspace(0.01, 0.9, 30)
        assert np.max(np.abs(true_local_ate(null, grid))) == 0.0

    def test_smoothed_constant_effect(self):
        # cholesterol with beta2 interacting only through risk: make the
        # effect constant by pinning all baseline risks to one value
        model = OutcomeModel("cholesterol")
        risks = np.full(50, 0.4)
        est = true_smoothed_ate(model, risks, 0.4, 0.02)
        assert est == pytest.approx(true_local_ate(model, 0.4), abs=1e-12)

    def test_single_patient_cohort(self):
        model = OutcomeModel("attendance")
        est = true_smoothed_ate(model, np.array([0.3]), 0.25, 0.05)
        assert est == pytest.approx(true_local_ate(model, 0.3), abs=1e-15)

    def test_symmetric_cloud_cancels_linear_effect(self):
        # cholesterol effect is linear in risk; symmetric risks around the
        # center make the kernel average collapse onto the center effect
        model = OutcomeModel("cholesterol")
        offsets = np.linspace(-0.1, 0.1, 201)
        risks = 0.4 + offsets
        est = true_smoothed_ate(model, risks, 0.4, 0.03)
        assert est == pytest.approx(true_local_ate(model, 0.4), abs=1e-3)

    def test_weight_values_override(self):
        model = OutcomeModel("cholesterol")
        baselines = np.array([0.2, 0.4, 0.6])
        shifted = baselines - 0.4
        est = true_smoothed_ate(model, baselines, 0.0, 0.02, weight_values=shifted)
        direct = gaussian_kernel_weights(shifted, 0.0, 0.02) @ true_local_ate(model, baselines)
        assert est == pytest.approx(float(direct), abs=1e-15)

    def test_smoothed_arm_mean_matches_manual(self):
        model = OutcomeModel("ascvd")
        baselines = np.array([0.1, 0.2, 0.3])
        w = gaussian_kernel_weights(baselines, 0.2, 0.05)
        manual = float(w @ ascvd_prob(baselines, np.ones(3), model.params))
        assert true_smoothed_arm_mean(model, baselines, 1, 0.2, 0.05) == pytest.approx(manual)

    def test_weight_values_that_do_not_align_raise_validation_error(self):
        model = OutcomeModel("ascvd")
        baselines = np.array([0.1, 0.2, 0.3])
        short = np.array([0.0, 0.1])
        with pytest.raises(ValidationError, match="align"):
            true_smoothed_ate(model, baselines, 0.0, 0.05, weight_values=short)
        with pytest.raises(ValidationError, match="align"):
            true_smoothed_arm_mean(model, baselines, 1, 0.0, 0.05, weight_values=short)


def test_variant_param_mismatch_rejected():
    with pytest.raises(ConfigError):
        OutcomeModel("attendance", CholesterolParams())


def test_outcome_kind_mapping():
    assert OutcomeModel("attendance").kind == "binary"
    assert OutcomeModel("cholesterol").kind == "continuous"
    assert OutcomeModel("ascvd").kind == "binary"
