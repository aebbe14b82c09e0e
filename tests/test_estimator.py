import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort
from adaptrd.errors import (
    AdaptRdError,
    DegenerateSupportError,
    EffectiveSupportError,
    InsufficientDataError,
    ValidationError,
)
from adaptrd.estimator import (
    KERNEL_CHUNK_ROWS,
    EstimatorConfig,
    _effect_gradient,
    aipw_ate,
    comparator_inputs,
    default_grid,
    effect_curve,
    estimate_effect,
    fit_outcome_surface,
    ipw_ate,
    naive_diff,
    outcome_regression_ate,
)
from adaptrd.numerics import (
    CLOGLOG,
    GAUSSIAN,
    LOGIT,
    gaussian_kernel_weights,
    inverse_link,
    mean_and_slope,
)
from adaptrd.risk_engine import (
    CounterfactualRiskMatrix,
    ModelHistory,
    original_pce_model,
    build_counterfactual_matrix,
    predict_risk_batch,
)
from adaptrd.seeds import SeedStream
from oracles import (
    aipw_ate_reference,
    default_grid_reference,
    dense_design_reference,
    independent_rd_estimate,
    ipw_ate_reference,
    outcome_regression_ate_reference,
    pointwise_kernel_weights,
)

rng = np.random.default_rng(777)


def static_matrix(focal: np.ndarray) -> CounterfactualRiskMatrix:
    """Single-column matrix as produced by a never-adapting trial.

    The threshold is 0, so the focal shifted risks are ``focal`` bit for bit.
    """
    focal = np.asarray(focal, dtype=float)
    return CounterfactualRiskMatrix(
        raw=focal[:, None],
        version_ids=np.array([0]),
        version_index=np.array([0]),
        thresholds=np.array([0.0]),
        column_map=np.zeros(focal.size, dtype=int),
    )


def two_column_matrix(n=600, seed=5):
    """Threshold shift halfway through a synthetic trial."""
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(seed), n)
    history = ModelHistory()
    model = original_pce_model()
    for j in range(n):
        history.append(model, 0.10 if j < n // 2 else 0.15)
    return table, build_counterfactual_matrix(history, {0: predict_risk_batch(model, table)})


def simulated_static_trial(n=800, seed=3, sigma=1.0):
    focal = rng.uniform(-0.2, 0.3, size=n)
    treatments = (focal >= 0).astype(int)
    outcomes = 1.0 + 2.0 * focal - 1.5 * treatments * focal + 0.5 * treatments
    outcomes = outcomes + sigma * rng.standard_normal(n)
    return static_matrix(focal), treatments, outcomes


class TestFitSurface:
    def test_static_matrix_retains_zero_components(self):
        matrix, treatments, outcomes = simulated_static_trial()
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        assert surface.pca_result.retained == 0
        assert surface.nonfocal_columns == ()
        # design reduces to intercept + per-arm splines + arm indicator
        assert surface.fit.theta.shape == (2 + 2 * 2,)

    def test_threshold_only_adaptation_still_zero_components(self):
        # columns differing by a constant are exactly linear in the focal one
        table, matrix = two_column_matrix()
        treatments = (matrix.focal_shifted >= 0).astype(int)
        treatments[:10] = 1 - treatments[:10]  # ensure both arms everywhere
        outcomes = rng.standard_normal(len(table))
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        assert surface.pca_result.retained == 0

    def test_exact_fit_for_linear_gaussian_outcomes(self):
        matrix, treatments, outcomes = simulated_static_trial(sigma=0.0)
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        mu0, mu1 = surface.mu0, surface.mu1
        fitted = np.where(treatments == 1, mu1, mu0)
        assert np.max(np.abs(fitted - outcomes)) < 1e-6

    def test_permutation_invariance(self):
        matrix, treatments, outcomes = simulated_static_trial(n=400)
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        perm = rng.permutation(400)
        permuted = CounterfactualRiskMatrix(
            raw=matrix.raw[perm],
            version_ids=matrix.version_ids,
            version_index=matrix.version_index,
            thresholds=matrix.thresholds,
            column_map=matrix.column_map[perm],
        )
        surface_p = fit_outcome_surface(
            permuted, treatments[perm], outcomes[perm], EstimatorConfig()
        )
        assert np.max(np.abs(surface.fit.theta - surface_p.fit.theta)) < 1e-10

    def test_insufficient_arm_rejected(self):
        matrix, treatments, outcomes = simulated_static_trial(n=100)
        # One message per cause: the short arm is named, the counts are not.
        for n_treated, arm in ((5, "treated"), (95, "untreated")):
            treatments = np.zeros(100, dtype=int)
            treatments[:n_treated] = 1
            with pytest.raises(InsufficientDataError, match=f"^too few {arm} patients: need at least 10 per arm$"):
                fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())

    def test_treatment_outside_zero_one_rejected(self):
        matrix, treatments, outcomes = versioned_matrix(3, [0], [0.1])
        treatments[3] = 2
        with pytest.raises(ValidationError, match="treatments must all be 0 or 1"):
            fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())

    def test_constant_focal_rejected(self):
        matrix = static_matrix(np.zeros(100))
        treatments = np.tile([0, 1], 50)
        with pytest.raises(DegenerateSupportError):
            fit_outcome_surface(matrix, treatments, rng.standard_normal(100), EstimatorConfig())


class TestPredictArmMeans:
    def test_identity_link_intercept_and_arm_shift(self):
        matrix, treatments, _ = simulated_static_trial(n=300)
        outcomes = 2.0 + 3.0 * treatments + 0.0 * matrix.focal_shifted
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        mu0, mu1 = float(surface.mu0[16]), float(surface.mu1[16])
        assert mu0 == pytest.approx(2.0, abs=1e-6)
        assert mu1 == pytest.approx(5.0, abs=1e-6)

    def test_logit_arm_means_are_the_inverse_link_of_each_arm_design(self):
        matrix, treatments, _ = simulated_static_trial(n=300)
        outcomes = (rng.uniform(size=300) < 0.5).astype(float)
        surface = fit_outcome_surface(
            matrix, treatments, outcomes, EstimatorConfig(family=LOGIT)
        )
        for X, mu in ((surface.X0, surface.mu0), (surface.X1, surface.mu1)):
            assert mu.tobytes() == mean_and_slope(X @ surface.fit.theta, LOGIT)[0].tobytes()

    def test_treated_patient_observed_arm_matches_fitted_mean(self):
        matrix, treatments, outcomes = simulated_static_trial(n=500)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        k = int(np.argmax(treatments == 1)) + 1
        mu1 = float(surface.mu1[k - 1])
        design_row = np.concatenate(
            [
                [1.0],
                np.zeros(2),
                [1.0],
                np.asarray(
                    __import__("adaptrd.numerics", fromlist=["natural_cubic_basis"])
                    .natural_cubic_basis(matrix.focal_shifted[k - 1 : k], surface.basis_treated)
                ).ravel(),
            ]
        )
        eta = design_row @ surface.fit.theta
        assert mu1 == pytest.approx(float(eta), abs=1e-12)


class TestEstimateEffect:
    def test_constant_predicted_effect_returned_everywhere(self):
        matrix, treatments, _ = simulated_static_trial(n=400)
        outcomes = 1.0 + 4.0 * treatments.astype(float)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        for r in (-0.1, 0.0, 0.15):
            est = estimate_effect(surface, config, r)
            assert est.beta_hat == pytest.approx(4.0, abs=1e-6)

    def test_reduction_to_independent_1d_rd(self):
        matrix, treatments, outcomes = simulated_static_trial(n=900, sigma=1.0)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        for r in np.linspace(-0.1, 0.15, 7):
            mine = estimate_effect(surface, config, float(r)).beta_hat
            oracle = independent_rd_estimate(
                matrix.focal_shifted, treatments, outcomes, float(r), config
            )
            assert mine == pytest.approx(oracle, abs=1e-8)

    def test_ci_brackets_and_width(self):
        matrix, treatments, outcomes = simulated_static_trial(n=500)
        config = EstimatorConfig(confidence=0.95)
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        est = estimate_effect(surface, config, 0.0)
        assert est.ci[0] <= est.beta_hat <= est.ci[1]
        z = 1.959963984540054
        assert est.ci[1] - est.ci[0] == pytest.approx(2 * z * est.se, rel=1e-9)

    def test_outcome_shift_invariance_gaussian(self):
        matrix, treatments, outcomes = simulated_static_trial(n=500)
        config = EstimatorConfig()
        s1 = fit_outcome_surface(matrix, treatments, outcomes, config)
        s2 = fit_outcome_surface(matrix, treatments, outcomes + 100.0, config)
        e1 = estimate_effect(s1, config, 0.0)
        e2 = estimate_effect(s2, config, 0.0)
        assert e2.beta_hat == pytest.approx(e1.beta_hat, abs=1e-10)
        assert e2.mu1_hat == pytest.approx(e1.mu1_hat + 100.0, abs=1e-8)
        assert e2.mu0_hat == pytest.approx(e1.mu0_hat + 100.0, abs=1e-8)

    def test_no_support_raises(self):
        matrix, treatments, outcomes = simulated_static_trial(n=300)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        with pytest.raises(EffectiveSupportError):
            estimate_effect(surface, config, 5.0)

    def test_weight_locality(self):
        matrix, treatments, outcomes = simulated_static_trial(n=2000)
        config = EstimatorConfig()
        focal = matrix.focal_shifted
        w = gaussian_kernel_weights(focal, 0.0, config.bandwidth)
        far = np.abs(focal - 0.0) > 6 * config.bandwidth
        assert w[far].sum() < 1e-7

    def test_effective_counts_sum_to_n(self):
        matrix, treatments, outcomes = simulated_static_trial(n=500)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        est = estimate_effect(surface, config, 0.0)
        assert est.eff_n_treated + est.eff_n_untreated == pytest.approx(500.0, rel=1e-12)


class TestDeltaMethod:
    def test_identity_link_closed_form(self):
        matrix, treatments, outcomes = simulated_static_trial(n=400)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        w = gaussian_kernel_weights(matrix.focal_shifted, 0.0, config.bandwidth)
        c = (surface.X1 - surface.X0).T @ w
        expected = math.sqrt(float(c @ surface.fit.cov @ c))
        se = estimate_effect(surface, config, 0.0).se
        assert se == pytest.approx(expected, rel=1e-12)

    def test_zero_covariance_gives_zero_se(self):
        matrix, treatments, outcomes = simulated_static_trial(n=300)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        surface.fit.cov = np.zeros_like(surface.fit.cov)
        assert estimate_effect(surface, config, 0.0).se == 0.0

    @pytest.mark.parametrize("family", [GAUSSIAN, LOGIT, CLOGLOG])
    def test_gradient_matches_finite_differences(self, family):
        matrix, treatments, _ = simulated_static_trial(n=600)
        if family == GAUSSIAN:
            outcomes = 1.0 + matrix.focal_shifted + rng.standard_normal(600)
        else:
            p = inverse_link(0.5 * matrix.focal_shifted, family)
            outcomes = (rng.uniform(size=600) < p).astype(float)
        config = EstimatorConfig(family=family)
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        w = gaussian_kernel_weights(matrix.focal_shifted, 0.0, config.bandwidth)
        X0, X1 = surface.X0, surface.X1

        def functional(theta):
            return float(
                w @ (inverse_link(X1 @ theta, family) - inverse_link(X0 @ theta, family))
            )

        grad = _effect_gradient(surface, w)
        theta = surface.fit.theta
        eps = 1e-6
        scale = float(np.max(np.abs(grad)))
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (functional(up) - functional(dn)) / (2 * eps)
            # relative check with an absolute floor tied to the gradient norm,
            # so FD rounding noise on near-zero components cannot dominate
            denom = max(abs(fd), abs(grad[j]), 1e-4 * scale, 1e-10)
            assert abs(grad[j] - fd) / denom < 1e-6, (family, j)


class TestEffectCurve:
    def test_singleton_grid(self):
        matrix, treatments, outcomes = simulated_static_trial(n=300)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        curve = effect_curve(surface, config, np.array([0.0]))
        single = estimate_effect(surface, config, 0.0)
        assert len(curve.estimates) == 1
        assert curve.estimates[0].beta_hat == single.beta_hat
        # a multi-point grid gives, field for field, the single-point answers
        grid = np.array([-0.1, 0.0, 7.0, 0.15])
        curve = effect_curve(surface, config, grid)
        assert [r for r, _ in curve.skipped] == [7.0]
        assert curve.estimates == [
            estimate_effect(surface, config, r) for r in (-0.1, 0.0, 0.15)
        ]

    def test_grid_order_invariance(self):
        matrix, treatments, outcomes = simulated_static_trial(n=300)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        grid = np.array([-0.05, 0.0, 0.1])
        fwd = effect_curve(surface, config, grid)
        rev = effect_curve(surface, config, grid[::-1])
        assert sorted(e.beta_hat for e in fwd.estimates) == sorted(
            e.beta_hat for e in rev.estimates
        )

    def test_unsupported_points_reported(self):
        matrix, treatments, outcomes = simulated_static_trial(n=300)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        curve = effect_curve(surface, config, np.array([0.0, 7.0]))
        assert len(curve.estimates) == 1
        assert len(curve.skipped) == 1 and curve.skipped[0][0] == 7.0

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3000),
        points=st.sampled_from([2, 41, 101]),
    )
    def test_default_grid_equals_two_quantile_calls(self, seed, n, points):
        focal = np.random.default_rng(seed).uniform(-0.3, 0.5, size=n)
        got = default_grid(focal, points)
        assert got.tobytes() == default_grid_reference(focal, points).tobytes()

    def test_default_grid_covers_central_range(self):
        focal = rng.uniform(-1, 1, size=5000)
        grid = default_grid(focal, 101)
        assert grid.size == 101
        assert grid[0] == pytest.approx(np.quantile(focal, 0.01))
        assert grid[-1] == pytest.approx(np.quantile(focal, 0.99))


class TestComparators:
    def test_naive_diff_basics(self):
        assert naive_diff(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1, 1, 0, 0])) == 1.0
        assert naive_diff(np.array([2.0, 2.0, 2.0, 2.0]), np.array([1, 0, 1, 0])) == 0.0
        y = rng.standard_normal(100)
        a = (rng.uniform(size=100) < 0.5).astype(int)
        expected = y[a == 1].mean() - y[a == 0].mean()
        assert naive_diff(y, a) == pytest.approx(expected, abs=1e-12)

    def test_naive_diff_empty_arm(self):
        with pytest.raises(InsufficientDataError):
            naive_diff(np.ones(5), np.ones(5, dtype=int))

    def _setup(self, n=400, seed=21):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(seed), n)
        focal = predict_risk_batch(original_pce_model(), table) - 0.1
        treatments = (rng.uniform(size=n) < 0.5).astype(int)
        return table, focal, treatments

    def test_outcome_regression_recovers_exact_linear_model(self):
        table, focal, treatments = self._setup()
        # outcomes exactly linear in the fixed predictors, no treatment term
        y = 0.01 * table.age + 0.002 * table.total_chol - 0.004 * table.hdl_chol
        config = EstimatorConfig()
        est = outcome_regression_ate(comparator_inputs(table, treatments, y, focal, 0.0, config))
        assert abs(est) < 1e-8
        # additive treatment effect recovered exactly
        y2 = y + 3.0 * treatments
        est2 = outcome_regression_ate(comparator_inputs(table, treatments, y2, focal, 0.0, config))
        assert est2 == pytest.approx(3.0, abs=1e-8)

    def test_outcome_regression_matches_reimplementation(self):
        table, focal, treatments = self._setup(n=50, seed=23)
        y = rng.standard_normal(50)
        config = EstimatorConfig()
        est = outcome_regression_ate(comparator_inputs(table, treatments, y, focal, 0.0, config))
        X = np.column_stack(
            [
                np.ones(50),
                table.age,
                table.total_chol,
                table.hdl_chol,
                table.systolic_bp,
                table.bp_treated.astype(float),
                table.smoker.astype(float),
                table.diabetes.astype(float),
                treatments.astype(float),
            ]
        )
        theta, *_ = np.linalg.lstsq(X, y, rcond=None)
        effect = theta[-1]  # additive identity-link model
        w = np.exp(-0.5 * (focal / config.bandwidth) ** 2)
        expected = float((w / w.sum()) @ np.full(50, effect))
        assert est == pytest.approx(expected, abs=1e-8)

    def test_ipw_null_effect_vanishes_on_average(self):
        # true propensity 0.5, no treatment effect: the seed-averaged IPW
        # estimate at n=3000 sits within Monte Carlo noise of zero
        config = EstimatorConfig()
        estimates = []
        for seed in range(5):
            local = np.random.default_rng(seed + 100)
            table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(seed + 50), 3000)
            focal = predict_risk_batch(original_pce_model(), table) - 0.1
            treatments = (local.uniform(size=3000) < 0.5).astype(int)
            y = 0.01 * table.age + local.standard_normal(3000)
            estimates.append(ipw_ate(comparator_inputs(table, treatments, y, focal, 0.0, config)))
        assert abs(np.mean(estimates)) < 0.05

    def test_aipw_collapse_toward_outcome_regression(self):
        table, focal, treatments = self._setup(n=2000, seed=31)
        y = 0.01 * table.age + 1.0 * treatments + 0.3 * rng.standard_normal(2000)
        config = EstimatorConfig()
        inputs = comparator_inputs(table, treatments, y, focal, 0.0, config)
        aipw = aipw_ate(inputs)
        outreg = outcome_regression_ate(inputs)
        assert aipw == pytest.approx(outreg, abs=0.15)
        assert aipw == pytest.approx(1.0, abs=0.2)


def bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


def comparator_outcome(fn, *args):
    """(estimate bits, None) or (None, error message) of one comparator call."""
    try:
        return bits(fn(*args)), None
    except AdaptRdError as exc:
        return None, str(exc)


COMPARATORS = (
    (outcome_regression_ate, outcome_regression_ate_reference),
    (ipw_ate, ipw_ate_reference),
    (aipw_ate, aipw_ate_reference),
)


def random_comparator_data(seed: int, family: str):
    """A sampled cohort with covariate-driven treatment and a family's outcomes."""
    local = np.random.default_rng(seed)
    n = int(local.integers(60, 900))
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(seed + 300), n)
    focal = predict_risk_batch(original_pce_model(), table) - local.uniform(0.05, 0.2)
    p_treat = 1.0 / (1.0 + np.exp(-(0.04 * (table.age - 55.0) + 8.0 * focal)))
    treatments = (local.uniform(size=n) < p_treat).astype(int)
    mean = 0.02 * table.age + 0.5 * treatments - 1.0
    if family == LOGIT:
        outcomes = (local.uniform(size=n) < 1.0 / (1.0 + np.exp(-mean))).astype(float)
    else:
        outcomes = mean + local.standard_normal(n)
    config = EstimatorConfig(family=family, bandwidth=float(local.uniform(0.01, 0.05)))
    return table, treatments, outcomes, focal, config


class TestComparatorInputs:
    """The shared comparator inputs against the comparators that fit their own models."""

    @pytest.mark.parametrize("family", [LOGIT, GAUSSIAN])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_cohorts_match_the_oracle_bitwise(self, family, seed):
        table, treatments, outcomes, focal, config = random_comparator_data(seed, family)
        for r in (0.0, 0.03):
            inputs = comparator_inputs(table, treatments, outcomes, focal, r, config)
            for new, old in COMPARATORS:
                got = comparator_outcome(new, inputs)
                want = comparator_outcome(old, table, treatments, outcomes, focal, r, config)
                assert got == want
                assert got[0] is not None

    def test_build_errors_match_the_oracle(self):
        table, treatments, outcomes, focal, config = random_comparator_data(7, GAUSSIAN)
        few = np.zeros_like(treatments)
        few[:5] = 1
        cases = [
            (few, outcomes, focal, InsufficientDataError),
            (treatments, outcomes[:-1], focal, ValidationError),
            (treatments, outcomes, focal[:-1], ValidationError),
        ]
        for a, y, f, error in cases:
            with pytest.raises(error) as built:
                comparator_inputs(table, a, y, f, 0.0, config)
            for _, old in COMPARATORS:
                assert comparator_outcome(old, table, a, y, f, 0.0, config) == (
                    None, str(built.value)
                )

    def test_kernel_without_support_fails_every_comparator_alike(self):
        table, treatments, outcomes, focal, config = random_comparator_data(8, GAUSSIAN)
        inputs = comparator_inputs(table, treatments, outcomes, focal, 5.0, config)
        for new, old in COMPARATORS:
            got = comparator_outcome(new, inputs)
            assert got[1] is not None and "no values within" in got[1]
            assert got == comparator_outcome(old, table, treatments, outcomes, focal, 5.0, config)

    def test_inputs_are_read_only_copies(self):
        table, treatments, outcomes, focal, config = random_comparator_data(9, LOGIT)
        inputs = comparator_inputs(table, treatments, outcomes, focal, 0.0, config)
        before = [comparator_outcome(new, inputs) for new, _ in COMPARATORS]
        for arr in (inputs.design, inputs.treatments, inputs.outcomes, inputs.focal_risks):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        fresh = comparator_inputs(table, treatments, outcomes, focal, 0.0, config)
        treatments[:] = 1 - treatments
        outcomes[:] = 1.0 - outcomes
        focal += 0.3
        table.age[:] = 30.0
        # Pieces first read after the edits still see the data at build time.
        assert [comparator_outcome(new, fresh) for new, _ in COMPARATORS] == before


def random_versioned_matrix(seed: int, n_distinct: int, n: int = 240):
    """A matrix of ``n_distinct`` correlated columns used in consecutive blocks."""
    local = np.random.default_rng(seed)
    base = local.uniform(-0.2, 0.3, size=n)
    shifted = np.column_stack(
        [base + 0.05 * d + 0.03 * local.standard_normal(n) for d in range(n_distinct)]
    )
    column_map = np.repeat(np.arange(n_distinct), np.diff(np.linspace(0, n, n_distinct + 1).astype(int)))
    # One version per column, at threshold 0: the shifted risks are the raw ones.
    matrix = CounterfactualRiskMatrix(
        raw=shifted,
        version_ids=np.arange(n_distinct),
        version_index=np.arange(n_distinct),
        thresholds=np.zeros(n_distinct),
        column_map=column_map,
    )
    treatments = (matrix.focal_shifted >= 0).astype(int)
    outcomes = 1.0 + base - 0.5 * treatments + 0.5 * local.standard_normal(n)
    return matrix, treatments, outcomes


class TestCurveMatchesPointwise:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_distinct=st.integers(1, 4),
        bandwidth=st.sampled_from([0.01, 0.02, 0.05]),
        confidence=st.sampled_from([0.8, 0.95, 0.99]),
        inside=st.lists(st.floats(-0.15, 0.3), min_size=1, max_size=6),
        outside=st.lists(st.sampled_from([-9.0, -2.5, 3.0, 12.0]), max_size=3),
    )
    def test_curve_equals_estimate_effect_at_each_point(
        self, seed, n_distinct, bandwidth, confidence, inside, outside
    ):
        matrix, treatments, outcomes = random_versioned_matrix(seed, n_distinct)
        config = EstimatorConfig(bandwidth=bandwidth, confidence=confidence)
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        grid = np.array(inside + outside)
        np.random.default_rng(seed).shuffle(grid)
        curve = effect_curve(surface, config, grid)

        expected, skipped = [], []
        for r in grid.tolist():
            try:
                expected.append(estimate_effect(surface, config, r))
            except EffectiveSupportError as exc:
                skipped.append((r, str(exc)))
        assert curve.skipped == skipped
        assert curve.r.tolist() == [e.r for e in expected]
        assert curve.beta.tolist() == [e.beta_hat for e in expected]
        assert len(curve.estimates) == len(expected)
        for got, want in zip(curve.estimates, expected):
            assert got == want  # dataclass equality: every field, exactly

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_distinct=st.integers(1, 4),
        n=st.sampled_from([240, 301, 1001]),
        length=st.integers(KERNEL_CHUNK_ROWS + 1, 101),
        bandwidth=st.sampled_from([0.01, 0.02, 0.05]),
        far_edges=st.lists(st.booleans(), min_size=14, max_size=14),
    )
    def test_grids_longer_than_a_chunk(self, seed, n_distinct, n, length, bandwidth, far_edges):
        matrix, treatments, outcomes = random_versioned_matrix(seed, n_distinct, n)
        config = EstimatorConfig(bandwidth=bandwidth)
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        local = np.random.default_rng(seed)
        grid = local.uniform(-0.15, 0.3, size=length)
        # Unsupported points on chunk edges, and the whole third chunk
        # unsupported whenever the grid reaches it.
        c = KERNEL_CHUNK_ROWS
        edges = sorted({0, length - 1} | {i for k in range(1, 7) for i in (k * c - 1, k * c)})
        for i, far in zip([i for i in edges if i < length], far_edges):
            if far:
                grid[i] = local.choice([-9.0, 3.0])
        grid[2 * c : 3 * c] = 12.0
        curve = effect_curve(surface, config, grid)

        focal, effect = matrix.focal_shifted, surface.effect
        expected, skipped, betas = [], [], []
        for r in grid.tolist():
            try:
                expected.append(estimate_effect(surface, config, r))
            except EffectiveSupportError as exc:
                skipped.append((r, str(exc)))
            else:
                # The per-point formula before kernel blocks, as a bitwise oracle.
                betas.append(float(pointwise_kernel_weights(focal, r, bandwidth) @ effect))
        assert curve.skipped == skipped
        assert [r for r, _ in skipped if r == 12.0] == [12.0] * (min(length, 3 * c) - 2 * c)
        assert curve.r.tolist() == [e.r for e in expected]
        assert curve.beta.tobytes() == np.array(betas).tobytes()
        assert [e.beta_hat for e in expected] == betas
        assert curve.estimates == expected


def versioned_matrix(seed, versions, thresholds, n=240):
    """A matrix whose distinct column d is version ``versions[d]`` at ``thresholds[d]``.

    Columns are used in consecutive blocks; versions must be numbered in
    order of first use. Each version's raw risks are correlated with the
    others'.
    """
    local = np.random.default_rng(seed)
    V, D = max(versions) + 1, len(versions)
    base = local.uniform(0.0, 0.5, size=n)
    raw = np.column_stack([base + 0.03 * local.standard_normal(n) for _ in range(V)])
    matrix = CounterfactualRiskMatrix(
        raw=raw,
        version_ids=np.arange(V) + 3,
        version_index=np.asarray(versions),
        thresholds=np.asarray(thresholds, dtype=float),
        column_map=np.repeat(np.arange(D), np.diff(np.linspace(0, n, D + 1).astype(int))),
    )
    treatments = (matrix.focal_shifted >= 0).astype(int)
    outcomes = 1.0 + base - 0.5 * treatments + 0.5 * local.standard_normal(n)
    return matrix, treatments, outcomes


THRESHOLD_VALUES = st.floats(0.05, 0.45)


@st.composite
def scenario_shapes(draw):
    """(version of each distinct column, thresholds) in the shapes the presets reach."""
    D = draw(st.integers(1, 5))
    if draw(st.booleans()):  # one version at D thresholds, as in S1-S3
        versions = [0] * D
        thresholds = draw(st.lists(THRESHOLD_VALUES, min_size=D, max_size=D, unique=True))
    else:  # one column per version at a fixed threshold, as in S4 and S5
        versions = list(range(D))
        thresholds = [draw(THRESHOLD_VALUES)] * D
    return versions, thresholds


class TestDenseDesignEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=scenario_shapes(),
        family=st.sampled_from([GAUSSIAN, LOGIT]),
        pca_variance=st.sampled_from([0.5, 0.9, 1.0]),
        r=st.floats(-0.1, 0.1),
    )
    def test_fit_and_effect_equal_the_dense_design_bitwise(self, seed, shape, family, pca_variance, r):
        matrix, treatments, outcomes = versioned_matrix(seed, *shape)
        if family == LOGIT:
            outcomes = (outcomes > 1.0).astype(float)
        config = EstimatorConfig(family=family, pca_variance=pca_variance, bandwidth=0.05)
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        dense = matrix.raw[:, matrix.version_index] - matrix.thresholds[None, :]
        fit, estimate, arms = dense_design_reference(
            dense, matrix.focal_index, treatments, outcomes, config, r
        )
        assert surface.fit.theta.tobytes() == fit.theta.tobytes()
        assert surface.fit.cov.tobytes() == fit.cov.tobytes()
        assert estimate_effect(surface, config, r) == estimate
        # Both arms' designs, means and link derivatives are the dense ones, bit for bit.
        for name, want in arms.items():
            got = getattr(surface, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_nonfocal_version_counts_once_whatever_its_thresholds():
    # Version 0 was in force at three thresholds. The fit equals the fit with
    # its second and third columns dropped, so the number of threshold
    # updates does not weight its direction in the PCA.
    config = EstimatorConfig(pca_variance=0.5)
    matrix, treatments, outcomes = versioned_matrix(11, [0, 0, 0, 1, 2], [0.1, 0.15, 0.2, 0.1, 0.2])
    dropped = CounterfactualRiskMatrix(
        raw=matrix.raw,
        version_ids=matrix.version_ids,
        version_index=np.array([0, 1, 2]),
        thresholds=np.array([0.1, 0.1, 0.2]),
        column_map=np.maximum(matrix.column_map - 2, 0),
    )
    assert np.array_equal(dropped.focal_shifted, matrix.focal_shifted)
    full = fit_outcome_surface(matrix, treatments, outcomes, config)
    fewer = fit_outcome_surface(dropped, treatments, outcomes, config)
    assert full.nonfocal_columns == (0, 3) and fewer.nonfocal_columns == (0, 1)
    assert full.pca_result.retained == 1
    assert full.fit.theta.tobytes() == fewer.fit.theta.tobytes()
    assert full.fit.cov.tobytes() == fewer.fit.cov.tobytes()
    estimate = estimate_effect(full, config, 0.0)
    assert estimate == estimate_effect(fewer, config, 0.0)
    # The dense design residualized every column, which weighted version 0
    # three times and moved the retained component.
    dense = matrix.raw[:, matrix.version_index] - matrix.thresholds[None, :]
    _, weighted, _ = dense_design_reference(dense, 4, treatments, outcomes, config, 0.0)
    assert abs(weighted.beta_hat - estimate.beta_hat) > 1e-3


class TestFittedRowsHandoff:
    def test_every_array_is_read_only(self):
        matrix, treatments, outcomes = versioned_matrix(7, [0, 1], [0.1, 0.2])
        surface = fit_outcome_surface(matrix, treatments, outcomes, EstimatorConfig())
        arrays = [v for v in vars(surface).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 9
        for values in arrays:
            assert values.shape[0] == matrix.n_patients
        for values in (*arrays, surface.fit.theta, surface.fit.cov):
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0


# Last in the module: these draw from the shared generator, and placing them
# here leaves every earlier test's data as it was.
class TestMatrixInput:
    def test_lazy_curve_ignores_later_matrix_edit(self):
        # Editing the matrix after the fit moves no evaluation: the surface
        # reads the terms the fit built, not the matrix.
        matrix, treatments, outcomes = simulated_static_trial(n=400)
        config = EstimatorConfig()
        surface = fit_outcome_surface(matrix, treatments, outcomes, config)
        grid = np.array([-0.05, 0.0, 0.05])
        expected = [estimate_effect(surface, config, r) for r in grid]
        curve = effect_curve(surface, config, grid)
        matrix.raw *= 0.5  # in place, before the estimates are first read
        assert curve.estimates == expected
        assert effect_curve(surface, config, grid).estimates == expected
        assert [estimate_effect(surface, config, r) for r in grid] == expected
