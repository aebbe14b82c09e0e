import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrd.errors import (
    DegenerateSupportError,
    EffectiveSupportError,
    NonConvergenceError,
    NumericError,
    RankDeficiencyError,
    ValidationError,
)
from adaptrd.numerics import (
    CLOGLOG,
    GAUSSIAN,
    LOGIT,
    RIDGE_JITTER,
    GlmSpec,
    _finalize_fit,
    choose_knots,
    fit_glm,
    gaussian_kernel_weights,
    inverse_link,
    linear_quantiles,
    mean_and_slope,
    natural_cubic_basis,
    normal_cdf,
    normal_quantile,
    pca,
    residualize,
)
from oracles import (
    choose_knots_reference,
    deviance_reference,
    inverse_link_deriv_reference,
    irls_fit_reference,
    natural_cubic_basis_reference,
    pointwise_kernel_weights,
)

rng = np.random.default_rng(20_240_817)


def random_design(n=200, p=4):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    return X


class TestGlm:
    def test_gaussian_equals_closed_form_ols(self):
        X = random_design(300, 5)
        theta_true = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ theta_true + rng.standard_normal(300)
        fit = fit_glm(GlmSpec(GAUSSIAN, X, y))
        # independent oracle: normal equations solved directly
        theta_ols = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(fit.theta - theta_ols)) < 1e-8

    def test_weighted_gaussian_equals_weighted_ols(self):
        X = random_design(150, 3)
        y = X @ np.array([0.5, 1.0, -1.0]) + rng.standard_normal(150)
        w = rng.uniform(0.1, 2.0, size=150)
        fit = fit_glm(GlmSpec(GAUSSIAN, X, y, weights=w))
        Xw = X * w[:, None]
        theta_wls = np.linalg.solve(X.T @ Xw, Xw.T @ y)
        assert np.max(np.abs(fit.theta - theta_wls)) < 1e-8

    def test_logit_intercept_only_balanced_response(self):
        X = np.ones((40, 1))
        y = np.array([0.0, 1.0] * 20)
        fit = fit_glm(GlmSpec(LOGIT, X, y))
        assert abs(fit.theta[0]) < 1e-8

    def test_cloglog_intercept_only_at_link_zero(self):
        # response mean 1 - exp(-1) maps to a zero intercept under cloglog
        n = 1000
        k = round(n * (1.0 - math.exp(-1.0)))
        y = np.concatenate([np.ones(k), np.zeros(n - k)])
        fit = fit_glm(GlmSpec(CLOGLOG, np.ones((n, 1)), y))
        expected = math.log(-math.log(1.0 - k / n))
        assert abs(fit.theta[0] - expected) < 1e-6

    def test_logit_recovers_known_coefficients(self):
        n = 40_000
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        theta = np.array([-0.3, 0.8])
        p = 1.0 / (1.0 + np.exp(-(X @ theta)))
        y = (rng.uniform(size=n) < p).astype(float)
        fit = fit_glm(GlmSpec(LOGIT, X, y))
        assert np.max(np.abs(fit.theta - theta)) < 0.05

    def test_score_vanishes_at_convergence(self):
        for family in (GAUSSIAN, LOGIT, CLOGLOG):
            X = random_design(400, 3)
            eta = X @ np.array([0.2, 0.5, -0.4])
            if family == GAUSSIAN:
                y = eta + rng.standard_normal(400)
            else:
                y = (rng.uniform(size=400) < inverse_link(eta, family)).astype(float)
            fit = fit_glm(GlmSpec(family, X, y))
            mu = inverse_link(X @ fit.theta, family)
            if family == GAUSSIAN:
                score = X.T @ (y - mu)
            else:
                _, d = mean_and_slope(X @ fit.theta, family)
                var = np.clip(mu * (1 - mu), 1e-10, None)
                score = X.T @ ((y - mu) * d / var)
            assert np.max(np.abs(score)) < 1e-6, family

    def test_covariance_positive_semidefinite(self):
        X = random_design(200, 4)
        y = (rng.uniform(size=200) < 0.4).astype(float)
        fit = fit_glm(GlmSpec(LOGIT, X, y))
        eigvals = np.linalg.eigvalsh(fit.cov)
        assert eigvals.min() > -1e-10

    def test_complete_separation_surfaces_flagged(self):
        # Complete separation either raises NonConvergenceError (carrying the
        # last iterate) or returns a clamp-stabilized fit flagged as boundary.
        x = np.concatenate([-np.ones(20), np.ones(20)])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(40), x])
        try:
            fit = fit_glm(GlmSpec(LOGIT, X, y))
        except NonConvergenceError as exc:
            assert exc.last_fit is not None
            assert exc.last_fit.theta.shape == (2,)
        else:
            assert fit.boundary_fit

    def test_binary_response_validated(self):
        for bad in (2.0, 0.5):
            with pytest.raises(ValidationError):
                GlmSpec(LOGIT, np.ones((5, 1)), np.array([0.0, 1.0, bad, 0.0, 1.0]))
        GlmSpec(LOGIT, np.ones((3, 1)), np.array([-0.0, 1.0, 0.0]))  # -0.0 is a 0

    def test_linear_predictor_and_means(self):
        fit = fit_glm(GlmSpec(GAUSSIAN, np.ones((10, 1)), np.full(10, 3.0)))
        assert abs(float(np.array([2.0]) @ fit.theta) - 6.0) < 1e-10

        def mean(theta, family):
            return float(inverse_link(np.array([[1.0]]) @ theta, family)[0])

        assert mean(np.array([0.0]), LOGIT) == pytest.approx(0.5)
        assert mean(np.array([0.0]), CLOGLOG) == pytest.approx(1 - math.exp(-1))
        assert mean(np.array([1.7]), GAUSSIAN) == pytest.approx(1.7)


def _gaussian_case(seed, n, p, case):
    """A Gaussian GlmSpec of the named kind, drawn from ``seed``."""
    local = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), local.standard_normal((n, p - 1))])
    y = X @ local.standard_normal(p) + local.standard_normal(n)
    weights = None
    if case == "zero_weights":
        weights = local.uniform(0.1, 2.0, size=n) * (local.uniform(size=n) < 0.7)
    elif case == "jitter":
        # A column of zeros: the information has a zero pivot, so the first
        # Cholesky factorization fails and the ridge-jitter retry solves.
        X = np.column_stack([X, np.zeros(n)])
    elif case == "collinear":
        # An exactly dependent column at a large scale: rounding can leave
        # the information indefinite by more than the jitter.
        X = 1e3 * np.column_stack([X, X[:, -1] + 0.3 * X[:, 0]])
    return GlmSpec(GAUSSIAN, X, y, weights=weights)


def _fit_outcome(fit, spec):
    """The fit's theta, cov, deviance and dispersion as bits, or its error."""
    try:
        result = fit(spec)
    except (RankDeficiencyError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return (
        result.theta.tobytes(),
        result.cov.tobytes(),
        np.float64(result.deviance).tobytes(),
        np.float64(result.dispersion).tobytes(),
        result.converged,
    )


class TestOneSolveGaussianFit:
    """A Gaussian fit is the IRLS loop's answer, bit for bit, from one solve."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 120),
        p=st.integers(1, 5),
        case=st.sampled_from(["unit", "zero_weights", "jitter", "collinear"]),
    )
    def test_equals_the_irls_loop_bitwise(self, seed, n, p, case):
        spec = _gaussian_case(seed, max(n, p + 2), p, case)
        assert _fit_outcome(fit_glm, spec) == _fit_outcome(irls_fit_reference, spec)

    def test_one_solve_reported_as_one_iteration(self):
        spec = _gaussian_case(1, 50, 3, "zero_weights")
        assert 0.0 in spec.weights
        fit = fit_glm(spec)
        assert fit.converged and fit.iterations == 1
        assert irls_fit_reference(spec).iterations == 2

    def test_ridge_jitter_retry(self):
        spec = _gaussian_case(2, 40, 3, "jitter")
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(spec.design.T @ spec.design)
        fit = fit_glm(spec)
        assert fit.theta[-1] == 0.0
        assert _fit_outcome(fit_glm, spec) == _fit_outcome(irls_fit_reference, spec)

    def test_rank_deficiency_raised_by_both(self):
        raised = 0
        for seed in range(20):
            spec = _gaussian_case(seed, 30, 3, "collinear")
            want = _fit_outcome(irls_fit_reference, spec)
            assert _fit_outcome(fit_glm, spec) == want
            raised += want[0] is RankDeficiencyError
        assert raised > 0

    def test_overflowing_solve_raises_non_convergence(self):
        spec = GlmSpec(GAUSSIAN, np.full((2, 1), 1e10), np.full(2, 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="did not converge"):
                irls_fit_reference(spec)
            with pytest.raises(NonConvergenceError, match="overflowed") as info:
                fit_glm(spec)
        assert not info.value.last_fit.converged
        assert np.isinf(info.value.last_fit.theta[0])


def _invertible(matrix):
    try:
        np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


class TestFinalizeFitErrors:
    """The covariance step raises typed errors, never a bare LinAlgError or NaNs."""

    @pytest.mark.parametrize("seed", [4, 25])
    def test_uninvertible_information_raises_rank_deficiency(self, seed):
        # 1e3 * [1, a, b, a + 0.3 b]: the Cholesky solve can succeed while
        # inverting the information fails with and without the jitter. Which
        # happens depends on the BLAS's rounding, so the information is
        # inverted here the way the fit inverts it.
        local = np.random.default_rng(seed)
        a, b, y = (local.standard_normal(30) for _ in range(3))
        spec = GlmSpec(GAUSSIAN, 1e3 * np.column_stack([np.ones(30), a, b, a + 0.3 * b]), y)
        info = spec.design.T @ spec.design
        jittered = info + RIDGE_JITTER * np.eye(4)
        if _invertible(info) or _invertible(jittered):
            with contextlib.suppress(RankDeficiencyError):
                fit_glm(spec)
            return
        with pytest.raises(RankDeficiencyError, match="not invertible after ridge jitter"):
            fit_glm(spec)

    def test_exactly_singular_information_raises_rank_deficiency(self):
        # At this scale the jitter does not change a bit of the information.
        spec = GlmSpec(GAUSSIAN, np.ones((4, 2)), np.arange(4.0))
        info = np.full((2, 2), 1e20)
        with pytest.raises(RankDeficiencyError, match="not invertible after ridge jitter"):
            _finalize_fit(spec, np.zeros(2), info, 1.0, True, 1, np.zeros(4))

    def test_overflowing_information_raises_numeric_error(self):
        spec = GlmSpec(GAUSSIAN, np.full((5, 3), 1e160), np.arange(5.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="information matrix is not finite") as info:
                fit_glm(spec)
        assert type(info.value) is NumericError


# Zero (never -0.0) and magnitudes from 1e-300 to 1e300 of either sign, so
# every difference is finite.
_QUANTILE_VALUES = st.one_of(
    st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)
)


@st.composite
def _quantile_case(draw):
    """Values (n in 1..500, repeats when the drawn pool is short), qs, presorted."""
    pool = draw(st.lists(_QUANTILE_VALUES, min_size=1, max_size=60))
    values = np.resize(np.asarray(pool), draw(st.integers(1, 500)))
    presorted = draw(st.booleans())
    if presorted:
        values = np.sort(values)
    df = draw(st.integers(1, 8))
    rate = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    qs = [0.0, 1.0, *(k / df for k in range(1, df)), 1.0 - rate]
    qs += draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return values, qs, presorted


class TestLinearQuantiles:
    """``linear_quantiles`` is ``np.quantile``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=_quantile_case())
    def test_equals_np_quantile_bitwise(self, case):
        values, qs, presorted = case
        before = values.copy()
        got = linear_quantiles(values, qs, presorted=presorted)
        assert got.view(np.uint64).tolist() == np.quantile(values, qs).view(np.uint64).tolist()
        # One q at a time takes the single-partition path.
        got = np.concatenate([linear_quantiles(values, (q,), presorted=presorted) for q in qs])
        want = np.array([np.quantile(values, q) for q in qs])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert values.tobytes() == before.tobytes()  # the caller's order is kept

    def test_nan_makes_every_quantile_nan(self):
        values = np.array([0.3, np.nan, 0.1, 0.2])
        for qs in ((0.0, 0.5), (0.0,), (0.5,), (1.0,)):
            assert np.all(np.isnan(linear_quantiles(values, qs)))
            assert np.all(np.isnan(np.quantile(values, qs)))

    def test_rejects_empty_values_and_outside_probabilities(self):
        with pytest.raises(ValidationError):
            linear_quantiles(np.empty(0), (0.5,))
        with pytest.raises(ValidationError):
            linear_quantiles(np.arange(3.0), (1.5,))


class TestSplines:
    def test_knot_choice_quantile_oracle(self):
        basis = choose_knots(np.arange(1.0, 102.0), df=2)
        assert basis.boundary_knots == (1.0, 101.0)
        assert basis.interior_knots == (51.0,)

    def test_all_equal_values_degenerate(self):
        with pytest.raises(DegenerateSupportError):
            choose_knots(np.full(50, 3.3), df=2)

    def test_df1_has_no_interior_knots(self):
        basis = choose_knots(np.linspace(0, 1, 30), df=1)
        assert basis.interior_knots == ()
        cols = natural_cubic_basis(np.array([0.2, 0.4]), basis)
        assert cols.shape == (2, 1)
        assert np.allclose(cols[:, 0], [0.2, 0.4])

    def test_second_derivative_zero_at_and_beyond_boundaries(self):
        # Finite differences taken on the outward side, where the natural
        # condition makes the basis exactly linear.
        values = rng.uniform(0.0, 1.0, size=200)
        basis = choose_knots(values, df=3)
        lo, hi = basis.boundary_knots
        eps = 1e-3
        probes = [
            (lo, -1.0),
            (hi, +1.0),
            (lo - 0.3, -1.0),
            (hi + 0.4, +1.0),
        ]
        for x0, direction in probes:
            xs = x0 + direction * eps * np.array([0.0, 1.0, 2.0])
            rows = natural_cubic_basis(xs, basis)
            second = (rows[0] - 2 * rows[1] + rows[2]) / eps**2
            assert np.max(np.abs(second)) < 1e-8

    def test_exactly_linear_outside_boundaries(self):
        basis = choose_knots(np.linspace(0.0, 1.0, 50), df=2)
        xs = np.array([1.5, 2.0, 2.5])  # collinear exterior points
        rows = natural_cubic_basis(xs, basis)
        assert np.allclose(rows[1], 0.5 * (rows[0] + rows[2]), atol=1e-8)
        xs = np.array([-1.0, -0.6, -0.2])
        rows = natural_cubic_basis(xs, basis)
        assert np.allclose(rows[1], 0.5 * (rows[0] + rows[2]), atol=1e-10)

    def test_linear_functions_in_span(self):
        values = rng.uniform(-2.0, 3.0, size=120)
        basis = choose_knots(values, df=3)
        B = np.column_stack([np.ones(values.size), natural_cubic_basis(values, basis)])
        coef, *_ = np.linalg.lstsq(B, values, rcond=None)
        assert np.max(np.abs(B @ coef - values)) < 1e-8

    def test_column_count_equals_df(self):
        values = rng.uniform(size=100)
        for df in (1, 2, 3, 4):
            basis = choose_knots(values, df=df)
            assert natural_cubic_basis(values, basis).shape == (100, df)


class TestResidualize:
    def test_exact_linear_dependence_gives_zero(self):
        x = rng.standard_normal(100)
        res = residualize(2.0 * x + 3.0, x)
        assert np.max(np.abs(res)) < 1e-10
        assert abs(res @ x) < 1e-8

    def test_orthogonal_zero_mean_column_unchanged(self):
        x = np.tile([1.0, -1.0], 50)
        col = np.tile([1.0, 1.0, -1.0, -1.0], 25)  # orthogonal to x, zero mean
        res = residualize(col, x)
        assert np.max(np.abs(res - col)) < 1e-10

    def test_residuals_orthogonal_to_regressor(self):
        x = rng.standard_normal(500)
        col = rng.standard_normal(500)
        res = residualize(col, x)
        assert abs(res @ x) < 1e-8
        assert abs(res.sum()) < 1e-8

    def test_constant_regressor_centres_the_column(self):
        col = rng.standard_normal(50)
        res = residualize(col, np.full(50, 2.0))
        assert abs(res.sum()) < 1e-12
        assert np.allclose(res, col - col.mean())


class TestPca:
    def test_rank_one_matrix(self):
        base = rng.standard_normal(80)
        matrix = np.column_stack([base, 2.0 * base, -0.5 * base])
        result = pca(matrix, 0.90)
        assert result.retained == 1
        assert result.explained_ratios[0] == pytest.approx(1.0)

    def test_zero_variance_matrix_yields_no_components(self):
        matrix = np.tile([1.0, 2.0, 3.0], (40, 1))
        result = pca(matrix, 0.90)
        assert result.retained == 0
        assert result.transform(matrix).shape == (40, 0)

    def test_full_reconstruction(self):
        matrix = rng.standard_normal((60, 5))
        result = pca(matrix, 1.0)
        centered = matrix - result.means
        scores = centered @ result.loadings
        recon = scores @ result.loadings.T
        assert np.max(np.abs(recon - centered)) < 1e-8

    def test_loadings_orthonormal_and_ratios_sorted(self):
        matrix = rng.standard_normal((100, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        result = pca(matrix, 0.95)
        gram = result.loadings.T @ result.loadings
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8
        assert np.all(np.diff(result.explained_ratios) <= 1e-12)

    def test_component_cap(self):
        matrix = rng.standard_normal((50, 15))
        result = pca(matrix, 1.0)
        assert result.retained <= 10


class TestKernel:
    def test_exact_center_has_largest_weight(self):
        values = np.array([0.3, 0.1, 0.5, 0.100001])
        w = gaussian_kernel_weights(values, 0.1, 0.02)
        assert np.argmax(w) == 1

    def test_equidistant_values_equal_weights(self):
        w = gaussian_kernel_weights(np.array([0.08, 0.12]), 0.1, 0.02)
        assert w[0] == pytest.approx(w[1], abs=1e-15)

    def test_weights_sum_to_one(self):
        values = rng.uniform(-1, 1, size=500)
        w = gaussian_kernel_weights(values, 0.0, 0.02)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_no_support_raises(self):
        with pytest.raises(EffectiveSupportError):
            gaussian_kernel_weights(np.array([1.0, 2.0]), 0.0, 0.02)

    def test_tiny_bandwidth_does_not_underflow(self):
        values = np.array([0.0, 1e-5, 2e-5])
        w = gaussian_kernel_weights(values, 0.0, 1e-6)
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        shift=st.floats(-5, 5, allow_nan=False),
        h=st.floats(0.001, 1.0, allow_nan=False),
    )
    def test_shift_equivariance(self, shift, h):
        values = np.array([0.05, 0.1, 0.2, 0.4])
        w1 = gaussian_kernel_weights(values, 0.1, h)
        w2 = gaussian_kernel_weights(values + shift, 0.1 + shift, h)
        assert np.allclose(w1, w2, atol=1e-12)


class TestKernelBlock:
    """An array of centres gives the scalar call's weights, row for row, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 700),
        decimals=st.sampled_from([None, 1, 2]),
        h=st.sampled_from([1e-4, 0.01, 0.02, 0.05]),
        n_centres=st.integers(1, 20),
    )
    def test_rows_equal_single_centre_calls_bitwise(self, seed, n, decimals, h, n_centres):
        local = np.random.default_rng(seed)
        values = local.uniform(-0.3, 0.5, size=n)
        if decimals is not None:  # many tied values and tied distances
            values = np.round(values, decimals)
        centres = local.uniform(-0.6, 0.8, size=n_centres)
        picks = local.integers(0, n, size=n_centres)
        # Some centres sit on a value, some halfway between two values, so
        # that distances tie on both sides.
        centres[::3] = values[picks[::3]]
        centres[1::3] = 0.5 * (values[picks[1::3]] + values[picks[1::3] - 1])
        rows = gaussian_kernel_weights(values, centres, h)
        assert rows.supported.shape == (n_centres,)
        assert rows.weights.shape == (int(rows.supported.sum()), n)
        supported = iter(rows.weights)
        skipped = []
        for c, ok in zip(centres.tolist(), rows.supported.tolist()):
            if ok:
                row = next(supported)
                assert row.tobytes() == gaussian_kernel_weights(values, c, h).tobytes()
                assert row.tobytes() == pointwise_kernel_weights(values, c, h).tobytes()
            else:
                with pytest.raises(EffectiveSupportError) as exc:
                    gaussian_kernel_weights(values, c, h)
                with pytest.raises(EffectiveSupportError) as old:
                    pointwise_kernel_weights(values, c, h)
                assert str(exc.value) == str(old.value)
                skipped.append((c, str(exc.value)))
        assert rows.skipped == skipped

    def test_no_supported_centre(self):
        rows = gaussian_kernel_weights(np.array([1.0, 2.0]), np.array([-1.0, 5.0]), 0.02)
        assert rows.weights.shape == (0, 2)
        assert rows.supported.tolist() == [False, False]
        assert [c for c, _ in rows.skipped] == [-1.0, 5.0]

    def test_empty_values_support_no_centre(self):
        rows = gaussian_kernel_weights(np.empty(0), np.array([0.0, 0.1]), 0.02)
        assert rows.weights.shape == (0, 0) and not rows.supported.any()
        with pytest.raises(EffectiveSupportError):
            gaussian_kernel_weights(np.empty(0), 0.0, 0.02)

    def test_non_finite_centre_rejected(self):
        with pytest.raises(NumericError):
            gaussian_kernel_weights(np.array([0.0, 0.1]), np.array([0.0, np.nan]), 0.02)


def _phi_series(x: float) -> float:
    """Independent high-precision normal CDF via the erf Taylor series."""
    t = x / math.sqrt(2.0)
    total, term, n = 0.0, t, 0
    while abs(term) > 1e-22:
        total += term / (2 * n + 1)
        n += 1
        term *= -t * t / n
    return 0.5 * (1.0 + 2.0 / math.sqrt(math.pi) * total)


class TestNormalCdf:
    def test_phi_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in (0.3, 1.1, 2.7, 4.2):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-14

    def test_against_series_oracle(self):
        for x in (0.5, 1.0, 1.96, 2.5, 3.0):
            assert abs(normal_cdf(x) - _phi_series(x)) < 1e-12

    def test_quantile_inverts_cdf(self):
        for p in (0.025, 0.3, 0.5, 0.975):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_wald_width_monotone_in_level(self):
        widths = [normal_quantile(0.5 + lvl / 2) for lvl in (0.80, 0.90, 0.95, 0.99)]
        assert all(a < b for a, b in zip(widths, widths[1:]))


def _two_term_bernoulli_deviance(y, mu, w):
    """The textbook Bernoulli deviance, with both log terms on every row."""
    mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
        t0 = np.where(y < 1, (1.0 - y) * np.log((1.0 - y) / (1.0 - mu)), 0.0)
    return float(2.0 * np.sum(w * (t1 + t0)))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0]),
            st.one_of(
                st.floats(0.0, 1.0),
                st.sampled_from([0.0, 1e-12, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 1e-16, 1.0]),
            ),
            st.floats(0.0, 10.0),
        ),
        min_size=1,
        max_size=40,
    ),
    family=st.sampled_from([LOGIT, CLOGLOG]),
)
def test_bernoulli_deviance_equals_the_two_term_formula(rows, family):
    from adaptrd.numerics import _deviance

    y, mu, w = (np.array(col) for col in zip(*rows))
    assert _deviance(y, mu, w, family) == _two_term_bernoulli_deviance(y, mu, w)


class TestEarlierFormulas:
    """The knot choice and spline basis equal their earlier formulas bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        decimals=st.sampled_from([None, 0, 1, 2, 3]),
        df=st.integers(1, 4),
    )
    def test_choose_knots(self, seed, n, decimals, df):
        values = np.random.default_rng(seed).uniform(-0.3, 0.5, size=n)
        if decimals is not None:
            values = np.round(values, decimals)
        distinct, lo, interior, hi = choose_knots_reference(values, df)
        if distinct < df + 2:
            with pytest.raises(DegenerateSupportError, match=f"got {distinct}$"):
                choose_knots(values, df)
            return
        try:
            basis = choose_knots(values, df)
        except DegenerateSupportError:
            assert any(not lo < k < hi for k in interior) or interior != sorted(set(interior))
            return
        got = np.array([*basis.boundary_knots, *basis.interior_knots])
        want = np.array([lo, hi, *interior])
        assert np.array_equal(got, want)
        if not np.any((values == 0.0) & np.signbit(values)):
            # Bit for bit, unless -0.0 ties with +0.0: the sort and the
            # partition may then leave different zeros at a knot's index.
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "values, count",
        [(np.empty(0), 0), (np.full(3, np.nan), 1), (np.array([0.1, np.nan, 0.2, np.nan]), 3)],
    )
    def test_distinct_count_as_unique_counts(self, values, count):
        with pytest.raises(DegenerateSupportError, match=f"got {count}$"):
            choose_knots(values, 3)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        df=st.integers(1, 4),
        spread=st.sampled_from([0.2, 1.0, 3.0]),
    )
    def test_natural_cubic_basis(self, seed, n, df, spread):
        local = np.random.default_rng(seed)
        basis = choose_knots(local.uniform(-0.2, 0.3, size=200), df)
        x = local.uniform(-spread, spread, size=n)
        knots = basis.all_knots
        x[: min(n, knots.size)] = knots[: min(n, knots.size)]  # on the knots
        if n > knots.size:
            x[knots.size] = -0.0
        got = natural_cubic_basis(x, basis)
        want = natural_cubic_basis_reference(x, knots, df)
        assert got.tobytes() == want.tobytes()  # sign bits of zeros included


def _bernoulli_case(seed, n, p, family, case):
    """A Bernoulli GlmSpec of the named kind, drawn from ``seed``."""
    local = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), local.standard_normal((n, p - 1))])
    eta = X @ local.normal(0.0, 0.8, p) - (1.0 if family == CLOGLOG else 0.0)
    y = (local.uniform(size=n) < inverse_link(eta, family)).astype(float)
    weights = None
    if case == "zero_weights":
        weights = local.uniform(0.1, 2.0, size=n) * (local.uniform(size=n) < 0.7)
    y[:2] = (0.0, 1.0)  # both outcomes occur
    if case == "separation":
        X[:2, -1] = (-1.0, 1.0)
        y = (X[:, -1] > 0.0).astype(float)  # the last column splits the outcomes
    return GlmSpec(family, X, y, weights=weights)


def _full_fit(fit):
    """Every field of a GlmFit, arrays and floats as bits."""
    return (
        fit.theta.tobytes(),
        fit.cov.tobytes(),
        fit.family,
        np.float64(fit.dispersion).tobytes(),
        fit.converged,
        fit.iterations,
        np.float64(fit.deviance).tobytes(),
        fit.boundary_fit,
    )


def _fit_or_last_fit(fit, spec):
    """The fit's fields, or a NonConvergenceError's message and its last fit's fields."""
    try:
        return None, _full_fit(fit(spec))
    except NonConvergenceError as exc:
        return str(exc), _full_fit(exc.last_fit)


class TestOneLinkEvaluation:
    """Each IRLS step's mean and slope from one link evaluation, bit for bit as before."""

    @settings(max_examples=200, deadline=None)
    @given(
        eta=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
        family=st.sampled_from([GAUSSIAN, LOGIT, CLOGLOG]),
    )
    def test_mean_and_slope_equal_the_separate_evaluations(self, eta, family):
        eta = np.array(eta)
        mu, dmu = mean_and_slope(eta, family)
        assert mu.tobytes() == inverse_link(eta, family).tobytes()
        assert dmu.tobytes() == inverse_link_deriv_reference(eta, family).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0]),
                st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-16, 1.0])),
                st.floats(0.0, 10.0),
            ),
            min_size=1,
            max_size=40,
        ),
        family=st.sampled_from([GAUSSIAN, LOGIT, CLOGLOG]),
    )
    def test_deviance_equals_the_earlier_formula(self, rows, family):
        from adaptrd.numerics import _deviance

        y, mu, w = (np.array(col) for col in zip(*rows))
        got, want = _deviance(y, mu, w, family), deviance_reference(y, mu, w, family)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 150),
        p=st.integers(1, 4),
        family=st.sampled_from([LOGIT, CLOGLOG]),
        case=st.sampled_from(["unit", "zero_weights", "separation"]),
    )
    def test_fit_equals_the_irls_loop_bitwise(self, seed, n, p, family, case):
        spec = _bernoulli_case(seed, n, max(p, 2) if case == "separation" else p, family, case)
        assert _fit_or_last_fit(fit_glm, spec) == _fit_or_last_fit(irls_fit_reference, spec)

    @pytest.mark.parametrize("family", [LOGIT, CLOGLOG])
    def test_separation_ends_on_the_boundary_as_before(self, family):
        spec = _bernoulli_case(5, 80, 2, family, "separation")
        outcome = _fit_or_last_fit(fit_glm, spec)
        assert outcome[1][-1]  # boundary_fit, of the fit or of the last iterate
        assert outcome == _fit_or_last_fit(irls_fit_reference, spec)

    @pytest.mark.parametrize("family", [LOGIT, CLOGLOG])
    def test_last_fit_of_a_non_converged_loop_as_before(self, monkeypatch, family):
        import oracles
        from adaptrd import numerics

        spec = _bernoulli_case(8, 120, 3, family, "zero_weights")
        monkeypatch.setattr(numerics, "MAX_ITER", 2)
        monkeypatch.setattr(oracles, "MAX_ITER", 2)
        message, last = _fit_or_last_fit(fit_glm, spec)
        assert "did not converge in 2 iterations" in message
        assert last[4:6] == (False, 2)  # converged, iterations
        assert (message, last) == _fit_or_last_fit(irls_fit_reference, spec)
