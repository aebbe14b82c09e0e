"""Independent reference implementations shared by the test modules.

Everything here except ``dense_design_reference``,
``trial_columns_from_events`` and the section of earlier formulas at the
end is deliberately written from first principles (textbook formulas,
lstsq, plain loops) and shares no code with the package internals it
checks. ``dense_design_reference`` keeps the earlier dense estimator
design, built from the package's numerical steps, as a bitwise reference.
``trial_columns_from_events`` works out each patient's logged columns from
a trial's events log and the package's risk scoring, without the
counterfactual matrix. The earlier formulas are the package's previous
code for the kernel weights at one centre, the default grid, the knot
choice and the spline basis, kept verbatim as bitwise references for their
rewrites. The next section keeps the three regression-based comparators
as they were when each fitted its own models, verbatim, as bitwise
references for the shared ``ComparatorInputs``. The next keeps the risk
scoring from a cohort table, the link derivative and the Bernoulli deviance
as they were before a cohort's terms were computed once and the IRLS loop
took each mean and slope from one link evaluation. The last keeps the IRLS
loop that every GLM family, Gaussian included, once ran, with that link
derivative and deviance, as the bitwise reference for the one-solve
Gaussian fit and for ``mean_and_slope`` in the Bernoulli loop.
"""

import math

import numpy as np


def independent_rd_estimate(focal, treatments, outcomes, r, config):
    """1-D per-arm-spline kernel RD estimator, gaussian family.

    Natural cubic basis from the textbook truncated-power construction,
    least squares via lstsq, Gaussian kernel marginalization written inline.
    """
    focal = np.asarray(focal, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)

    def ns_basis(x, knots):
        x = np.asarray(x, dtype=float)
        K = len(knots)
        last = knots[-1]

        def d(idx):
            return (
                np.maximum(x - knots[idx], 0.0) ** 3 - np.maximum(x - last, 0.0) ** 3
            ) / (last - knots[idx])

        cols = [x]
        for j in range(K - 2):
            cols.append(d(j) - d(K - 2))
        return np.column_stack(cols)

    def arm_knots(values, df):
        qs = [np.quantile(values, m / df) for m in range(1, df)]
        return [values.min(), *qs, values.max()]

    df = config.spline_df
    k0 = arm_knots(focal[treatments == 0], df)
    k1 = arm_knots(focal[treatments == 1], df)
    a = np.asarray(treatments, dtype=float)
    n = focal.size
    X = np.column_stack(
        [
            np.ones(n),
            ns_basis(focal, k0) * (1 - a)[:, None],
            a,
            ns_basis(focal, k1) * a[:, None],
        ]
    )
    theta, *_ = np.linalg.lstsq(X, outcomes, rcond=None)
    X0 = np.column_stack([np.ones(n), ns_basis(focal, k0), np.zeros(n), 0 * ns_basis(focal, k1)])
    X1 = np.column_stack([np.ones(n), 0 * ns_basis(focal, k0), np.ones(n), ns_basis(focal, k1)])
    diffs = X1 @ theta - X0 @ theta
    w = np.exp(-0.5 * ((focal - r) / config.bandwidth) ** 2)
    w = w / w.sum()
    return float(w @ diffs)


def phi_series(x: float) -> float:
    """High-precision standard normal CDF via the erf Taylor series."""
    t = x / math.sqrt(2.0)
    total, term, n = 0.0, t, 0
    while abs(term) > 1e-22:
        total += term / (2 * n + 1)
        n += 1
        term *= -t * t / n
    return 0.5 * (1.0 + 2.0 / math.sqrt(math.pi) * total)


def pce_subgroup(row) -> str:
    """Coefficient subgroup of a one-row table; race ``other`` uses the white tables."""
    race = "black" if row.race.item() == "black" else "white"
    return f"{race}_{'female' if row.female.item() else 'male'}"


def pce_linear_predictor(row, coeffs) -> float:
    """Pooled-cohort linear predictor of a one-row table, summed term by term.

    Written from the coefficient table's term names with scalar ``math``
    functions.
    """
    age, sbp, total_chol, hdl = (
        getattr(row, name).item() for name in ("age", "systolic_bp", "total_chol", "hdl_chol")
    )
    ln_age = math.log(age)
    ln_sbp = math.log(sbp)
    treated = 1.0 if row.bp_treated.item() else 0.0
    smoker = 1.0 if row.smoker.item() else 0.0
    values = {
        "ln_age": ln_age,
        "ln_age_sq": ln_age * ln_age,
        "ln_total_chol": math.log(total_chol),
        "ln_age_x_ln_total_chol": ln_age * math.log(total_chol),
        "ln_hdl": math.log(hdl),
        "ln_age_x_ln_hdl": ln_age * math.log(hdl),
        "ln_sbp_treated": ln_sbp * treated,
        "ln_age_x_ln_sbp_treated": ln_age * ln_sbp * treated,
        "ln_sbp_untreated": ln_sbp * (1.0 - treated),
        "ln_age_x_ln_sbp_untreated": ln_age * ln_sbp * (1.0 - treated),
        "smoker": smoker,
        "ln_age_x_smoker": ln_age * smoker,
        "diabetes": 1.0 if row.diabetes.item() else 0.0,
    }
    table = coeffs.subgroups[pce_subgroup(row)]
    return sum(c * values[term] for term, c in table.terms.items())


def pce_risk(lp: float, s0: float, lp_bar: float) -> float:
    """10-year risk = 1 - s0^exp(lp - lp_bar), clamped away from {0, 1}.

    The package's former scalar formula, kept as the reference for the batch one.
    """
    risk = 1.0 - s0 ** math.exp(lp - lp_bar)
    return min(max(risk, 1e-12), 1.0 - 1e-12)


def dense_design_reference(shifted, focal_index, treatments, outcomes, config, r):
    """Outcome-surface fit, effect at ``r`` and both arms' predictions on the dense n x D design.

    ``shifted`` holds one column per distinct (model version, threshold)
    pair. Every non-focal column is residualized on the focal one and the
    residuals go through PCA, which is how the design was built before the
    matrix stored one raw-risk column per model version. The numerical
    steps are the package's own, so a comparison with the package is bitwise
    and tests only which columns enter the design. The arms' designs, means
    and link derivatives come back by the surface's field names.
    """
    from adaptrd.estimator import EffectEstimate
    from adaptrd.numerics import (
        GlmSpec,
        choose_knots,
        fit_glm,
        gaussian_kernel_weights,
        inverse_link,
        natural_cubic_basis,
        normal_quantile,
        pca,
        residualize,
    )

    n = shifted.shape[0]
    focal = shifted[:, focal_index]
    residuals = [
        residualize(shifted[:, d], focal)
        for d in range(shifted.shape[1])
        if d != focal_index
    ]
    resid = np.column_stack(residuals) if residuals else np.empty((n, 0))
    scores = pca(resid, config.pca_variance).transform(resid)
    b0 = natural_cubic_basis(focal, choose_knots(focal[treatments == 0], config.spline_df))
    b1 = natural_cubic_basis(focal, choose_knots(focal[treatments == 1], config.spline_df))

    def design(arm):
        cols = [np.ones(n), b0 * (1.0 - arm)[:, None], arm, b1 * arm[:, None]]
        if scores.shape[1] > 0:
            cols.append(scores)
        return np.column_stack(cols)

    fit = fit_glm(GlmSpec(config.family, design(treatments.astype(float)), outcomes))
    X0, X1 = design(np.zeros(n)), design(np.ones(n))
    eta0, eta1 = X0 @ fit.theta, X1 @ fit.theta
    mu0, mu1 = inverse_link(eta0, fit.family), inverse_link(eta1, fit.family)
    d0 = inverse_link_deriv_reference(eta0, fit.family)
    d1 = inverse_link_deriv_reference(eta1, fit.family)
    w = gaussian_kernel_weights(focal, r, config.bandwidth)
    beta = float(w @ (mu1 - mu0))
    grad = X1.T @ (w * d1) - X0.T @ (w * d0)
    se = float(np.sqrt(max(float(grad @ fit.cov @ grad), 0.0)))
    z = normal_quantile(0.5 + config.confidence / 2.0)
    treated = treatments == 1
    eff_n1 = float(w[treated].sum() * n)
    eff_n0 = float(w[~treated].sum() * n)
    estimate = EffectEstimate(
        r=float(r),
        beta_hat=beta,
        se=se,
        ci=(beta - z * se, beta + z * se),
        mu1_hat=float(w @ mu1),
        mu0_hat=float(w @ mu0),
        eff_n_treated=eff_n1,
        eff_n_untreated=eff_n0,
        low_support=min(eff_n0, eff_n1) < config.min_effective,
    )
    return fit, estimate, {"X0": X0, "X1": X1, "mu0": mu0, "mu1": mu1, "d0": d0, "d1": d1}


def trial_columns_from_events(trial):
    """Each patient's model version, threshold and raw risk, from the events log.

    An update logged at index m holds for patients m + 1 onwards. Versions
    start at the original model's id 0 and thresholds at the config's
    ``initial_threshold``. Raw risks come from scoring every model in
    ``trial.history.models`` over the whole cohort, as the simulator scores
    each version once; each patient then takes its own version's risk.
    """
    from adaptrd.risk_engine import predict_risk_batch

    version = np.zeros(trial.n, dtype=np.int64)
    threshold = np.full(trial.n, trial.config.initial_threshold)
    for ev in trial.events:
        if ev.kind == "model_update":
            version[ev.index:] = int(ev.new)
        elif ev.kind == "threshold_update":
            threshold[ev.index:] = ev.new
    scores = {m.version_id: predict_risk_batch(m, trial.covariates) for m in trial.history.models}
    raw = np.array([scores[v][k] for k, v in enumerate(version.tolist())])
    return version, threshold, raw


# ---------------------------------------------------------------------------
# Earlier formulas, kept verbatim as bitwise references


def pointwise_kernel_weights(values, center, bandwidth):
    """Gaussian kernel weights at one centre, one vector operation at a time.

    Raises EffectiveSupportError, with the package's message, when every
    value lies farther than 12 bandwidths from ``center``.
    """
    from adaptrd.errors import EffectiveSupportError

    values = np.asarray(values, dtype=float)
    w = np.abs(values - center)
    nearest = float(w.min()) if values.size else math.inf
    if nearest > 12.0 * bandwidth:
        raise EffectiveSupportError(f"no values within 12.0 bandwidths of r={center}")
    w /= bandwidth
    w *= w
    w *= -0.5
    scaled = nearest / bandwidth
    w -= -0.5 * (scaled * scaled)
    np.exp(w, out=w)
    w /= w.sum()
    return w


def default_grid_reference(focal_risks, points=101):
    """Evenly spaced grid between the 1% and 99% quantiles, one quantile call each."""
    lo = float(np.quantile(focal_risks, 0.01))
    hi = float(np.quantile(focal_risks, 0.99))
    return np.linspace(lo, hi, points)


def choose_knots_reference(values, df):
    """(distinct count, lo, interior knots, hi): np.unique plus one quantile call per knot."""
    values = np.asarray(values, dtype=float)
    distinct = np.unique(values).size
    qs = [m / df for m in range(1, df)]
    interior = [float(np.quantile(values, q)) for q in qs]
    return distinct, float(values.min()), interior, float(values.max())


def natural_cubic_basis_reference(x, knots, df):
    """Truncated-power natural cubic basis, every cubed term computed per knot."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    knots = np.asarray(knots, dtype=float)
    K = knots.size
    out = np.empty((x.size, df))
    out[:, 0] = x
    if K > 2:
        last = knots[-1]

        def d(k_idx):
            k = knots[k_idx]
            num = np.maximum(x - k, 0.0) ** 3 - np.maximum(x - last, 0.0) ** 3
            return num / (last - k)

        d_ref = d(K - 2)
        for j in range(K - 2):
            out[:, j + 1] = d(j) - d_ref
    return out


# The comparators as they were before they shared one ComparatorInputs
# value: each call checks its inputs and fits its own models. The names
# they call are this module's, so a test can patch ``oracles.fit_glm``.

from adaptrd.cohort import CohortTable  # noqa: E402
from adaptrd.errors import InsufficientDataError, ValidationError  # noqa: E402
from adaptrd.estimator import EstimatorConfig  # noqa: E402
from adaptrd.numerics import (  # noqa: E402
    LOGIT,
    GlmSpec,
    fit_glm,
    gaussian_kernel_weights,
    inverse_link,
)

MIN_PER_ARM = 10

COMPARATOR_PREDICTORS = (
    "age",
    "total_chol",
    "hdl_chol",
    "systolic_bp",
    "bp_treated",
    "smoker",
    "diabetes",
)


def _comparator_design(covariates: CohortTable) -> np.ndarray:
    cols = [np.ones(len(covariates))]
    for name in COMPARATOR_PREDICTORS:
        cols.append(getattr(covariates, name).astype(float))
    return np.column_stack(cols)


def _comparator_checks(covariates, treatments, outcomes, focal_risks):
    treatments = np.asarray(treatments)
    outcomes = np.asarray(outcomes, dtype=float)
    focal_risks = np.asarray(focal_risks, dtype=float)
    n = len(covariates)
    if treatments.shape != (n,) or outcomes.shape != (n,) or focal_risks.shape != (n,):
        raise ValidationError("comparator inputs must have aligned lengths")
    short = " and ".join(arm for arm, code in (("untreated", 0), ("treated", 1))
                         if np.sum(treatments == code) < MIN_PER_ARM)
    if short:
        raise InsufficientDataError(f"too few {short} patients: need at least {MIN_PER_ARM} per arm")
    return treatments, outcomes, focal_risks


def _outcome_model_arm_means(covariates, treatments, outcomes, family):
    """(m0, m1): one GLM of outcome on the predictors plus treatment, predicted per arm."""
    base = _comparator_design(covariates)
    design = np.column_stack([base, treatments.astype(float)])
    fit = fit_glm(GlmSpec(family=family, design=design, response=outcomes))
    m0 = inverse_link(np.column_stack([base, np.zeros(len(covariates))]) @ fit.theta, family)
    m1 = inverse_link(np.column_stack([base, np.ones(len(covariates))]) @ fit.theta, family)
    return m0, m1


def outcome_regression_ate_reference(
    covariates: CohortTable,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    focal_risks: np.ndarray,
    r: float,
    config: EstimatorConfig,
) -> float:
    """Kernel-smoothed counterfactual-prediction contrast from one GLM."""
    treatments, outcomes, focal_risks = _comparator_checks(
        covariates, treatments, outcomes, focal_risks
    )
    m0, m1 = _outcome_model_arm_means(covariates, treatments, outcomes, config.family)
    weights = gaussian_kernel_weights(focal_risks, r, config.bandwidth)
    return float(weights @ (m1 - m0))


PROPENSITY_CLIP = (0.01, 0.99)


def _fitted_propensity(covariates: CohortTable, treatments: np.ndarray) -> np.ndarray:
    design = _comparator_design(covariates)
    fit = fit_glm(GlmSpec(family=LOGIT, design=design, response=treatments.astype(float)))
    e = inverse_link(design @ fit.theta, LOGIT)
    return np.clip(e, *PROPENSITY_CLIP)


def ipw_ate_reference(
    covariates: CohortTable,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    focal_risks: np.ndarray,
    r: float,
    config: EstimatorConfig,
) -> float:
    """Kernel-weighted average of propensity-scaled pseudo-outcomes."""
    treatments, outcomes, focal_risks = _comparator_checks(
        covariates, treatments, outcomes, focal_risks
    )
    e = _fitted_propensity(covariates, treatments)
    a = treatments.astype(float)
    pseudo = (a / e - (1.0 - a) / (1.0 - e)) * outcomes
    weights = gaussian_kernel_weights(focal_risks, r, config.bandwidth)
    return float(weights @ pseudo)


def aipw_ate_reference(
    covariates: CohortTable,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    focal_risks: np.ndarray,
    r: float,
    config: EstimatorConfig,
) -> float:
    """Doubly robust combination of the outcome and propensity models."""
    treatments, outcomes, focal_risks = _comparator_checks(
        covariates, treatments, outcomes, focal_risks
    )
    m0, m1 = _outcome_model_arm_means(covariates, treatments, outcomes, config.family)
    e = _fitted_propensity(covariates, treatments)
    a = treatments.astype(float)
    influence = m1 - m0 + a * (outcomes - m1) / e - (1.0 - a) * (outcomes - m0) / (1.0 - e)
    weights = gaussian_kernel_weights(focal_risks, r, config.bandwidth)
    return float(weights @ influence)


# Risk scoring, the link derivative and the Bernoulli deviance as they were
# before a cohort's terms were computed once and the IRLS loop took the mean
# and its slope from one link evaluation: kept verbatim as bitwise
# references for ``CohortTerms``, ``predict_risk_batch``,
# ``unstratified_design``, ``mean_and_slope`` and ``_deviance``.

from adaptrd.numerics import _ETA_CAP, _MU_EPS, CLOGLOG, GAUSSIAN  # noqa: E402
from adaptrd.risk_engine import (  # noqa: E402
    PCE_STRATIFIED,
    PCE_TERMS,
    RISK_CEIL,
    RISK_FLOOR,
    SUBGROUPS,
    subgroup_index,
)


def pce_term_values_reference(table: CohortTable) -> dict:
    ln_age = np.log(table.age)
    ln_tc = np.log(table.total_chol)
    ln_hdl = np.log(table.hdl_chol)
    ln_sbp = np.log(table.systolic_bp)
    treated = table.bp_treated.astype(float)
    smoker = table.smoker.astype(float)
    return {
        "ln_age": ln_age,
        "ln_age_sq": ln_age**2,
        "ln_total_chol": ln_tc,
        "ln_age_x_ln_total_chol": ln_age * ln_tc,
        "ln_hdl": ln_hdl,
        "ln_age_x_ln_hdl": ln_age * ln_hdl,
        "ln_sbp_treated": ln_sbp * treated,
        "ln_age_x_ln_sbp_treated": ln_age * ln_sbp * treated,
        "ln_sbp_untreated": ln_sbp * (1.0 - treated),
        "ln_age_x_ln_sbp_untreated": ln_age * ln_sbp * (1.0 - treated),
        "smoker": smoker,
        "ln_age_x_smoker": ln_age * smoker,
        "diabetes": table.diabetes.astype(float),
    }


def unstratified_design_reference(table: CohortTable) -> np.ndarray:
    """Design matrix over UNSTRATIFIED_TERMS (intercept + 13 transforms)."""
    terms = pce_term_values_reference(table)
    cols = [np.ones(len(table))] + [terms[t] for t in PCE_TERMS]
    return np.column_stack(cols)


def pce_risk_batch_reference(table: CohortTable, coeffs) -> np.ndarray:
    terms = pce_term_values_reference(table)
    n = len(table)
    index = subgroup_index(table)
    out = np.empty(n)
    for k, name in enumerate(SUBGROUPS):
        mask = index == k
        if not mask.any():
            continue
        sg = coeffs.subgroups[name]
        lp = np.zeros(mask.sum())
        for t, c in sg.terms.items():
            lp += c * terms[t][mask]
        out[mask] = 1.0 - sg.s0 ** np.exp(lp - sg.lp_bar)
    return np.clip(out, RISK_FLOOR, RISK_CEIL)


def predict_risk_reference(model, table: CohortTable) -> np.ndarray:
    if model.kind == PCE_STRATIFIED:
        return pce_risk_batch_reference(table, model.coefficients)
    design = unstratified_design_reference(table)
    lp = design @ np.asarray(model.glm_theta, dtype=float)
    risk = 1.0 - np.exp(-np.exp(np.clip(lp, -30.0, 30.0)))
    return np.clip(risk, RISK_FLOOR, RISK_CEIL)


def inverse_link_deriv_reference(eta: np.ndarray, family: str) -> np.ndarray:
    """d mu / d eta for each family."""
    if family == GAUSSIAN:
        return np.ones_like(eta)
    eta = np.clip(eta, -_ETA_CAP, _ETA_CAP)
    if family == LOGIT:
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu * (1.0 - mu)
    if family == CLOGLOG:
        return np.exp(eta - np.exp(eta))
    raise ValidationError(f"unknown family: {family}")


def deviance_reference(y: np.ndarray, mu: np.ndarray, w: np.ndarray, family: str) -> float:
    if family == GAUSSIAN:
        return float(np.sum(w * (y - mu) ** 2))
    # y is 0/1, so each row has one log term: log(1/mu) or log(1/(1 - mu)).
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    terms = np.log(np.where(y > 0, 1.0 / mu, 1.0 / (1.0 - mu)))
    return float(2.0 * np.sum(w * terms))


# The GLM fit as it was when every family, Gaussian included, ran the IRLS
# loop: kept verbatim as the bitwise reference for the one-solve Gaussian fit.

from adaptrd.errors import NonConvergenceError  # noqa: E402
from adaptrd.numerics import (  # noqa: E402
    DEVIANCE_TOL,
    MAX_ITER,
    STEP_TOL,
    _finalize_fit,
    _solve_information,
    link_function,
)


def irls_fit_reference(spec: GlmSpec):
    """Maximum-likelihood GLM fit via the IRLS loop, for every family."""
    X = spec.design
    y = spec.response
    n, p = X.shape
    w = spec.weights if spec.weights is not None else np.ones(n)

    # Standard starting value: nudge binary responses toward 0.5.
    if spec.family == GAUSSIAN:
        eta = np.full(n, float(np.average(y, weights=w)) if np.any(w > 0) else 0.0)
    else:
        eta = link_function((y + 0.5) / 2.0, spec.family)

    theta = np.zeros(p)
    dev = np.inf
    info = np.eye(p)

    def irls_step(eta, mu):
        dmu = inverse_link_deriv_reference(eta, spec.family)
        if spec.family == GAUSSIAN:
            irls_w = w
            z = y
        else:
            var = np.clip(mu * (1.0 - mu), _MU_EPS, None)
            dmu = np.clip(dmu, _MU_EPS, None)
            irls_w = w * dmu * dmu / var
            z = eta + (y - mu) / dmu
        Xw = X * irls_w[:, None]
        info = X.T @ Xw
        theta_new = _solve_information(info, Xw.T @ z)
        return theta_new, info

    mu = inverse_link(eta, spec.family)
    for it in range(1, MAX_ITER + 1):
        theta_new, info = irls_step(eta, mu)
        eta = X @ theta_new
        mu = inverse_link(eta, spec.family)
        dev_new = deviance_reference(y, mu, w, spec.family)
        step = float(np.max(np.abs(theta_new - theta))) if it > 1 else np.inf
        rel_dev = abs(dev_new - dev) / (abs(dev) + 1e-300) if np.isfinite(dev) else np.inf
        theta = theta_new
        dev = dev_new
        if step < STEP_TOL or rel_dev < DEVIANCE_TOL:
            # One polishing solve so the score vanishes at the returned theta
            # even when the deviance rule fired first.
            theta, info = irls_step(eta, mu)
            mu = inverse_link(X @ theta, spec.family)
            dev = deviance_reference(y, mu, w, spec.family)
            return _finalize_fit(spec, theta, info, dev, True, it, mu)

    last = _finalize_fit(spec, theta, info, dev, False, MAX_ITER, mu)
    raise NonConvergenceError(
        f"IRLS did not converge in {MAX_ITER} iterations (family={spec.family})",
        last_fit=last,
    )
