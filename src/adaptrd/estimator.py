"""Local treatment-effect estimation on counterfactual risk matrices.

The main estimator fits a GLM of observed outcomes on the full counterfactual
risk profile: per-arm natural cubic splines in the focal (current
model/threshold) shifted risk, plus a shared linear block of principal
components of the other model versions' risks residualized on the focal one.
Predicted potential outcomes under each arm are then marginalized with a
Gaussian kernel over the focal risks, yielding the local effect at any risk
value with a delta-method standard error and Wald interval.

When the model never changed, every column is the focal one shifted by a
constant, the PC block is empty, and the whole pipeline collapses to a
standard one dimensional per-arm-spline kernel RD estimate.

Four comparator estimators (difference in means, kernel-weighted outcome
regression, IPW, and AIPW on a fixed covariate list) are included for
benchmarking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cohort import CohortTable
from .errors import (
    ConfigError,
    DegenerateSupportError,
    InsufficientDataError,
    ValidationError,
)
from .numerics import (
    FAMILIES,
    GAUSSIAN,
    LOGIT,
    GlmFit,
    GlmSpec,
    PcaResult,
    SplineBasis,
    choose_knots,
    fit_glm,
    gaussian_kernel_weights,
    inverse_link,
    linear_quantiles,
    mean_and_slope,
    natural_cubic_basis,
    normal_quantile,
    pca,
    residualize,
)
from .risk_engine import CounterfactualRiskMatrix

MIN_PER_ARM = 10


@dataclass(frozen=True)
class EstimatorConfig:
    spline_df: int = 2
    pca_variance: float = 0.90
    bandwidth: float = 0.02
    family: str = GAUSSIAN
    confidence: float = 0.95
    min_effective: float = 5.0

    def __post_init__(self):
        if self.spline_df < 1:
            raise ConfigError("spline_df must be >= 1")
        if not 0.0 < self.pca_variance <= 1.0:
            raise ConfigError("pca_variance must lie in (0, 1]")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family: {self.family}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence level must lie in (0, 1)")


@dataclass
class EffectEstimate:
    """Local effect at one shifted-risk value, with arm means and a Wald CI."""

    r: float
    beta_hat: float
    se: float
    ci: tuple[float, float]
    mu1_hat: float
    mu0_hat: float
    eff_n_treated: float
    eff_n_untreated: float
    low_support: bool = False


@dataclass(frozen=True, eq=False)
class FittedOutcomeSurface:
    """Fitted GLM, the design's pieces and both arms' predictions on the fitted rows.

    The focal column's shifted risks enter through per-arm natural cubic
    splines. Each non-focal version enters through its first distinct column,
    residualized on the focal one, and the residuals through the retained
    principal components. ``X0`` and ``X1`` are every fitted patient's design
    row forced to each arm, with the means and link derivatives they give.
    Every array, ``fit.theta`` and ``fit.cov`` included, is read-only, so no
    in-place edit after the fit moves an evaluation.
    """

    fit: GlmFit
    treated: np.ndarray  # logged arm of each fitted patient
    focal: np.ndarray
    X0: np.ndarray = field(repr=False)
    X1: np.ndarray = field(repr=False)
    mu0: np.ndarray = field(repr=False)
    mu1: np.ndarray = field(repr=False)
    effect: np.ndarray = field(repr=False)  # mu1 - mu0
    d0: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    nonfocal_columns: tuple[int, ...]  # each non-focal version's first distinct column
    pca_result: PcaResult
    basis_untreated: SplineBasis
    basis_treated: SplineBasis


def _arm_design(arm: float, b0, b1, scores) -> np.ndarray:
    """Every patient's design row with the arm indicator set to ``arm``."""
    n = scores.shape[0]
    cols = [np.ones(n), b0 * (1.0 - arm), np.full(n, arm), b1 * arm]
    if scores.shape[1] > 0:
        cols.append(scores)
    return np.column_stack(cols)


def _require_arm_sizes(n_untreated, n_treated) -> None:
    """Raise ``InsufficientDataError`` naming each arm below ``MIN_PER_ARM``."""
    counts = (("untreated", n_untreated), ("treated", n_treated))
    short = " and ".join(arm for arm, count in counts if count < MIN_PER_ARM)
    if short:
        raise InsufficientDataError(f"too few {short} patients: need at least {MIN_PER_ARM} per arm")


def fit_outcome_surface(
    matrix: CounterfactualRiskMatrix,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    config: EstimatorConfig,
) -> FittedOutcomeSurface:
    """Fit the two-arm spline GLM on the counterfactual risk profile.

    Pipeline: residualize each non-focal model version's risks on the focal
    column, compress the residuals with PCA at the configured variance
    threshold, build the per-arm spline design (knots chosen separately from
    each arm's focal risks), and fit the configured GLM family.
    """
    treatments = np.asarray(treatments)
    outcomes = np.asarray(outcomes, dtype=float)
    n = matrix.n_patients
    if treatments.shape != (n,) or outcomes.shape != (n,):
        raise ValidationError("treatments/outcomes must align with the matrix rows")
    if not np.isin(treatments, (0, 1)).all():
        raise ValidationError("treatments must all be 0 or 1")
    treated = treatments == 1
    n1 = int(np.count_nonzero(treated))
    _require_arm_sizes(n - n1, n1)
    focal_col = matrix.focal_index
    focal = matrix.focal_shifted
    if float(focal.max() - focal.min()) <= 1e-12:
        raise DegenerateSupportError("focal risk column is constant")

    # A column of the focal version is the focal column plus a constant and
    # has no residual; any other version's columns share one residual, so
    # each such version enters once, through its first column.
    versions = matrix.version_index.tolist()
    nonfocal = tuple(
        d for d, v in enumerate(versions) if v != versions[focal_col] and versions.index(v) == d
    )
    resid = np.empty((n, len(nonfocal)))
    for i, d in enumerate(nonfocal):
        resid[:, i] = residualize(matrix.shifted_column(d), focal)
    pca_result = pca(resid, config.pca_variance)
    basis_untreated = choose_knots(focal[~treated], config.spline_df)
    basis_treated = choose_knots(focal[treated], config.spline_df)
    terms = (
        natural_cubic_basis(focal, basis_untreated),
        natural_cubic_basis(focal, basis_treated),
        pca_result.transform(resid),
    )
    X0, X1 = _arm_design(0.0, *terms), _arm_design(1.0, *terms)
    # Each logged row is its own arm's row, bit for bit.
    X = np.where(treated[:, None], X1, X0)
    fit = fit_glm(GlmSpec(family=config.family, design=X, response=outcomes))
    mu0, d0 = mean_and_slope(X0 @ fit.theta, fit.family)
    mu1, d1 = mean_and_slope(X1 @ fit.theta, fit.family)
    arrays = (treated, focal, X0, X1, mu0, mu1, mu1 - mu0, d0, d1)
    for values in (fit.theta, fit.cov, *arrays):
        values.flags.writeable = False
    return FittedOutcomeSurface(
        fit, *arrays, nonfocal, pca_result, basis_untreated, basis_treated
    )


def _effect_gradient(surface: FittedOutcomeSurface, weights: np.ndarray) -> np.ndarray:
    """Gradient in theta of the kernel-weighted effect functional.

    The kernel weights are fixed functions of the logged risks, so the
    gradient chains only through the inverse link at each patient's two
    counterfactual design rows.
    """
    return surface.X1.T @ (weights * surface.d1) - surface.X0.T @ (weights * surface.d0)


def _effect_at(
    surface: FittedOutcomeSurface,
    r: float,
    weights: np.ndarray,
    config: EstimatorConfig,
    z: float,
) -> EffectEstimate:
    """Local effect at ``r`` from its kernel weights, with the delta-method SE and ``z``-Wald CI."""
    beta = float(weights @ surface.effect)
    grad = _effect_gradient(surface, weights)
    quad = float(grad @ surface.fit.cov @ grad)
    if quad < -1e-10:
        raise ValidationError(f"covariance quadratic form is negative: {quad}")
    se = float(np.sqrt(max(quad, 0.0)))
    n = surface.focal.size
    eff_n1 = float(weights[surface.treated].sum() * n)
    eff_n0 = float(weights[~surface.treated].sum() * n)
    return EffectEstimate(
        r=float(r),
        beta_hat=beta,
        se=se,
        ci=(beta - z * se, beta + z * se),
        mu1_hat=float(weights @ surface.mu1),
        mu0_hat=float(weights @ surface.mu0),
        eff_n_treated=eff_n1,
        eff_n_untreated=eff_n0,
        low_support=min(eff_n0, eff_n1) < config.min_effective,
    )


def estimate_effect(
    surface: FittedOutcomeSurface, config: EstimatorConfig, r: float
) -> EffectEstimate:
    """Kernel-weighted local effect and arm means at shifted risk ``r`` on the fitted rows."""
    z = normal_quantile(0.5 + config.confidence / 2.0)
    weights = gaussian_kernel_weights(surface.focal, r, config.bandwidth)
    return _effect_at(surface, r, weights, config, z)


# Grid points whose kernel weights are built together: the block is this
# many rows by the number of patients, whatever the grid length.
KERNEL_CHUNK_ROWS = 16


def _kernel_chunks(focal: np.ndarray, grid: np.ndarray, bandwidth: float):
    """Yield each chunk of ``grid`` with its ``KernelRows``, read before the next.

    Every chunk's block is written into one buffer: allocating a fresh block
    per chunk costs more than the kernel saves by working on blocks.
    """
    buffer = np.empty((min(grid.size, KERNEL_CHUNK_ROWS), focal.size))
    for start in range(0, grid.size, KERNEL_CHUNK_ROWS):
        chunk = grid[start : start + KERNEL_CHUNK_ROWS]
        yield chunk, gaussian_kernel_weights(focal, chunk, bandwidth, out=buffer[: chunk.size])


@dataclass(eq=False)
class EffectCurve:
    """The effect at every supported grid point; unsupported points are in ``skipped``.

    ``r`` and ``beta`` are computed eagerly. The full estimates (SE, CI, arm
    means, effective counts) are computed on the first read of ``estimates``.
    """

    r: np.ndarray
    beta: np.ndarray
    skipped: list[tuple[float, str]]
    surface: FittedOutcomeSurface = field(repr=False)
    config: EstimatorConfig = field(repr=False)

    @functools.cached_property
    def estimates(self) -> list[EffectEstimate]:
        z = normal_quantile(0.5 + self.config.confidence / 2.0)
        out = []
        for chunk, rows in _kernel_chunks(self.surface.focal, self.r, self.config.bandwidth):
            # Every point of r is supported, so each has its row.
            for r, weights in zip(chunk.tolist(), rows.weights):
                out.append(_effect_at(self.surface, r, weights, self.config, z))
        return out


def effect_curve(
    surface: FittedOutcomeSurface, config: EstimatorConfig, grid: np.ndarray
) -> EffectCurve:
    """Evaluate the effect across a grid on the fitted rows; unsupported points are reported."""
    rs = []
    betas = []
    skipped = []
    grid = np.asarray(grid, dtype=float)
    for chunk, rows in _kernel_chunks(surface.focal, grid, config.bandwidth):
        rs.append(chunk[rows.supported])
        # A stack of (1, m) by (m,) products takes the same dot per row as
        # ``weights @ effect``; a single matrix-vector product over the
        # block would sum in another order and move the last bits.
        betas.append((rows.weights[:, None, :] @ surface.effect)[:, 0])
        skipped.extend(rows.skipped)
    return EffectCurve(
        r=np.concatenate(rs) if rs else np.empty(0),
        beta=np.concatenate(betas) if betas else np.empty(0),
        skipped=skipped,
        surface=surface,
        config=config,
    )


def default_grid(focal_risks: np.ndarray, points: int = 101) -> np.ndarray:
    """Evenly spaced grid over the central 98% of the focal risks."""
    lo, hi = linear_quantiles(focal_risks, (0.01, 0.99)).tolist()
    if hi <= lo:
        raise DegenerateSupportError("risk support is degenerate")
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------------------
# Comparator estimators


def naive_diff(outcomes: np.ndarray, treatments: np.ndarray) -> float:
    """Difference in arm means, ignoring risks and covariates entirely."""
    outcomes = np.asarray(outcomes, dtype=float)
    treatments = np.asarray(treatments)
    y1 = outcomes[treatments == 1]
    y0 = outcomes[treatments == 0]
    if y1.size == 0 or y0.size == 0:
        raise InsufficientDataError("both arms must be non-empty")
    return float(y1.mean() - y0.mean())


# Fixed predictor list shared by the regression-based comparators.
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
    """Copies of the three per-patient arrays, checked for length and arm sizes."""
    treatments = np.array(treatments)
    outcomes = np.array(outcomes, dtype=float)
    focal_risks = np.array(focal_risks, dtype=float)
    n = len(covariates)
    if treatments.shape != (n,) or outcomes.shape != (n,) or focal_risks.shape != (n,):
        raise ValidationError("comparator inputs must have aligned lengths")
    _require_arm_sizes(np.sum(treatments == 0), np.sum(treatments == 1))
    return treatments, outcomes, focal_risks


PROPENSITY_CLIP = (0.01, 0.99)


@dataclass(frozen=True, eq=False)
class ComparatorInputs:
    """One evaluation's data for outcome regression, IPW and AIPW.

    The arrays are read-only copies, so editing the caller's arrays later
    changes no fit. Each fitted piece is computed on its first successful
    read and then shared by every comparator; a piece whose computation
    raises is not kept, so each comparator that reads it reports the error.
    """

    design: np.ndarray  # intercept plus COMPARATOR_PREDICTORS, one row per patient
    treatments: np.ndarray
    outcomes: np.ndarray
    focal_risks: np.ndarray
    r: float
    config: EstimatorConfig

    @functools.cached_property
    def arm_means(self) -> tuple[np.ndarray, np.ndarray]:
        """(m0, m1): one GLM of outcome on the predictors plus treatment, predicted per arm."""
        base = self.design
        n = base.shape[0]
        family = self.config.family
        design = np.column_stack([base, self.treatments.astype(float)])
        fit = fit_glm(GlmSpec(family=family, design=design, response=self.outcomes))
        m0 = inverse_link(np.column_stack([base, np.zeros(n)]) @ fit.theta, family)
        m1 = inverse_link(np.column_stack([base, np.ones(n)]) @ fit.theta, family)
        return m0, m1

    @functools.cached_property
    def propensity(self) -> np.ndarray:
        """Logistic propensity on the predictors, clipped to ``PROPENSITY_CLIP``."""
        fit = fit_glm(
            GlmSpec(family=LOGIT, design=self.design, response=self.treatments.astype(float))
        )
        e = inverse_link(self.design @ fit.theta, LOGIT)
        return np.clip(e, *PROPENSITY_CLIP)

    @functools.cached_property
    def kernel_weights(self) -> np.ndarray:
        """Normalized kernel weights of the focal risks around ``r``."""
        return gaussian_kernel_weights(self.focal_risks, self.r, self.config.bandwidth)


def comparator_inputs(
    covariates: CohortTable,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    focal_risks: np.ndarray,
    r: float,
    config: EstimatorConfig,
) -> ComparatorInputs:
    """Check and snapshot the data the three regression-based comparators share."""
    checked = _comparator_checks(covariates, treatments, outcomes, focal_risks)
    design = _comparator_design(covariates)
    for values in (design, *checked):
        values.flags.writeable = False
    return ComparatorInputs(design, *checked, r, config)


# Each comparator reads its pieces in the same order (outcome model, then
# propensity, then kernel row), so a failing piece gives every comparator
# that needs it the same error.


def outcome_regression_ate(inputs: ComparatorInputs) -> float:
    """Kernel-smoothed counterfactual-prediction contrast from one GLM."""
    m0, m1 = inputs.arm_means
    return float(inputs.kernel_weights @ (m1 - m0))


def ipw_ate(inputs: ComparatorInputs) -> float:
    """Kernel-weighted average of propensity-scaled pseudo-outcomes."""
    e = inputs.propensity
    a = inputs.treatments.astype(float)
    pseudo = (a / e - (1.0 - a) / (1.0 - e)) * inputs.outcomes
    return float(inputs.kernel_weights @ pseudo)


def aipw_ate(inputs: ComparatorInputs) -> float:
    """Doubly robust combination of the outcome and propensity models."""
    m0, m1 = inputs.arm_means
    e = inputs.propensity
    a = inputs.treatments.astype(float)
    y = inputs.outcomes
    influence = m1 - m0 + a * (y - m1) / e - (1.0 - a) * (y - m0) / (1.0 - e)
    return float(inputs.kernel_weights @ influence)
