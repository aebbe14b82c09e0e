"""Threshold-update and model-update strategies.

Thresholds adapt either toward a target referral rate (quantile of accumulated
risks) or toward a target number needed to treat (via the Cohen's-d
conversion and the fitted effect curve). Models adapt by recalibration (an
intercept/slope map on the cloglog scale of the original linear predictor) or
by revision (a fresh unstratified fit on the covariate transforms, with race
and sex removed). Every update is shrunk toward its original-model baseline
with weight 1/(1 + n/n0), and cadence/warm-up guards keep early noisy data
from steering the trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cohort import CohortTable
from .errors import (
    ConfigError,
    DegenerateSupportError,
    InsufficientDataError,
    ValidationError,
)
from .numerics import CLOGLOG, GlmSpec, fit_glm, linear_quantiles, normal_quantile
from .risk_engine import (
    GLM_UNSTRATIFIED,
    PCE_STRATIFIED,
    CohortTerms,
    RiskModelVersion,
    cloglog_of_risk,
    predict_risk_batch,
    recalibrated_coefficients,
    unstratified_design,
)

MIN_RISKS_FOR_RATE = 20
MIN_OUTCOMES_FOR_UPDATE = 50
DEFAULT_SHRINK_N0 = 5000


# ---------------------------------------------------------------------------
# Strategy configuration


@dataclass(frozen=True)
class FixedThreshold:
    """No threshold update: the trial keeps its ``initial_threshold``."""


@dataclass(frozen=True, kw_only=True)
class UpdateCadence:
    """When an adaptive strategy updates: after ``warmup`` patients, then
    every ``update_every``. A strategy that never updates does not inherit it."""

    warmup: int = 400
    update_every: int = 100

    def __post_init__(self):
        if self.warmup < 1:
            raise ConfigError("warmup must be at least 1")
        if self.update_every < 1:
            raise ConfigError("update_every must be at least 1")


@dataclass(frozen=True)
class RateTargetThreshold(UpdateCadence):
    target_rate: float

    def __post_init__(self):
        if not 0.0 < self.target_rate < 1.0:
            raise ConfigError("target rate must lie in (0, 1)")
        super().__post_init__()


@dataclass(frozen=True)
class NntTargetThreshold(UpdateCadence):
    nnt: float
    smoothing: float = 0.5

    def __post_init__(self):
        if self.nnt <= 1.0:
            raise ConfigError("target NNT must exceed 1")
        if not 0.0 <= self.smoothing <= 1.0:
            raise ConfigError("smoothing must lie in [0, 1]")
        super().__post_init__()


@dataclass(frozen=True)
class NoModelUpdate:
    pass


@dataclass(frozen=True)
class _ModelUpdate(UpdateCadence):
    shrink_n0: int = DEFAULT_SHRINK_N0

    def __post_init__(self):
        super().__post_init__()
        if self.shrink_n0 <= 0:
            raise ConfigError("shrink_n0 must be positive")


class RecalibrateModel(_ModelUpdate):
    """Update by ``recalibrate_model``: a shrunk intercept/slope map of the original model."""


class ReviseModel(_ModelUpdate):
    """Update by ``revise_model``: a shrunk unstratified refit without race and sex."""


# ---------------------------------------------------------------------------
# Threshold updates


def threshold_for_rate(observed_risks: np.ndarray, target_rate: float) -> float:
    """Empirical (1 - rate)-quantile of accumulated raw risks.

    Linear interpolation between order statistics; with enough data the
    fraction of future risks above the returned value approximates the rate.
    """
    risks = np.asarray(observed_risks, dtype=float)
    if risks.size < MIN_RISKS_FOR_RATE:
        raise InsufficientDataError(
            f"need at least {MIN_RISKS_FOR_RATE} observed risks, got {risks.size}"
        )
    if not 0.0 < target_rate < 1.0:
        raise ConfigError("target rate must lie in (0, 1)")
    return float(linear_quantiles(risks, (1.0 - target_rate,))[0])


def nnt_to_cohens_d(nnt: float) -> float:
    """The d solving NNT = 1 / (2 Phi(d / sqrt 2) - 1), in closed form.

    The quantile is taken in the lower tail, where (1 - 1/NNT) / 2 keeps its
    digits as NNT nears 1, so d is finite for every float NNT above 1.
    """
    if not nnt > 1.0:
        raise ConfigError("NNT must exceed 1")
    return -math.sqrt(2.0) * normal_quantile((1.0 - 1.0 / nnt) / 2.0)


def pooled_outcome_sd(outcomes: np.ndarray, treatments: np.ndarray) -> float:
    """Square root of the df-weighted average of per-arm outcome variances."""
    outcomes = np.asarray(outcomes, dtype=float)
    treatments = np.asarray(treatments)
    y1 = outcomes[treatments == 1]
    y0 = outcomes[treatments == 0]
    if y1.size < 2 or y0.size < 2:
        raise InsufficientDataError("both arms need at least 2 outcomes for a pooled SD")
    v1 = float(np.var(y1, ddof=1))
    v0 = float(np.var(y0, ddof=1))
    pooled = ((y1.size - 1) * v1 + (y0.size - 1) * v0) / (y1.size + y0.size - 2)
    sd = math.sqrt(pooled)
    if sd <= 0.0:
        raise DegenerateSupportError("pooled outcome variance is zero")
    return sd


def cohens_d_curve(
    effect_curve: Sequence[tuple[float, float]], pooled_sd: float
) -> list[tuple[float, float]]:
    """Pointwise |effect| / pooled SD along an (r, beta_hat) curve."""
    if pooled_sd <= 0:
        raise DegenerateSupportError("pooled SD must be positive")
    return [(r, abs(b) / pooled_sd) for r, b in effect_curve]


def threshold_for_nnt(
    d_curve: Sequence[tuple[float, float]],
    target_d: float,
    previous_threshold: float,
    smoothing: float = 0.5,
) -> float:
    """Pick the risk whose effect size is closest to the target, then smooth.

    Ties break toward the smallest risk (treat more patients when
    indifferent); the new threshold averages with the previous one at the
    configured smoothing weight.
    """
    if not d_curve:
        raise InsufficientDataError("effect-size curve is empty")
    if not 0.0 <= smoothing <= 1.0:
        raise ConfigError("smoothing must lie in [0, 1]")
    best_r = None
    best_gap = math.inf
    for r, d in d_curve:
        gap = abs(d - target_d)
        if gap < best_gap - 1e-15 or (abs(gap - best_gap) <= 1e-15 and r < best_r):
            best_gap = gap
            best_r = r
    return smoothing * previous_threshold + (1.0 - smoothing) * best_r


# ---------------------------------------------------------------------------
# Coefficient shrinkage and model updates


def shrink_weight(n: int, n0: int) -> float:
    return 1.0 / (1.0 + n / n0)


def shrink_coefficients(
    new_theta: np.ndarray, original_theta: np.ndarray, n: int, n0: int
) -> np.ndarray:
    """w*original + (1-w)*new with w = 1/(1 + n/n0).

    All weight sits on the original at n=0; a 50/50 average at n=n0; the new
    coefficients take over as n grows.
    """
    new_theta = np.asarray(new_theta, dtype=float)
    original_theta = np.asarray(original_theta, dtype=float)
    if new_theta.shape != original_theta.shape:
        raise ValidationError("coefficient vectors must have equal length")
    if n < 0 or n0 <= 0:
        raise ConfigError("need n >= 0 and n0 > 0")
    w = shrink_weight(n, n0)
    return w * original_theta + (1.0 - w) * new_theta


def _update_inputs(
    covariates: CohortTable | CohortTerms,
    treatments: np.ndarray,
    outcomes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    treatments = np.asarray(treatments, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    n = len(covariates)
    if treatments.shape != (n,) or outcomes.shape != (n,):
        raise ValidationError("treatments/outcomes must align with covariates")
    if n < MIN_OUTCOMES_FOR_UPDATE:
        raise InsufficientDataError(
            f"model updates need at least {MIN_OUTCOMES_FOR_UPDATE} completed outcomes"
        )
    if treatments.min() == treatments.max():
        raise InsufficientDataError("model updates need outcomes from both arms")
    return treatments, outcomes


def recalibrate_model(
    covariates: CohortTable | CohortTerms,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    original_model: RiskModelVersion,
    n0: int = DEFAULT_SHRINK_N0,
    next_version_id: Optional[int] = None,
) -> RiskModelVersion:
    """Refit an intercept/slope/treatment calibration of the original model.

    A Bernoulli complementary log-log regression of observed events on the
    original model's cloglog risk and the treatment flag; the fitted
    (intercept, slope, treatment) triple is shrunk toward the identity
    (0, 1, 0) and folded back into the stratified coefficient table exactly.
    Prediction for new patients is at treatment = 0. ``covariates`` is a
    ``CohortTable`` or its ``CohortTerms``.
    """
    if original_model.kind != PCE_STRATIFIED:
        raise ConfigError("recalibration starts from the stratified model")
    treatments, outcomes = _update_inputs(covariates, treatments, outcomes)
    z = cloglog_of_risk(predict_risk_batch(original_model, covariates))
    design = np.column_stack([np.ones(len(covariates)), z, treatments])
    fit = fit_glm(GlmSpec(family=CLOGLOG, design=design, response=outcomes))
    fitted = fit.theta
    shrunk = shrink_coefficients(fitted, np.array([0.0, 1.0, 0.0]), len(covariates), n0)
    coeffs = recalibrated_coefficients(
        original_model.coefficients, intercept=float(shrunk[0]), slope=float(shrunk[1])
    )
    vid = next_version_id if next_version_id is not None else original_model.version_id + 1
    return RiskModelVersion(
        version_id=vid,
        kind=PCE_STRATIFIED,
        provenance="recalibrated",
        coefficients=coeffs,
        fit_details={
            "fitted_intercept": float(fitted[0]),
            "fitted_slope": float(fitted[1]),
            "fitted_treatment": float(fitted[2]),
            "shrunk_intercept": float(shrunk[0]),
            "shrunk_slope": float(shrunk[1]),
            "n": len(covariates),
            "shrink_weight": shrink_weight(len(covariates), n0),
        },
    )


def revise_model(
    covariates: CohortTable | CohortTerms,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    original_model: RiskModelVersion,
    n0: int = DEFAULT_SHRINK_N0,
    next_version_id: Optional[int] = None,
) -> RiskModelVersion:
    """Refit a single unstratified cloglog GLM, dropping race and sex.

    The design holds the covariate transforms only (no demographic terms), so
    two patients differing only in race or sex get identical revised risks.
    The original stratified model is projected onto this design by least
    squares on its own cloglog risks over the accumulated cohort, giving a
    well-typed shrinkage baseline; the treatment coefficient's baseline is 0
    and prediction is at treatment = 0. ``covariates`` is a ``CohortTable``
    or its ``CohortTerms``, whose design is read, not rebuilt.
    """
    treatments, outcomes = _update_inputs(covariates, treatments, outcomes)
    design = unstratified_design(covariates)
    z = cloglog_of_risk(predict_risk_batch(original_model, covariates))
    baseline, *_ = np.linalg.lstsq(design, z, rcond=None)
    full_design = np.column_stack([design, treatments])
    fit = fit_glm(GlmSpec(family=CLOGLOG, design=full_design, response=outcomes))
    baseline_full = np.concatenate([baseline, [0.0]])
    shrunk = shrink_coefficients(fit.theta, baseline_full, len(covariates), n0)
    vid = next_version_id if next_version_id is not None else original_model.version_id + 1
    return RiskModelVersion(
        version_id=vid,
        kind=GLM_UNSTRATIFIED,
        provenance="revised",
        glm_theta=shrunk[:-1],
        fit_details={
            "fitted_treatment": float(fit.theta[-1]),
            "n": len(covariates),
            "shrink_weight": shrink_weight(len(covariates), n0),
        },
    )
