"""Outcome data-generating processes and the true-effect oracle.

Three parametric outcome models, all driven by the patient's baseline risk
(the raw risk under the original, never-updated model) and treatment flag:

* ``attendance`` - linear probability of attending a prevention visit, with
  the treatment benefit peaking at moderate baseline risk;
* ``cholesterol`` - Gaussian change in total cholesterol whose treatment
  effect scales linearly with baseline risk;
* ``ascvd`` - event probability from a deliberately miscalibrated
  complementary log-log transform of baseline risk plus a treatment shift.

Because baseline risk is pinned to the original model, the ground truth is
invariant to any threshold or model adaptation that happens during a trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ValidationError
from .numerics import gaussian_kernel_weights
from .seeds import SeedStream

ATTENDANCE = "attendance"
CHOLESTEROL = "cholesterol"
ASCVD = "ascvd"
VARIANTS = (ATTENDANCE, CHOLESTEROL, ASCVD)

BINARY = "binary"
CONTINUOUS = "continuous"

_CLL_FLOOR = 1e-12


@dataclass
class ClampStats:
    """Counts probability clamping events so silent truncation is visible."""

    count: int = 0

    def record(self, n: int = 1) -> None:
        self.count += n


@dataclass(frozen=True)
class AttendanceParams:
    alpha1: float = 0.10
    alpha2: float = 0.25 * 16.0 / 9.0

    def __post_init__(self):
        # Implied probabilities must stay in [0, 1] across the whole risk
        # range for both arms; checked on a grid rather than symbolically.
        grid = np.linspace(0.0, 1.0, 101)
        for a in (0.0, 1.0):
            p = self.alpha1 * grid + self.alpha2 * a * (grid + 0.5) * (1.0 - grid)
            if p.min() < -1e-9 or p.max() > 1.0 + 1e-9:
                raise ConfigError(
                    "attendance params imply probabilities outside [0, 1]"
                )


@dataclass(frozen=True)
class CholesterolParams:
    beta1: float = 2.0
    beta2: float = -10.0
    sigma: float = 5.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")


@dataclass(frozen=True)
class AscvdParams:
    gamma1: float = 0.1
    gamma2: float = 0.9
    gamma3: float = 0.4


ParamsType = Union[AttendanceParams, CholesterolParams, AscvdParams]
PARAMS_BY_VARIANT = {
    ATTENDANCE: AttendanceParams,
    CHOLESTEROL: CholesterolParams,
    ASCVD: AscvdParams,
}


@dataclass(frozen=True)
class OutcomeModel:
    variant: str
    params: ParamsType = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown outcome variant: {self.variant}")
        expected = PARAMS_BY_VARIANT[self.variant]
        if self.params is None:
            object.__setattr__(self, "params", expected())
        if not isinstance(self.params, expected):
            raise ConfigError(
                f"{self.variant} outcome needs {expected.__name__} params"
            )

    @property
    def kind(self) -> str:
        return CONTINUOUS if self.variant == CHOLESTEROL else BINARY


def attendance_prob(
    r1, a, p: AttendanceParams, clamp_stats: Optional[ClampStats] = None
):
    """P(attend) = alpha1*r + alpha2*a*(r + .5)(1 - r); peak benefit at r=.25."""
    r1 = np.asarray(r1, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_unit_range(r1)
    raw = p.alpha1 * r1 + p.alpha2 * a * (r1 + 0.5) * (1.0 - r1)
    out = np.clip(raw, 0.0, 1.0)
    if clamp_stats is not None:
        clamp_stats.record(int(np.sum(raw != out)))
    return float(out) if out.ndim == 0 else out


def cholesterol_mean(r1, a, p: CholesterolParams):
    """Mean cholesterol change beta1 + beta2*a*r; draws add Normal(0, sigma)."""
    r1 = np.asarray(r1, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_unit_range(r1)
    out = p.beta1 + p.beta2 * a * r1
    return float(out) if out.ndim == 0 else out


def ascvd_prob(r1, a, p: AscvdParams):
    """Event probability through a shifted/scaled cloglog of baseline risk.

    With gamma=(0,1,0) this is exactly the identity map on (0, 1); the
    defaults introduce deliberate miscalibration plus a treatment shift.
    """
    r1 = np.asarray(r1, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_unit_range(r1)
    r = np.clip(r1, _CLL_FLOOR, 1.0 - _CLL_FLOOR)
    eta = p.gamma1 + p.gamma2 * np.log(-np.log1p(-r)) + p.gamma3 * a
    out = 1.0 - np.exp(-np.exp(eta))
    return float(out) if out.ndim == 0 else out


def _check_unit_range(r1: np.ndarray) -> None:
    if np.any(r1 < -1e-12) or np.any(r1 > 1.0 + 1e-12):
        raise ValidationError("baseline risk must lie in [0, 1]")


def _outcome_mean(model: OutcomeModel, r1, a, clamp_stats=None):
    if model.variant == ATTENDANCE:
        return attendance_prob(r1, a, model.params, clamp_stats)
    if model.variant == CHOLESTEROL:
        return cholesterol_mean(r1, a, model.params)
    return ascvd_prob(r1, a, model.params)


def draw_noise(model: OutcomeModel, stream: SeedStream, n: int) -> np.ndarray:
    """Pre-draw per-patient outcome noise: uniforms (binary) or normals."""
    rng = stream.generator()
    if model.kind == BINARY:
        return rng.uniform(size=n)
    return rng.standard_normal(n)


def outcomes_from_noise(
    model: OutcomeModel,
    r1: np.ndarray,
    a: np.ndarray,
    noise: np.ndarray,
    clamp_stats: Optional[ClampStats] = None,
) -> np.ndarray:
    """Deterministic outcome transform of pre-drawn noise.

    Keeps each patient's outcome a function of (baseline risk, treatment,
    own noise) only, so adaptation can never leak into the ground truth.
    """
    mean = _outcome_mean(model, r1, a, clamp_stats)
    if model.kind == BINARY:
        return (noise < mean).astype(float)
    return mean + model.params.sigma * noise


def true_local_ate(model: OutcomeModel, r1):
    """Treated-minus-untreated conditional mean at a baseline risk value."""
    ones = np.ones_like(np.asarray(r1, dtype=float))
    out = _outcome_mean(model, r1, ones) - _outcome_mean(model, r1, 0.0 * ones)
    return float(out) if np.ndim(out) == 0 else out


def true_smoothed_ate(
    model: OutcomeModel,
    baseline_risks: np.ndarray,
    r: float,
    h: float,
    weight_values: Optional[np.ndarray] = None,
) -> float:
    """Kernel-weighted average of true local effects across a cohort.

    ``weight_values`` selects the variable the kernel runs over (the
    estimator weights on the shifted focal risks; the default weights on the
    baseline risks themselves).
    """
    baseline_risks = np.asarray(baseline_risks, dtype=float)
    wv = baseline_risks if weight_values is None else np.asarray(weight_values, dtype=float)
    if wv.shape != baseline_risks.shape:
        raise ValidationError("weight values must align with baseline risks")
    w = gaussian_kernel_weights(wv, r, h)
    return float(w @ true_local_ate(model, baseline_risks))


def true_smoothed_arm_mean(
    model: OutcomeModel,
    baseline_risks: np.ndarray,
    arm: int,
    r: float,
    h: float,
    weight_values: Optional[np.ndarray] = None,
) -> float:
    """Kernel-weighted true conditional mean potential outcome for one arm."""
    baseline_risks = np.asarray(baseline_risks, dtype=float)
    wv = baseline_risks if weight_values is None else np.asarray(weight_values, dtype=float)
    w = gaussian_kernel_weights(wv, r, h)
    means = _outcome_mean(model, baseline_risks, float(arm) * np.ones_like(baseline_risks))
    return float(w @ means)
