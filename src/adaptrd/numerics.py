"""Self-contained numerical kernel.

Implements the pieces of statistical machinery the estimator is built from:
iteratively reweighted least squares (IRLS) for three GLM families, linear
sample quantiles, natural cubic spline bases, PCA on small dense matrices,
Gaussian kernel weights and the standard normal CDF. Everything here is pure
and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import erfc, ndtri

from .errors import (
    DegenerateSupportError,
    EffectiveSupportError,
    NonConvergenceError,
    NumericError,
    RankDeficiencyError,
    ValidationError,
)

GAUSSIAN = "gaussian_identity"
LOGIT = "bernoulli_logit"
CLOGLOG = "bernoulli_cloglog"
FAMILIES = (GAUSSIAN, LOGIT, CLOGLOG)

# IRLS controls; surfaced here rather than buried in the loop.
STEP_TOL = 1e-8
DEVIANCE_TOL = 1e-10
MAX_ITER = 100
RIDGE_JITTER = 1e-10

_MU_EPS = 1e-10
_ETA_CAP = 30.0


# ---------------------------------------------------------------------------
# GLM families


def inverse_link(eta: np.ndarray, family: str) -> np.ndarray:
    if family == GAUSSIAN:
        return eta
    eta = np.clip(eta, -_ETA_CAP, _ETA_CAP)
    if family == LOGIT:
        return 1.0 / (1.0 + np.exp(-eta))
    if family == CLOGLOG:
        return 1.0 - np.exp(-np.exp(eta))
    raise ValidationError(f"unknown family: {family}")


def mean_and_slope(eta: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The mean ``inverse_link(eta)`` and its slope d mu / d eta, from one clip.

    The logit slope is mu (1 - mu); the cloglog mean 1 - exp(-exp(eta)) and
    slope exp(eta - exp(eta)) share one exp(eta).
    """
    if family == GAUSSIAN:
        return eta, np.ones_like(eta)
    eta = np.clip(eta, -_ETA_CAP, _ETA_CAP)
    if family == LOGIT:
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu, mu * (1.0 - mu)
    if family == CLOGLOG:
        exp_eta = np.exp(eta)
        return 1.0 - np.exp(-exp_eta), np.exp(eta - exp_eta)
    raise ValidationError(f"unknown family: {family}")


def link_function(mu: np.ndarray, family: str) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if family == GAUSSIAN:
        return mu
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    if family == LOGIT:
        return np.log(mu / (1.0 - mu))
    if family == CLOGLOG:
        return np.log(-np.log(1.0 - mu))
    raise ValidationError(f"unknown family: {family}")


def _deviance(y: np.ndarray, mu: np.ndarray, w: np.ndarray, family: str) -> float:
    if family == GAUSSIAN:
        return float(np.sum(w * (y - mu) ** 2))
    # y is 0/1, so each row has one log term: log(1/mu) or log(1/(1 - mu)).
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    terms = np.log(1.0 / np.where(y > 0, mu, 1.0 - mu))
    return float(2.0 * np.sum(w * terms))


@dataclass
class GlmSpec:
    """A GLM fitting problem: family, design, response, optional weights."""

    family: str
    design: np.ndarray
    response: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family: {self.family}")
        self.design = np.asarray(self.design, dtype=float)
        self.response = np.asarray(self.response, dtype=float)
        if self.design.ndim != 2:
            raise ValidationError("design must be a 2-D matrix")
        n, p = self.design.shape
        if n < p:
            raise ValidationError(f"need n >= p, got n={n}, p={p}")
        if self.response.shape != (n,):
            raise ValidationError("response length must match design rows")
        if not np.all(np.isfinite(self.design)):
            raise ValidationError("design matrix contains non-finite values")
        if not np.all(np.isfinite(self.response)):
            raise ValidationError("response contains non-finite values")
        if self.family != GAUSSIAN and not np.all((self.response == 0) | (self.response == 1)):
            raise ValidationError("bernoulli response must be binary 0/1")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (n,):
                raise ValidationError("weights length must match design rows")
            if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
                raise ValidationError("weights must be non-negative and finite")


@dataclass
class GlmFit:
    """Coefficients, covariance and convergence state of a fitted GLM."""

    theta: np.ndarray
    cov: np.ndarray
    family: str
    dispersion: float
    converged: bool
    iterations: int
    deviance: float
    boundary_fit: bool = False  # fitted means pinned at the clamp (e.g. separation)


def _solve_information(info: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve info @ x = rhs, retrying once with ridge jitter on the diagonal."""
    for jitter in (None, RIDGE_JITTER):
        matrix = info if jitter is None else info + jitter * np.eye(info.shape[0])
        try:
            chol = np.linalg.cholesky(matrix)
            return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs.T)).T
        except np.linalg.LinAlgError as exc:
            error = exc
    raise RankDeficiencyError("information matrix singular after ridge jitter") from error


def fit_glm(spec: GlmSpec) -> GlmFit:
    """Maximum-likelihood GLM fit via IRLS.

    A Gaussian fit is one weighted least-squares solve, reported with
    ``iterations == 1``: under the identity link and constant variance the
    working weights and response do not depend on the linear predictor, so
    the first IRLS step is the maximum-likelihood fit. A Bernoulli fit
    converges when the max coefficient step drops below ``STEP_TOL`` or the
    relative deviance change drops below ``DEVIANCE_TOL``. Raises
    NonConvergenceError (carrying the last iterate) after ``MAX_ITER``
    iterations or, for a Gaussian fit, when the solve overflows; raises
    RankDeficiencyError if the weighted information stays singular after a
    ridge jitter.
    """
    X = spec.design
    y = spec.response
    n, p = X.shape
    w = spec.weights if spec.weights is not None else np.ones(n)

    def weighted_solve(irls_w, z):
        Xw = X * irls_w[:, None]
        info = X.T @ Xw
        return _solve_information(info, Xw.T @ z), info

    if spec.family == GAUSSIAN:
        theta, info = weighted_solve(w, y)
        eta = X @ theta
        dev = _deviance(y, eta, w, spec.family)
        # Under the identity link the fitted means are eta.
        if np.all(np.isfinite(theta)):
            return _finalize_fit(spec, theta, info, dev, True, 1, eta)
        last = _finalize_fit(spec, theta, info, dev, False, 1, eta)
        raise NonConvergenceError(
            f"least-squares solve overflowed (family={spec.family})", last_fit=last
        )

    def irls_step(eta, mu, dmu):
        dmu = np.clip(dmu, _MU_EPS, None)
        var = np.clip(mu * (1.0 - mu), _MU_EPS, None)
        return weighted_solve(w * dmu * dmu / var, eta + (y - mu) / dmu)

    # Standard starting value: nudge binary responses toward 0.5.
    eta = link_function((y + 0.5) / 2.0, spec.family)
    theta = np.zeros(p)
    dev = np.inf
    info = np.eye(p)
    mu, dmu = mean_and_slope(eta, spec.family)
    for it in range(1, MAX_ITER + 1):
        theta_new, info = irls_step(eta, mu, dmu)
        eta = X @ theta_new
        mu, dmu = mean_and_slope(eta, spec.family)
        dev_new = _deviance(y, mu, w, spec.family)
        step = float(np.max(np.abs(theta_new - theta))) if it > 1 else np.inf
        rel_dev = abs(dev_new - dev) / (abs(dev) + 1e-300) if np.isfinite(dev) else np.inf
        theta = theta_new
        dev = dev_new
        if step < STEP_TOL or rel_dev < DEVIANCE_TOL:
            # One polishing solve so the score vanishes at the returned theta
            # even when the deviance rule fired first.
            theta, info = irls_step(eta, mu, dmu)
            eta = X @ theta
            mu = inverse_link(eta, spec.family)
            dev = _deviance(y, mu, w, spec.family)
            return _finalize_fit(spec, theta, info, dev, True, it, mu)

    last = _finalize_fit(spec, theta, info, dev, False, MAX_ITER, mu)
    raise NonConvergenceError(
        f"IRLS did not converge in {MAX_ITER} iterations (family={spec.family})",
        last_fit=last,
    )


def _finalize_fit(spec, theta, info, dev, converged, iterations, mu) -> GlmFit:
    """The GlmFit at ``theta``, whose fitted means are ``mu``."""
    n, p = spec.design.shape
    if not np.all(np.isfinite(info)):
        raise NumericError(f"information matrix is not finite (family={spec.family})")
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        try:
            cov = np.linalg.inv(info + RIDGE_JITTER * np.eye(p))
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "information matrix not invertible after ridge jitter"
            ) from exc
    if not np.all(np.isfinite(cov)):
        raise NumericError(
            f"inverse of the information matrix is not finite (family={spec.family})"
        )
    dispersion = 1.0
    if spec.family == GAUSSIAN:
        dispersion = dev / max(n - p, 1)
        cov = cov * dispersion
    cov = 0.5 * (cov + cov.T)
    if spec.family == GAUSSIAN:
        boundary = False
    else:
        boundary = bool(np.any(mu <= 1e-8) or np.any(mu >= 1.0 - 1e-8))
    return GlmFit(
        theta=theta,
        cov=cov,
        family=spec.family,
        dispersion=dispersion,
        converged=converged,
        iterations=iterations,
        deviance=dev,
        boundary_fit=boundary,
    )


# ---------------------------------------------------------------------------
# Sample quantiles


def linear_quantiles(values, qs, presorted: bool = False) -> np.ndarray:
    """Linear (Hyndman & Fan type 7) sample quantiles, bit for bit numpy's default.

    Each q reads the order statistics at floor((n - 1) q) and the next index
    and interpolates between them as numpy does: a + d g, or b - d (1 - g)
    when g >= 0.5. One q takes one single-index partition of a copy of
    ``values``, numpy's fastest selection, and the next order statistic is
    the smallest value above it; several qs index one sorted copy, which is
    faster than a partition at many indices; ``presorted`` values are
    indexed as they are. Any NaN makes every quantile NaN. Only where both
    signed zeros occur may a zero quantile's sign differ from numpy's.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise ValidationError("quantiles need at least one value")
    picks = []
    for q in qs:
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValidationError("quantile probabilities must lie in [0, 1]")
        virtual = (n - 1) * q
        if virtual >= n - 1:
            # numpy reads the last value twice, at index -1, so g = virtual + 1.
            picks.append((n - 1, n - 1, virtual + 1.0))
        else:
            lo = math.floor(virtual)
            picks.append((lo, lo + 1, virtual - lo))
    if presorted or len(picks) > 1:
        ordered = values if presorted else np.sort(values)
        if math.isnan(ordered[-1]):  # NaNs sort last
            return np.full(len(picks), ordered[-1])
        ends = [(ordered[lo], ordered[hi], g) for lo, hi, g in picks]
    else:
        # A NaN sorts above every number, so the minimum above lo carries it.
        ((lo, hi, g),) = picks
        part = np.partition(values, lo)
        ends = [(part[lo], part[hi:].min(), g)]
    out = []
    for a, b, g in ends:
        a, b = float(a), float(b)
        d = b - a
        out.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Natural cubic splines


@dataclass(frozen=True)
class SplineBasis:
    """Knot layout for a natural cubic spline with ``df`` basis columns."""

    interior_knots: tuple[float, ...]
    boundary_knots: tuple[float, float]
    df: int

    def __post_init__(self):
        lo, hi = self.boundary_knots
        if not lo < hi:
            raise ValidationError("boundary knots must be strictly increasing")
        knots = self.interior_knots
        if len(knots) != self.df - 1:
            raise ValidationError("need df-1 interior knots")
        if any(not lo < k < hi for k in knots):
            raise ValidationError("interior knots must lie inside the boundaries")
        if any(knots[i] >= knots[i + 1] for i in range(len(knots) - 1)):
            raise ValidationError("interior knots must be strictly increasing")

    @property
    def all_knots(self) -> np.ndarray:
        return np.asarray(
            (self.boundary_knots[0], *self.interior_knots, self.boundary_knots[1])
        )


def choose_knots(values: np.ndarray, df: int) -> SplineBasis:
    """Boundary knots at min/max, df-1 interior knots at even quantiles."""
    values = np.asarray(values, dtype=float)
    if df < 1:
        raise ValidationError("df must be >= 1")
    ordered = np.sort(values)
    # Distinct values counted as np.unique counts them: the sorted values
    # change at each new one, and the NaNs, sorted last, count once.
    changes = int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    nans = int(np.count_nonzero(np.isnan(ordered)))
    distinct = min(ordered.size, changes + 1 - max(nans - 1, 0))
    if distinct < df + 2:
        raise DegenerateSupportError(
            f"need at least {df + 2} distinct values for df={df}, got {distinct}"
        )
    lo, hi = float(ordered[0]), float(ordered[-1])
    interior = linear_quantiles(ordered, [m / df for m in range(1, df)], presorted=True).tolist()
    if any(not lo < k < hi for k in interior) or any(
        interior[i] >= interior[i + 1] for i in range(len(interior) - 1)
    ):
        raise DegenerateSupportError("quantile knots collapsed onto the boundaries")
    return SplineBasis(tuple(interior), (lo, hi), df)


def natural_cubic_basis(x: np.ndarray, basis: SplineBasis) -> np.ndarray:
    """Evaluate the natural cubic spline basis, |x| rows by df columns.

    Uses the standard truncated-power construction with the natural
    constraint folded in, so every column is exactly linear beyond the
    boundary knots. The intercept is not included.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    knots = basis.all_knots
    K = knots.size
    out = np.empty((x.size, basis.df))
    out[:, 0] = x
    if K > 2:
        last = knots[-1]
        tail = _positive_cube(x - last)

        def d(k):
            return (_positive_cube(x - k) - tail) / (last - k)

        d_ref = d(knots[K - 2])
        for j in range(K - 2):
            out[:, j + 1] = d(knots[j]) - d_ref
    return out


def _positive_cube(t: np.ndarray) -> np.ndarray:
    """max(t, 0) ** 3, cubing only the positive entries: the rest are zeros already."""
    t = np.maximum(t, 0.0)
    positive = t > 0.0
    t[positive] = t[positive] ** 3
    return t


# ---------------------------------------------------------------------------
# Residualization and PCA


def residualize(column: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Least-squares residuals of ``column`` on an intercept plus ``against``.

    If ``against`` is (numerically) constant, falls back to centering the
    column.
    """
    column = np.asarray(column, dtype=float)
    against = np.asarray(against, dtype=float)
    if column.shape != against.shape:
        raise ValidationError("column and against must have equal length")
    a_mean = float(against.mean())
    c_mean = float(column.mean())
    var = float(np.mean((against - a_mean) ** 2))
    if var <= 1e-24:
        return column - c_mean
    slope = float(np.mean((against - a_mean) * (column - c_mean)) / var)
    intercept = c_mean - slope * a_mean
    return column - (intercept + slope * against)


@dataclass
class PcaResult:
    """Principal components of a centered matrix, ordered by variance."""

    loadings: np.ndarray
    explained_ratios: np.ndarray
    retained: int
    means: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Scores of the retained components for rows of ``matrix``."""
        matrix = np.asarray(matrix, dtype=float)
        if self.retained == 0:
            return np.empty((matrix.shape[0], 0))
        return (matrix - self.means) @ self.loadings[:, : self.retained]


PCA_COMPONENT_CAP = 10


def pca(matrix: np.ndarray, variance_threshold: float) -> PcaResult:
    """Eigendecomposition PCA retaining the configured variance fraction.

    Retains the smallest number of components whose cumulative explained
    variance reaches ``variance_threshold``, capped at min(m, 10). A
    zero-variance matrix yields zero retained components.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("matrix must be 2-D")
    n, m = matrix.shape
    if n < 2:
        raise ValidationError("need at least 2 rows for PCA")
    if not 0 < variance_threshold <= 1:
        raise ValidationError("variance threshold must be in (0, 1]")
    if m == 0:
        return PcaResult(np.empty((0, 0)), np.empty(0), 0, np.empty(0))
    means = matrix.mean(axis=0)
    centered = matrix - means
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    # Deterministic sign: largest-magnitude entry of each loading positive.
    for j in range(m):
        col = eigvecs[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            eigvecs[:, j] = -col
    total = float(eigvals.sum())
    if total <= 1e-24:
        return PcaResult(eigvecs, np.zeros(m), 0, means)
    ratios = eigvals / total
    cumulative = np.cumsum(ratios)
    retained = int(np.searchsorted(cumulative, variance_threshold - 1e-12) + 1)
    retained = min(retained, m, PCA_COMPONENT_CAP)
    return PcaResult(eigvecs, ratios, retained, means)


# ---------------------------------------------------------------------------
# Kernel weights and the normal distribution

KERNEL_SUPPORT_MULTIPLE = 12.0


class KernelRows(NamedTuple):
    """Kernel weights at an array of centres, one row per supported centre."""

    weights: np.ndarray  # (supported centres, values), each row normalized
    supported: np.ndarray  # bool per centre
    skipped: list  # (centre, reason) per centre without support, in order


def _no_support_message(center) -> str:
    return f"no values within {KERNEL_SUPPORT_MULTIPLE} bandwidths of r={center}"


def gaussian_kernel_weights(values: np.ndarray, center, bandwidth: float, out=None):
    """Normalized Gaussian weights exp(-(v - center)^2 / (2 h^2)).

    A scalar ``center`` gives one weight vector and raises
    EffectiveSupportError when every value lies farther than 12 bandwidths
    from it. An array of centres gives a ``KernelRows`` whose weight rows
    are, bit for bit, the scalar call's vectors, and whose ``skipped`` lists
    each centre without support with that error's message. The block holds
    one row per centre, so callers pass centres a few at a time; ``out``, a
    (centres, values) array, receives the block, so that a caller going
    through many chunks allocates it once.

    The max exponent is subtracted before exponentiation so small bandwidths
    cannot underflow a whole row.
    """
    values = np.asarray(values, dtype=float)
    if bandwidth <= 0 or not math.isfinite(bandwidth):
        raise ValidationError("bandwidth must be positive and finite")
    centers = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(centers)):
        raise NumericError("kernel center must be finite")
    flat = centers.reshape(-1)
    w = np.subtract(values, flat[:, None], out=out)
    np.abs(w, out=w)
    nearest = w.min(axis=1, initial=math.inf)
    supported = ~(nearest > KERNEL_SUPPORT_MULTIPLE * bandwidth)
    if not centers.ndim and not supported[0]:
        raise EffectiveSupportError(_no_support_message(center))
    skipped = [(c, _no_support_message(c)) for c in flat[~supported].tolist()]
    if skipped:
        w = w[supported]
        nearest = nearest[supported]
    # In place on one buffer. Each step is monotone in the distance, so a
    # row's largest exponent is its nearest value's, computed by the same
    # operations.
    w /= bandwidth
    w *= w
    w *= -0.5
    scaled = nearest / bandwidth
    w -= (-0.5 * (scaled * scaled))[:, None]
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return KernelRows(w, supported, skipped) if centers.ndim else w[0]


def normal_cdf(x):
    """Standard normal CDF via erfc, accurate to well below 1e-12."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericError("normal_cdf requires finite input")
    out = 0.5 * erfc(-x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    """Inverse standard normal CDF."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise NumericError("quantile probability must be in (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out
