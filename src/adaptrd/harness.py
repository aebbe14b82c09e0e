"""Scenario runner and replication harness.

Simulates sequential patients through the adaptive risk/threshold pipeline:
each arrival is scored by the current model, compared to the current
threshold, treated or not, and an outcome is drawn from the scenario's
data-generating process at the patient's baseline risk. At configured
indices the threshold and/or model update using only completed records;
updates never touch the past. Completed trials are evaluated at the final
threshold against the known ground truth, and replication batches aggregate
bias, MSE and interval coverage per estimator.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptation import (
    NntTargetThreshold,
    RateTargetThreshold,
    RecalibrateModel,
    ReviseModel,
    cohens_d_curve,
    nnt_to_cohens_d,
    pooled_outcome_sd,
    recalibrate_model,
    revise_model,
    threshold_for_nnt,
    threshold_for_rate,
)
from .cohort import CohortTable, load_cohort_csv
from .config import _SCENARIO_SHAPES, ScenarioConfig, parse_config, preset_payload
from .errors import AdaptRdError, ConfigError
from .estimator import (
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
from .outcomes import (
    ClampStats,
    draw_noise,
    outcomes_from_noise,
    true_smoothed_ate,
)
from .risk_engine import (
    CounterfactualRiskMatrix,
    ModelHistory,
    PceCoefficientSet,
    RiskModelVersion,
    build_counterfactual_matrix,
    load_coefficients_file,
    original_pce_model,
    predict_risk_batch,
)
from .seeds import SeedStream

METHODS = ("adaptive_rd", "naive", "outcome_regression", "ipw", "aipw")


@dataclass
class AdaptationEvent:
    index: int
    kind: str  # threshold_update | threshold_skipped | model_update | model_skipped
    old: float
    new: float
    detail: str = ""


@dataclass
class TrialData:
    config: ScenarioConfig
    covariates: CohortTable
    model_version: np.ndarray
    threshold: np.ndarray
    raw_risk: np.ndarray
    shifted_risk: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    baseline_risk: np.ndarray
    history: ModelHistory
    matrix: CounterfactualRiskMatrix
    events: list[AdaptationEvent]
    clamp_count: int = 0

    @property
    def n(self) -> int:
        return len(self.covariates)

    @property
    def final_threshold(self) -> float:
        return float(self.threshold[-1])

    def threshold_trajectory(self) -> list[tuple[int, float]]:
        """(index, new threshold) pairs, starting from the initial value."""
        out = [(0, float(self.threshold[0]))]
        for ev in self.events:
            if ev.kind == "threshold_update":
                out.append((ev.index, ev.new))
        return out


def _resolve_cohort(config: ScenarioConfig, stream: SeedStream) -> CohortTable:
    if config.cohort_csv is not None:
        table = load_cohort_csv(config.cohort_csv)
        if len(table) < config.n_patients:
            raise ConfigError(f"cohort file has {len(table)} rows, need {config.n_patients}")
        return table.slice(0, config.n_patients)
    # Looked up at call time, not imported at module level, so that rebinding
    # adaptrd.cohort.sample_cohort (bench/tracer.py times it that way) takes
    # effect here.
    from .cohort import sample_cohort

    return sample_cohort(config.cohort_params, stream, config.n_patients)


def _original_model(config: ScenarioConfig) -> RiskModelVersion:
    coeffs: Optional[PceCoefficientSet] = None
    if config.coefficients_file is not None:
        coeffs = load_coefficients_file(config.coefficients_file)
    return original_pce_model(coeffs)


def _update_indices(config: ScenarioConfig) -> tuple[set[int], set[int]]:
    """Indices (1-based, after that patient completes) at which each strategy fires."""

    def cadence(warmup: int, every: int) -> set[int]:
        return {m for m in range(warmup, config.n_patients, every)}

    thr = config.threshold_strategy
    thr_idx: set[int] = set()
    if isinstance(thr, (RateTargetThreshold, NntTargetThreshold)):
        thr_idx = cadence(thr.warmup, thr.update_every)
    mdl = config.model_strategy
    mdl_idx: set[int] = set()
    if isinstance(mdl, (RecalibrateModel, ReviseModel)):
        mdl_idx = cadence(mdl.warmup, mdl.update_every)
    return thr_idx, mdl_idx


def run_scenario(config: ScenarioConfig, stream: Optional[SeedStream] = None) -> TrialData:
    """Simulate one complete trial; deterministic given (config, stream)."""
    if stream is None:
        stream = SeedStream(config.seed)
    covariates = _resolve_cohort(config, stream.child(0))
    n = config.n_patients
    noise = draw_noise(config.outcome, stream.child(1), n)

    original = _original_model(config)
    baseline_risk = predict_risk_batch(original, covariates)
    # Whole-cohort raw risks by model version, each version scored once when
    # it is created. A row's score reads only that patient's covariates, so
    # scoring later rows early reads nothing from the future.
    scored = {original.version_id: baseline_risk}
    clamp_stats = ClampStats()
    target_d = _nnt_target_d(config.threshold_strategy)

    current_model = original
    current_threshold = config.initial_threshold
    history = ModelHistory()
    events: list[AdaptationEvent] = []
    thr_idx, mdl_idx = _update_indices(config)
    boundaries = sorted(set(thr_idx) | set(mdl_idx) | {n})

    raw_risk = np.empty(n)
    shifted_risk = np.empty(n)
    treatment = np.empty(n, dtype=int)
    outcome = np.empty(n)
    model_version = np.empty(n, dtype=int)
    threshold = np.empty(n)

    start = 0
    next_version_id = 1
    for end in boundaries:
        if end <= start:
            continue
        risks = scored[current_model.version_id][start:end]
        raw_risk[start:end] = risks
        shifted_risk[start:end] = risks - current_threshold
        treatment[start:end] = (shifted_risk[start:end] >= 0.0).astype(int)
        outcome[start:end] = outcomes_from_noise(
            config.outcome,
            baseline_risk[start:end],
            treatment[start:end],
            noise[start:end],
            clamp_stats,
        )
        model_version[start:end] = current_model.version_id
        threshold[start:end] = current_threshold
        history.append(current_model, current_threshold, end - start)
        m = end
        start = end
        if m >= n:
            break
        # Threshold first (reads only logged history), then the model.
        if m in thr_idx:
            current_threshold = _apply_threshold_update(
                config, m, history, scored, raw_risk, treatment, outcome,
                current_threshold, target_d, events,
            )
        if m in mdl_idx:
            current_model, next_version_id = _apply_model_update(
                config, m, covariates, treatment, outcome, original,
                current_model, next_version_id, events, scored,
            )

    matrix = build_counterfactual_matrix(history, scored)
    return TrialData(
        config=config,
        covariates=covariates,
        model_version=model_version,
        threshold=threshold,
        raw_risk=raw_risk,
        shifted_risk=shifted_risk,
        treatment=treatment,
        outcome=outcome,
        baseline_risk=baseline_risk,
        history=history,
        matrix=matrix,
        events=events,
        clamp_count=clamp_stats.count,
    )


def _nnt_target_d(strategy):
    """Cohen's d of an NNT target, once per run: the same at every update.

    An NNT with no d in the search window gives the error's message instead,
    which each NNT update then reports where it would have computed d.
    """
    if not isinstance(strategy, NntTargetThreshold):
        return None
    try:
        return nnt_to_cohens_d(strategy.nnt)
    except ConfigError as exc:
        return str(exc)


def _apply_threshold_update(
    config, m, history, scored, raw_risk, treatment, outcome, current_threshold, target_d, events,
) -> float:
    strategy = config.threshold_strategy
    try:
        if isinstance(strategy, RateTargetThreshold):
            new = threshold_for_rate(raw_risk[:m], strategy.target_rate)
            detail = f"rate_target={strategy.target_rate!r}"
        else:
            new, detail = _nnt_threshold(
                config, m, history, scored, treatment, outcome, current_threshold, strategy,
                target_d,
            )
        if not 0.0 < new < 1.0:
            raise ConfigError(f"proposed threshold {new!r} outside (0, 1)")
    except AdaptRdError as exc:
        events.append(
            AdaptationEvent(m, "threshold_skipped", current_threshold, current_threshold, str(exc))
        )
        return current_threshold
    events.append(AdaptationEvent(m, "threshold_update", current_threshold, new, detail))
    return new


def _nnt_threshold(
    config, m, history, scored, treatment, outcome, current_threshold, strategy, target_d
) -> tuple[float, str]:
    matrix = build_counterfactual_matrix(history, scored)  # the m patients so far
    surface = fit_outcome_surface(matrix, treatment[:m], outcome[:m], config.estimator)
    grid = default_grid(matrix.focal_shifted, 101)
    curve = effect_curve(surface, matrix, grid, config.estimator)
    if not curve.r.size:
        raise ConfigError("effect curve has no supported grid points")
    sd = pooled_outcome_sd(outcome[:m], treatment[:m])
    # Effect curve lives on the shifted scale; thresholds are raw risks.
    # Only beta is read, so the curve's SEs are never computed here.
    beta_curve = [
        (r + current_threshold, beta) for r, beta in zip(curve.r.tolist(), curve.beta.tolist())
    ]
    d_curve = cohens_d_curve(beta_curve, sd)
    if isinstance(target_d, str):
        raise ConfigError(target_d)
    new = threshold_for_nnt(d_curve, target_d, current_threshold, strategy.smoothing)
    return new, f"nnt={strategy.nnt!r} target_d={target_d!r} pooled_sd={sd!r}"


def _apply_model_update(
    config, m, covariates, treatment, outcome, original, current_model,
    next_version_id, events, scored,
):
    strategy = config.model_strategy
    prefix = covariates.slice(0, m)
    try:
        if isinstance(strategy, RecalibrateModel):
            new_model = recalibrate_model(
                prefix, treatment[:m], outcome[:m], original,
                n0=strategy.shrink_n0, next_version_id=next_version_id,
            )
        else:
            new_model = revise_model(
                prefix, treatment[:m], outcome[:m], original,
                n0=strategy.shrink_n0, next_version_id=next_version_id,
            )
    except AdaptRdError as exc:
        events.append(
            AdaptationEvent(
                m, "model_skipped", current_model.version_id, current_model.version_id, str(exc)
            )
        )
        return current_model, next_version_id
    scored[new_model.version_id] = predict_risk_batch(new_model, covariates)
    detail = ",".join(f"{k}={v!r}" for k, v in sorted(new_model.fit_details.items()))
    events.append(
        AdaptationEvent(m, "model_update", current_model.version_id, new_model.version_id, detail)
    )
    return new_model, next_version_id + 1


# ---------------------------------------------------------------------------
# Evaluation at the final threshold


@dataclass
class MethodResult:
    estimate: Optional[float] = None
    se: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    error: Optional[str] = None


@dataclass
class EvaluationResult:
    truth: float
    methods: dict

    def to_dict(self) -> dict:
        out = {"truth": self.truth, "methods": {}}
        for name in METHODS:
            m = self.methods[name]
            out["methods"][name] = {
                "estimate": m.estimate,
                "se": m.se,
                "ci_low": m.ci_low,
                "ci_high": m.ci_high,
                "error": m.error,
            }
        return out


def evaluate_at_final_threshold(trial: TrialData) -> EvaluationResult:
    """All five estimators plus the DGP truth at r = 0 (the final threshold)."""
    config = trial.config
    est_cfg = config.estimator
    focal = trial.matrix.focal_shifted
    truth = true_smoothed_ate(
        config.outcome,
        trial.baseline_risk,
        0.0,
        est_cfg.bandwidth,
        weight_values=focal,
    )
    methods: dict[str, MethodResult] = {}

    try:
        surface = fit_outcome_surface(trial.matrix, trial.treatment, trial.outcome, est_cfg)
        est = estimate_effect(surface, trial.matrix, 0.0, est_cfg)
        methods["adaptive_rd"] = MethodResult(
            estimate=est.beta_hat, se=est.se, ci_low=est.ci[0], ci_high=est.ci[1]
        )
    except AdaptRdError as exc:
        methods["adaptive_rd"] = MethodResult(error=str(exc))

    try:
        methods["naive"] = MethodResult(estimate=naive_diff(trial.outcome, trial.treatment))
    except AdaptRdError as exc:
        methods["naive"] = MethodResult(error=str(exc))

    # The comparators share one outcome fit, one propensity fit and one
    # kernel row; a failure to build their inputs is each one's error.
    try:
        inputs = comparator_inputs(
            trial.covariates, trial.treatment, trial.outcome, focal, 0.0, est_cfg
        )
        build_error = None
    except AdaptRdError as exc:
        build_error = str(exc)
    for name, fn in (
        ("outcome_regression", outcome_regression_ate),
        ("ipw", ipw_ate),
        ("aipw", aipw_ate),
    ):
        if build_error is not None:
            methods[name] = MethodResult(error=build_error)
            continue
        try:
            methods[name] = MethodResult(estimate=fn(inputs))
        except AdaptRdError as exc:
            methods[name] = MethodResult(error=str(exc))

    return EvaluationResult(truth=truth, methods=methods)


# ---------------------------------------------------------------------------
# Replications


@dataclass
class ReplicationReport:
    scenario_id: int
    n_replications: int
    trial_failures: int
    per_method: dict
    final_thresholds: list
    treated_fractions: list
    # "trial" and each method: {error message: count}, messages sorted.
    failure_reasons: dict

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "n_replications": self.n_replications,
            "trial_failures": self.trial_failures,
            "per_method": self.per_method,
            "final_thresholds": self.final_thresholds,
            "treated_fractions": self.treated_fractions,
            "failure_reasons": self.failure_reasons,
        }


def _run_one_replication(config: ScenarioConfig, rep: int) -> dict:
    stream = SeedStream(config.seed, (rep,))
    try:
        trial = run_scenario(config, stream)
        result = evaluate_at_final_threshold(trial)
    except AdaptRdError as exc:
        return {"rep": rep, "failed": str(exc)}
    out = result.to_dict()
    out["rep"] = rep
    out["final_threshold"] = trial.final_threshold
    out["treated_fraction"] = float(np.mean(trial.treatment))
    return out


def _replication_worker(args) -> dict:
    config, rep = args
    return _run_one_replication(config, rep)


ERROR_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def run_replications(config: ScenarioConfig, count: int, workers: int = 1) -> ReplicationReport:
    """Run ``count`` independently seeded trials and aggregate per estimator.

    Replication ``rep`` always uses SeedStream(config.seed, (rep,)), so
    results are identical for any worker count and any execution order.
    """
    if count < 1:
        raise ConfigError("replication count must be >= 1")
    tasks = [(config, rep) for rep in range(count)]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_replication_worker, tasks)
    else:
        results = [_replication_worker(t) for t in tasks]

    ok = [r for r in results if "failed" not in r]
    reasons = {"trial": Counter(r["failed"] for r in results if "failed" in r)}
    per_method = {}
    for name in METHODS:
        errors = []
        reps = []
        covered = []
        reasons[name] = Counter()
        for r in ok:
            m = r["methods"][name]
            if m["estimate"] is None:
                reasons[name][m["error"]] += 1
                continue
            err = m["estimate"] - r["truth"]
            errors.append(err)
            reps.append(r["rep"])
            if name == "adaptive_rd" and m["ci_low"] is not None:
                covered.append(m["ci_low"] <= r["truth"] <= m["ci_high"])
        arr = np.asarray(errors)
        entry = {
            "n_used": len(errors),
            "failures": sum(reasons[name].values()),
            "errors": [float(e) for e in errors],
            "reps": reps,
            "bias": float(arr.mean()) if arr.size else None,
            "mse": float(np.mean(arr**2)) if arr.size else None,
            "mean_abs_error": float(np.mean(np.abs(arr))) if arr.size else None,
            "error_quantiles": (
                {repr(q): float(np.quantile(arr, q)) for q in ERROR_QUANTILES}
                if arr.size
                else None
            ),
        }
        if name == "adaptive_rd":
            entry["coverage"] = float(np.mean(covered)) if covered else None
        per_method[name] = entry

    return ReplicationReport(
        scenario_id=config.scenario_id,
        n_replications=count,
        trial_failures=sum(reasons["trial"].values()),
        per_method=per_method,
        final_thresholds=[r["final_threshold"] for r in ok],
        treated_fractions=[r["treated_fraction"] for r in ok],
        failure_reasons={key: dict(sorted(c.items())) for key, c in reasons.items()},
    )


# ---------------------------------------------------------------------------
# Scenario presets


def scenario_preset(scenario_id: int, seed: int = 0, **overrides) -> ScenarioConfig:
    """The bundled ``presets/scenarioN.json`` config with ``seed`` and field overrides.

    ``warmup`` and ``update_every`` also reach the strategy that carries them.
    """
    if scenario_id not in _SCENARIO_SHAPES:
        raise ConfigError(f"scenario id must be 1..5, got {scenario_id}")
    payload = preset_payload(f"scenario{scenario_id}")
    payload["seed"] = seed
    for key in ("warmup", "update_every"):
        if key in overrides:
            payload[key] = overrides.pop(key)
            for section in (payload["threshold_strategy"], payload["model_strategy"]):
                if key in section:
                    section[key] = payload[key]
    return dataclasses.replace(parse_config(payload), **overrides)
