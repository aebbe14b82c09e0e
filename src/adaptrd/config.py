"""Scenario configuration: the validated config type, strict JSON parsing,
overrides and presets.

Unknown keys are rejected everywhere so a typo'd field can never silently
fall back to a default. Dotted-key overrides (``threshold_strategy.nnt=4``)
are applied to the raw JSON document before parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .adaptation import (
    FixedThreshold,
    NntTargetThreshold,
    NoModelUpdate,
    RateTargetThreshold,
    RecalibrateModel,
    ReviseModel,
)
from .cohort import SyntheticCohortParams, TruncatedNormal
from .errors import ConfigError
from .estimator import EstimatorConfig
from .numerics import GAUSSIAN, LOGIT
from .outcomes import (
    BINARY,
    AscvdParams,
    AttendanceParams,
    CholesterolParams,
    OutcomeModel,
)

ThresholdStrategy = Union[FixedThreshold, RateTargetThreshold, NntTargetThreshold]
ModelStrategy = Union[NoModelUpdate, RecalibrateModel, ReviseModel]

# Per-scenario canonical (outcome variant, threshold kind, model kind, family).
# The degenerate strategies (fixed threshold, no model update) are always
# admissible so no-adaptation baselines of any scenario can be run.
_SCENARIO_SHAPES = {
    1: ("attendance", RateTargetThreshold, NoModelUpdate, LOGIT),
    2: ("cholesterol", RateTargetThreshold, NoModelUpdate, GAUSSIAN),
    3: ("cholesterol", NntTargetThreshold, NoModelUpdate, GAUSSIAN),
    4: ("ascvd", FixedThreshold, RecalibrateModel, LOGIT),
    5: ("ascvd", FixedThreshold, ReviseModel, LOGIT),
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: int
    outcome: OutcomeModel
    threshold_strategy: ThresholdStrategy
    model_strategy: ModelStrategy
    estimator: EstimatorConfig
    n_patients: int = 3000
    warmup: int = 400
    update_every: int = 100
    initial_threshold: float = 0.10
    seed: int = 0
    cohort_params: SyntheticCohortParams = field(default_factory=SyntheticCohortParams)
    cohort_csv: Optional[str] = None
    coefficients_file: Optional[str] = None

    def __post_init__(self):
        if self.scenario_id not in _SCENARIO_SHAPES:
            raise ConfigError(f"scenario id must be 1..5, got {self.scenario_id}")
        if not 1 <= self.warmup < self.n_patients:
            raise ConfigError("need 1 <= warmup < n_patients")
        if self.update_every < 1:
            raise ConfigError("update_every must be >= 1")
        if not 0.0 < self.initial_threshold < 1.0:
            raise ConfigError("initial threshold must lie in (0, 1)")
        variant, thr_kind, model_kind, family = _SCENARIO_SHAPES[self.scenario_id]
        if self.outcome.variant != variant:
            raise ConfigError(
                f"scenario {self.scenario_id} requires the {variant} outcome, "
                f"got {self.outcome.variant}"
            )
        if not isinstance(self.threshold_strategy, (thr_kind, FixedThreshold)):
            raise ConfigError(
                f"scenario {self.scenario_id} requires threshold strategy "
                f"{thr_kind.__name__} (or a fixed threshold)"
            )
        if not isinstance(self.model_strategy, (model_kind, NoModelUpdate)):
            raise ConfigError(
                f"scenario {self.scenario_id} requires model strategy "
                f"{model_kind.__name__} (or no model updates)"
            )
        if self.outcome.kind == BINARY and self.estimator.family == GAUSSIAN:
            raise ConfigError("binary outcomes need a bernoulli GLM family")
        if self.outcome.kind != BINARY and self.estimator.family != GAUSSIAN:
            raise ConfigError("continuous outcomes need the gaussian family")
        if family != self.estimator.family:
            raise ConfigError(
                f"scenario {self.scenario_id} uses the {family} family"
            )


PRESET_NAMES = tuple(f"scenario{i}" for i in range(1, 6))

_TOP_KEYS = {
    "scenario",
    "n_patients",
    "warmup",
    "update_every",
    "initial_threshold",
    "seed",
    "cohort",
    "outcome",
    "threshold_strategy",
    "model_strategy",
    "estimator",
    "coefficients_file",
}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _truncated_normal(payload: dict, where: str) -> TruncatedNormal:
    _require_keys(payload, {"mean", "sd", "lower", "upper"}, where)
    return TruncatedNormal(
        mean=float(_get(payload, "mean", where)),
        sd=float(_get(payload, "sd", where)),
        lower=float(_get(payload, "lower", where)),
        upper=float(_get(payload, "upper", where)),
    )


_COHORT_PARAM_KEYS = {
    "age_range",
    "systolic_bp",
    "total_chol",
    "hdl_slope",
    "hdl_sd",
    "hdl_lower",
    "hdl_upper_gap",
    "p_female",
    "race_probs",
    "p_smoker",
    "p_diabetes",
    "p_bp_treated",
}


def _cohort_params(payload: dict) -> SyntheticCohortParams:
    _require_keys(payload, _COHORT_PARAM_KEYS, "cohort.params")
    kwargs = {}
    if "age_range" in payload:
        lo, hi = payload["age_range"]
        kwargs["age_range"] = (float(lo), float(hi))
    for key in ("systolic_bp", "total_chol"):
        if key in payload:
            kwargs[key] = _truncated_normal(payload[key], f"cohort.params.{key}")
    for key in ("hdl_slope", "hdl_sd", "hdl_lower", "hdl_upper_gap", "p_female",
                "p_smoker", "p_diabetes", "p_bp_treated"):
        if key in payload:
            kwargs[key] = float(payload[key])
    if "race_probs" in payload:
        probs = payload["race_probs"]
        _require_keys(probs, {"white", "black", "other"}, "cohort.params.race_probs")
        kwargs["race_probs"] = {k: float(v) for k, v in probs.items()}
    return SyntheticCohortParams(**kwargs)


def _outcome(payload: dict) -> OutcomeModel:
    _require_keys(payload, {"variant", "params"}, "outcome")
    variant = _get(payload, "variant", "outcome")
    params_payload = payload.get("params", {})
    if variant == "attendance":
        _require_keys(params_payload, {"alpha1", "alpha2"}, "outcome.params")
        params = AttendanceParams(
            alpha1=float(params_payload.get("alpha1", AttendanceParams.alpha1)),
            alpha2=float(params_payload.get("alpha2", AttendanceParams.alpha2)),
        )
    elif variant == "cholesterol":
        _require_keys(params_payload, {"beta1", "beta2", "sigma"}, "outcome.params")
        params = CholesterolParams(
            beta1=float(params_payload.get("beta1", CholesterolParams.beta1)),
            beta2=float(params_payload.get("beta2", CholesterolParams.beta2)),
            sigma=float(params_payload.get("sigma", CholesterolParams.sigma)),
        )
    elif variant == "ascvd":
        _require_keys(params_payload, {"gamma1", "gamma2", "gamma3"}, "outcome.params")
        params = AscvdParams(
            gamma1=float(params_payload.get("gamma1", AscvdParams.gamma1)),
            gamma2=float(params_payload.get("gamma2", AscvdParams.gamma2)),
            gamma3=float(params_payload.get("gamma3", AscvdParams.gamma3)),
        )
    else:
        raise ConfigError(f"unknown outcome variant: {variant!r}")
    return OutcomeModel(variant, params)


def _threshold_strategy(payload: dict, warmup: int, update_every: int):
    kind = _get(payload, "kind", "threshold_strategy")
    if kind == "fixed":
        _require_keys(payload, {"kind", "c"}, "threshold_strategy")
        return FixedThreshold(float(_get(payload, "c", "threshold_strategy")))
    if kind == "rate_target":
        _require_keys(
            payload, {"kind", "target_rate", "warmup", "update_every"}, "threshold_strategy"
        )
        return RateTargetThreshold(
            target_rate=float(_get(payload, "target_rate", "threshold_strategy")),
            warmup=int(payload.get("warmup", warmup)),
            update_every=int(payload.get("update_every", update_every)),
        )
    if kind == "nnt_target":
        _require_keys(
            payload,
            {"kind", "nnt", "warmup", "update_every", "smoothing"},
            "threshold_strategy",
        )
        return NntTargetThreshold(
            nnt=float(_get(payload, "nnt", "threshold_strategy")),
            warmup=int(payload.get("warmup", warmup)),
            update_every=int(payload.get("update_every", update_every)),
            smoothing=float(payload.get("smoothing", 0.5)),
        )
    raise ConfigError(f"unknown threshold strategy kind: {kind!r}")


def _model_strategy(payload: dict, warmup: int, update_every: int):
    kind = _get(payload, "kind", "model_strategy")
    if kind == "none":
        _require_keys(payload, {"kind"}, "model_strategy")
        return NoModelUpdate()
    if kind in ("recalibrate", "revise"):
        _require_keys(
            payload, {"kind", "warmup", "update_every", "shrink_n0"}, "model_strategy"
        )
        cls = RecalibrateModel if kind == "recalibrate" else ReviseModel
        return cls(
            warmup=int(payload.get("warmup", warmup)),
            update_every=int(payload.get("update_every", update_every)),
            shrink_n0=int(payload.get("shrink_n0", 5000)),
        )
    raise ConfigError(f"unknown model strategy kind: {kind!r}")


_ESTIMATOR_KEYS = {
    "spline_df",
    "pca_variance",
    "bandwidth",
    "family",
    "confidence",
    "min_effective",
}


def _estimator(payload: dict) -> EstimatorConfig:
    _require_keys(payload, _ESTIMATOR_KEYS, "estimator")
    casts = {
        "spline_df": int,
        "pca_variance": float,
        "bandwidth": float,
        "family": str,
        "confidence": float,
        "min_effective": float,
    }
    kwargs = {key: casts[key](payload[key]) for key in payload}
    return EstimatorConfig(**kwargs)


def parse_config(payload: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a JSON document."""
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    _require_keys(payload, _TOP_KEYS, "config")
    scenario = int(_get(payload, "scenario", "config"))
    warmup = int(payload.get("warmup", 400))
    update_every = int(payload.get("update_every", 100))

    cohort_payload = payload.get("cohort", {"source": "synthetic"})
    _require_keys(cohort_payload, {"source", "params", "path"}, "cohort")
    source = _get(cohort_payload, "source", "cohort")
    cohort_params = SyntheticCohortParams()
    cohort_csv = None
    if source == "synthetic":
        if "path" in cohort_payload:
            raise ConfigError("synthetic cohort does not take a path")
        cohort_params = _cohort_params(cohort_payload.get("params", {}))
    elif source == "csv":
        if "params" in cohort_payload:
            raise ConfigError("csv cohort does not take synthetic params")
        cohort_csv = str(_get(cohort_payload, "path", "cohort"))
    else:
        raise ConfigError(f"unknown cohort source: {source!r}")

    return ScenarioConfig(
        scenario_id=scenario,
        n_patients=int(payload.get("n_patients", 3000)),
        warmup=warmup,
        update_every=update_every,
        initial_threshold=float(payload.get("initial_threshold", 0.10)),
        seed=int(payload.get("seed", 0)),
        cohort_params=cohort_params,
        cohort_csv=cohort_csv,
        outcome=_outcome(_get(payload, "outcome", "config")),
        threshold_strategy=_threshold_strategy(
            _get(payload, "threshold_strategy", "config"), warmup, update_every
        ),
        model_strategy=_model_strategy(
            _get(payload, "model_strategy", "config"), warmup, update_every
        ),
        estimator=_estimator(_get(payload, "estimator", "config")),
        coefficients_file=payload.get("coefficients_file"),
    )


def _set_dotted(payload: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = payload
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def apply_overrides(payload: dict, overrides: list[str]) -> dict:
    """Apply repeated ``--override key=value`` pairs to a JSON document."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"override has an empty key: {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(payload, key, value)
    return payload


def load_config_payload(name_or_path: str) -> dict:
    """Load a config JSON from a path, or from the bundled presets by name."""
    path = Path(name_or_path)
    if path.exists():
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    stem = path.name.removesuffix(".json")
    if stem in PRESET_NAMES:
        return preset_payload(stem)
    raise ConfigError(
        f"config not found: {name_or_path} (bundled presets: {', '.join(PRESET_NAMES)})"
    )


def preset_payload(name: str) -> dict:
    """The bundled preset document ``name`` (one of PRESET_NAMES)."""
    blob = resources.files("adaptrd").joinpath(f"presets/{name}.json").read_text()
    return json.loads(blob)
