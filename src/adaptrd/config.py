"""Scenario configuration: the validated config type, strict JSON parsing,
overrides and presets.

Unknown keys are rejected everywhere so a typo'd field can never silently
fall back to a default. Dotted-key overrides (``threshold_strategy.nnt=4``)
are applied to the raw JSON document before parsing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .adaptation import (
    FixedThreshold,
    NntTargetThreshold,
    NoModelUpdate,
    RateTargetThreshold,
    RecalibrateModel,
    ReviseModel,
    UpdateCadence,
)
from .cohort import SyntheticCohortParams
from .errors import ConfigError
from .estimator import EstimatorConfig
from .outcomes import ASCVD, FAMILY_BY_KIND, PARAMS_BY_VARIANT, OutcomeModel

ThresholdStrategy = Union[FixedThreshold, RateTargetThreshold, NntTargetThreshold]
ModelStrategy = Union[NoModelUpdate, RecalibrateModel, ReviseModel]

# Per-scenario outcome variant. A scenario id fixes nothing else: the GLM
# family follows from the outcome's kind, and any threshold strategy runs with
# any model strategy, so the model and the threshold can adapt together. Only
# a model update needs the ascvd outcome, the event the risk model predicts.
_SCENARIO_VARIANTS = {1: "attendance", 2: "cholesterol", 3: "cholesterol", 4: ASCVD, 5: ASCVD}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: int
    outcome: OutcomeModel
    threshold_strategy: ThresholdStrategy
    model_strategy: ModelStrategy
    estimator: EstimatorConfig
    n_patients: int = 3000
    initial_threshold: float = 0.10
    seed: int = 0
    cohort_params: SyntheticCohortParams = field(default_factory=SyntheticCohortParams)
    cohort_csv: Optional[str] = None
    coefficients_file: Optional[str] = None

    def __post_init__(self):
        if self.scenario_id not in _SCENARIO_VARIANTS:
            raise ConfigError(f"scenario id must be 1..5, got {self.scenario_id}")
        if self.n_patients < 1:
            raise ConfigError("n_patients must be at least 1")
        if not 0.0 < self.initial_threshold < 1.0:
            raise ConfigError("initial threshold must lie in (0, 1)")
        for key, union in (
            ("threshold_strategy", ThresholdStrategy), ("model_strategy", ModelStrategy)
        ):
            strategy = getattr(self, key)
            if not isinstance(strategy, get_args(union)):
                kinds = ", ".join(cls.__name__ for cls in get_args(union))
                raise ConfigError(f"{key} must be one of {kinds}, got {strategy!r}")
            if isinstance(strategy, UpdateCadence) and strategy.warmup >= self.n_patients:
                raise ConfigError(
                    f"{key}.warmup must be below n_patients={self.n_patients}, "
                    f"got {strategy.warmup}: the strategy would never update"
                )
        variant = _SCENARIO_VARIANTS[self.scenario_id]
        if self.outcome.variant != variant:
            raise ConfigError(
                f"scenario {self.scenario_id} requires the {variant} outcome, "
                f"got {self.outcome.variant}"
            )
        if not isinstance(self.model_strategy, NoModelUpdate) and variant != ASCVD:
            raise ConfigError(
                f"model updates need the {ASCVD} outcome, the event the risk model "
                f"predicts; scenario {self.scenario_id} has the {variant} outcome"
            )
        family = FAMILY_BY_KIND[self.outcome.kind]
        if family != self.estimator.family:
            raise ConfigError(
                f"the {variant} outcome is {self.outcome.kind}, so scenario "
                f"{self.scenario_id} uses the {family} family"
            )


PRESET_NAMES = tuple(f"scenario{i}" for i in _SCENARIO_VARIANTS)

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


def _check_object(section, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")


def _require_keys(section: dict, allowed: set, where: str) -> None:
    _check_object(section, where)
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, where: str):
    _check_object(section, where)
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _number(value, key: str, kind=float):
    """``value`` as a ``kind`` (float or int); raises ConfigError naming ``key``
    for a non-number, a boolean, a number no float holds (NaN, an infinity,
    a huge integer), or a non-integral value for an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if value != value or abs(value) > sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return kind(value)


_field_types = cache(get_type_hints)  # a class's declared field types, resolved once

def _value(kind, value, key: str):
    """``value`` read as a field declared ``kind``: a number, a string, a
    ``[low, high]`` pair, a dict of numbers or a nested section."""
    if kind in (int, float):
        return _number(value, key, kind)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if kind is dict:
        _check_object(value, key)
        return {k: _number(v, f"{key}.{k}") for k, v in value.items()}
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{key} must be a [low, high] pair, got {value!r}")
        return tuple(_number(v, key) for v in value)
    return _section(kind, value, key)


def _section(cls, payload: dict, where: str, defaults: Optional[dict] = None):
    """A ``cls`` read from the JSON object at ``where``, whose keys are ``cls``'s fields.

    An absent field takes ``defaults`` (the top-level cadence), else the
    dataclass default; a field with neither is a missing required key.
    """
    declared = fields(cls)
    _require_keys(payload, {f.name for f in declared}, where)
    kwargs = {}
    for f in declared:
        if f.name in payload:
            value = payload[f.name]
        elif defaults and f.name in defaults:
            value = defaults[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key '{f.name}' in {where}")
        else:
            continue
        kwargs[f.name] = _value(_field_types(cls)[f.name], value, f"{where}.{f.name}")
    return cls(**kwargs)


_THRESHOLD_KINDS = {
    "fixed": FixedThreshold,
    "rate_target": RateTargetThreshold,
    "nnt_target": NntTargetThreshold,
}
_MODEL_KINDS = {"none": NoModelUpdate, "recalibrate": RecalibrateModel, "revise": ReviseModel}


def _strategy(payload: dict, slot: str, kinds: dict, cadence: dict):
    """The strategy at ``payload[slot]``: its ``kind`` names the class, and
    its other keys are that class's fields."""
    section = _get(payload, slot, "config")
    kind = _get(section, "kind", slot)
    if kind not in kinds:
        raise ConfigError(f"unknown {slot.replace('_', ' ')} kind: {kind!r}")
    rest = {key: value for key, value in section.items() if key != "kind"}
    return _section(kinds[kind], rest, slot, cadence)


def _outcome(payload: dict) -> OutcomeModel:
    _require_keys(payload, {"variant", "params"}, "outcome")
    variant = _get(payload, "variant", "outcome")
    if variant not in PARAMS_BY_VARIANT:
        raise ConfigError(f"unknown outcome variant: {variant!r}")
    params = _section(PARAMS_BY_VARIANT[variant], payload.get("params", {}), "outcome.params")
    return OutcomeModel(variant, params)


def _top_level(payload: dict, cls, keys: tuple) -> dict:
    """The ``keys`` that ``payload`` sets, each read as ``cls``'s field of that name;
    an absent key is left out, so it takes ``cls``'s default."""
    types = _field_types(cls)
    return {key: _value(types[key], payload[key], key) for key in keys if key in payload}


def parse_config(payload: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a JSON document."""
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    _require_keys(payload, _TOP_KEYS, "config")
    scenario = _number(_get(payload, "scenario", "config"), "scenario", int)
    # The top-level cadence is only the default of each adaptive strategy's.
    cadence = _top_level(payload, UpdateCadence, ("warmup", "update_every"))

    cohort_payload = payload.get("cohort", {"source": "synthetic"})
    _require_keys(cohort_payload, {"source", "params", "path"}, "cohort")
    source = _get(cohort_payload, "source", "cohort")
    cohort_params = SyntheticCohortParams()
    cohort_csv = None
    if source == "synthetic":
        if "path" in cohort_payload:
            raise ConfigError("synthetic cohort does not take a path")
        cohort_params = _section(
            SyntheticCohortParams, cohort_payload.get("params", {}), "cohort.params"
        )
    elif source == "csv":
        if "params" in cohort_payload:
            raise ConfigError("csv cohort does not take synthetic params")
        cohort_csv = _value(str, _get(cohort_payload, "path", "cohort"), "cohort.path")
    else:
        raise ConfigError(f"unknown cohort source: {source!r}")

    return ScenarioConfig(
        scenario_id=scenario,
        **_top_level(payload, ScenarioConfig, ("n_patients", "initial_threshold", "seed")),
        cohort_params=cohort_params,
        cohort_csv=cohort_csv,
        outcome=_outcome(_get(payload, "outcome", "config")),
        threshold_strategy=_strategy(payload, "threshold_strategy", _THRESHOLD_KINDS, cadence),
        model_strategy=_strategy(payload, "model_strategy", _MODEL_KINDS, cadence),
        estimator=_section(EstimatorConfig, _get(payload, "estimator", "config"), "estimator"),
        coefficients_file=(
            None if payload.get("coefficients_file") is None
            else _value(str, payload["coefficients_file"], "coefficients_file")
        ),
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
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"no bundled preset {name!r}: there is one per scenario id "
            f"({', '.join(PRESET_NAMES)})"
        )
    blob = resources.files("adaptrd").joinpath(f"presets/{name}.json").read_text()
    return json.loads(blob)
