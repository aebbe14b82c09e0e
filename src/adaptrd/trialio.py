"""CSV and JSON serialization of trials, curves and replication reports.

Floats are written with ``repr`` (shortest round-trip form), so re-reading a
file reproduces the original values bit for bit and identical runs produce
byte-identical outputs. The writers format whole columns at once.

``read_trial_csv`` is strict: it reads columns by header name and ignores
extra ones, and a missing column, a row whose field count differs from the
header's, a field that does not parse or a sex, race or 0/1 flag outside its
categories raises ``IngestionError`` naming the line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .cohort import covariate_columns, parse_covariates, parse_numbers, read_csv_columns
from .errors import IngestionError
from .estimator import EffectCurve
from .harness import AdaptationEvent, TrialData

TRIAL_COLUMNS = (
    "index",
    "age",
    "sex",
    "race",
    "systolic_bp",
    "total_chol",
    "hdl_chol",
    "smoker",
    "diabetes",
    "bp_treated",
    "model_version",
    "threshold",
    "raw_risk",
    "shifted_risk",
    "treatment",
    "outcome",
    "baseline_risk",
)

CURVE_COLUMNS = (
    "r",
    "beta_hat",
    "se",
    "ci_low",
    "ci_high",
    "mu1",
    "mu0",
    "eff_n_treated",
    "eff_n_untreated",
)


def _f(x) -> str:
    return repr(float(x))


def _floats(values) -> list:
    """Python floats, which ``csv`` writes with ``repr``."""
    return np.asarray(values, dtype=float).tolist()


def _ints(values) -> list:
    return np.asarray(values).astype(int).tolist()


def write_trial_csv(trial: TrialData, path) -> None:
    columns = (
        range(1, trial.n + 1),
        *covariate_columns(trial.covariates),
        _ints(trial.model_version),
        _floats(trial.threshold),
        _floats(trial.raw_risk),
        _floats(trial.shifted_risk),
        _ints(trial.treatment),
        _floats(trial.outcome),
        _floats(trial.baseline_risk),
    )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        writer.writerows(zip(*columns))


class LoggedTrial:
    """Arrays re-read from a trial.csv, sufficient for offline re-estimation."""

    def __init__(self, covariates, model_version, threshold, raw_risk,
                 shifted_risk, treatment, outcome, baseline_risk):
        self.covariates = covariates
        self.model_version = model_version
        self.threshold = threshold
        self.raw_risk = raw_risk
        self.shifted_risk = shifted_risk
        self.treatment = treatment
        self.outcome = outcome
        self.baseline_risk = baseline_risk

    @property
    def column_pairs(self) -> list:
        return list(zip(self.model_version.tolist(), self.threshold.tolist()))


def _trial_line(i: int, problem: str) -> str:
    return f"trial file line {i + 2}: {problem}"


def read_trial_csv(path) -> LoggedTrial:
    """Re-read a trial.csv; blank lines are skipped and not counted in line numbers."""
    columns = read_csv_columns(path, "trial file", TRIAL_COLUMNS, _trial_line)
    if not columns["index"]:
        raise IngestionError("trial file has no data rows")

    def numbers(name: str, kind=float) -> np.ndarray:
        return parse_numbers(columns[name], kind, name, _trial_line)

    return LoggedTrial(
        covariates=parse_covariates(columns, _trial_line),
        model_version=numbers("model_version", int),
        threshold=numbers("threshold"),
        raw_risk=numbers("raw_risk"),
        shifted_risk=numbers("shifted_risk"),
        treatment=numbers("treatment", int),
        outcome=numbers("outcome"),
        baseline_risk=numbers("baseline_risk"),
    )


def write_events_csv(events: list[AdaptationEvent], path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "kind", "old", "new", "detail"])
        for ev in events:
            writer.writerow([ev.index, ev.kind, _f(ev.old), _f(ev.new), ev.detail])


def write_curve_csv(curve: EffectCurve, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for e in curve.estimates:
            writer.writerow(
                [
                    _f(e.r),
                    _f(e.beta_hat),
                    _f(e.se),
                    _f(e.ci[0]),
                    _f(e.ci[1]),
                    _f(e.mu1_hat),
                    _f(e.mu0_hat),
                    _f(e.eff_n_treated),
                    _f(e.eff_n_untreated),
                ]
            )


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(payload: dict, path) -> None:
    path = Path(path)
    text = json.dumps(_plain(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")
