"""CSV and JSON serialization of trials, curves and replication reports.

Floats are written with ``repr`` (shortest round-trip form), so re-reading a
file reproduces the original values bit for bit and identical runs produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .cohort import CohortTable
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


def write_trial_csv(trial: TrialData, path) -> None:
    path = Path(path)
    cov = trial.covariates
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for k in range(trial.n):
            writer.writerow(
                [
                    k + 1,
                    _f(cov.age[k]),
                    "female" if cov.female[k] else "male",
                    str(cov.race[k]),
                    _f(cov.systolic_bp[k]),
                    _f(cov.total_chol[k]),
                    _f(cov.hdl_chol[k]),
                    int(cov.smoker[k]),
                    int(cov.diabetes[k]),
                    int(cov.bp_treated[k]),
                    int(trial.model_version[k]),
                    _f(trial.threshold[k]),
                    _f(trial.raw_risk[k]),
                    _f(trial.shifted_risk[k]),
                    int(trial.treatment[k]),
                    _f(trial.outcome[k]),
                    _f(trial.baseline_risk[k]),
                ]
            )


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
        return [
            (int(v), float(t))
            for v, t in zip(self.model_version, self.threshold)
        ]


def read_trial_csv(path) -> LoggedTrial:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"trial file not found: {path}")
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRIAL_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise IngestionError(f"trial file missing columns: {', '.join(missing)}")
        for line_no, row in enumerate(reader, start=1):
            try:
                rows.append(
                    (
                        float(row["age"]),
                        row["sex"] == "female",
                        row["race"],
                        float(row["systolic_bp"]),
                        float(row["total_chol"]),
                        float(row["hdl_chol"]),
                        row["smoker"] == "1",
                        row["diabetes"] == "1",
                        row["bp_treated"] == "1",
                        int(row["model_version"]),
                        float(row["threshold"]),
                        float(row["raw_risk"]),
                        float(row["shifted_risk"]),
                        int(row["treatment"]),
                        float(row["outcome"]),
                        float(row["baseline_risk"]),
                    )
                )
            except (TypeError, ValueError, KeyError) as exc:
                raise IngestionError(f"trial file line {line_no + 1}: {exc}") from exc
    if not rows:
        raise IngestionError("trial file has no data rows")
    cols = list(zip(*rows))
    covariates = CohortTable(
        age=np.asarray(cols[0], dtype=float),
        female=np.asarray(cols[1], dtype=bool),
        race=np.asarray(cols[2], dtype="<U5"),
        systolic_bp=np.asarray(cols[3], dtype=float),
        total_chol=np.asarray(cols[4], dtype=float),
        hdl_chol=np.asarray(cols[5], dtype=float),
        smoker=np.asarray(cols[6], dtype=bool),
        diabetes=np.asarray(cols[7], dtype=bool),
        bp_treated=np.asarray(cols[8], dtype=bool),
    )
    return LoggedTrial(
        covariates=covariates,
        model_version=np.asarray(cols[9], dtype=int),
        threshold=np.asarray(cols[10], dtype=float),
        raw_risk=np.asarray(cols[11], dtype=float),
        shifted_risk=np.asarray(cols[12], dtype=float),
        treatment=np.asarray(cols[13], dtype=int),
        outcome=np.asarray(cols[14], dtype=float),
        baseline_risk=np.asarray(cols[15], dtype=float),
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
