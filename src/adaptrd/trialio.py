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

from .cohort import RACES, CohortTable
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
    cov = trial.covariates
    columns = (
        range(1, trial.n + 1),
        _floats(cov.age),
        np.where(cov.female, "female", "male").tolist(),
        cov.race.tolist(),
        _floats(cov.systolic_bp),
        _floats(cov.total_chol),
        _floats(cov.hdl_chol),
        _ints(cov.smoker),
        _ints(cov.diabetes),
        _ints(cov.bp_treated),
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


def _parse_column(texts: list, kind, name: str) -> np.ndarray:
    """Convert one column's field texts; the first bad field names its line."""
    try:
        return np.fromiter(map(kind, texts), dtype=kind, count=len(texts))
    except (ValueError, OverflowError):
        for i, text in enumerate(texts):
            try:
                np.array(kind(text), dtype=kind)
            except (ValueError, OverflowError) as exc:
                raise IngestionError(f"trial file line {i + 2}: {name}: {exc}") from exc
        raise


def read_trial_csv(path) -> LoggedTrial:
    """Re-read a trial.csv; blank lines are skipped and not counted in line numbers."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"trial file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in TRIAL_COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"trial file missing columns: {', '.join(missing)}")
        width = len(header)
        cells: list[str] = []  # the data fields, row after row
        for row in reader:
            if row and len(row) != width:
                raise IngestionError(
                    f"trial file line {len(cells) // width + 2}: "
                    f"{len(row)} fields, the header has {width}"
                )
            cells += row
    if not cells:
        raise IngestionError("trial file has no data rows")
    where = {name: j for j, name in enumerate(header)}

    def text(name: str) -> list:
        return cells[where[name]::width]

    def numbers(name: str, kind=float) -> np.ndarray:
        return _parse_column(text(name), kind, name)

    def categories(name: str, allowed: tuple) -> np.ndarray:
        values = text(name)
        if not set(values) <= set(allowed):
            i = next(i for i, value in enumerate(values) if value not in allowed)
            raise IngestionError(
                f"trial file line {i + 2}: {name}: {values[i]!r} is not one of {', '.join(allowed)}"
            )
        return np.asarray(values)

    def flags(name: str) -> np.ndarray:
        return categories(name, ("0", "1")) == "1"

    covariates = CohortTable(
        age=numbers("age"),
        female=categories("sex", ("female", "male")) == "female",
        race=categories("race", RACES).astype("<U5"),
        systolic_bp=numbers("systolic_bp"),
        total_chol=numbers("total_chol"),
        hdl_chol=numbers("hdl_chol"),
        smoker=flags("smoker"),
        diabetes=flags("diabetes"),
        bp_treated=flags("bp_treated"),
    )
    return LoggedTrial(
        covariates=covariates,
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
