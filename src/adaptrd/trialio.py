"""CSV and JSON serialization of trials, curves and replication reports.

The CSV files are written by ``cohort.write_csv``, which writes floats with
``repr`` (shortest round-trip form), so re-reading a file reproduces the
original values bit for bit and identical runs produce byte-identical outputs.
The trial writer formats whole columns at once.

``read_trial_csv`` is strict: it reads columns by header name and ignores
extra ones, and a missing column, a row whose field count differs from the
header's, a field that does not parse or a sex, race, treatment or 0/1 flag
outside its categories raises ``IngestionError`` naming the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cohort import (
    CSV_COLUMNS,
    CohortTable,
    covariate_columns,
    csv_numbers,
    parse_categories,
    parse_covariates,
    parse_numbers,
    read_csv_columns,
    write_csv,
)
from .errors import IngestionError
from .estimator import EffectCurve
from .harness import AdaptationEvent, TrialData


@dataclass
class LoggedTrial:
    """Arrays re-read from a trial.csv, sufficient for offline re-estimation.

    Each array field is one column of the file, under the field's name.
    """

    covariates: CohortTable
    model_version: np.ndarray
    threshold: np.ndarray
    raw_risk: np.ndarray
    shifted_risk: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    baseline_risk: np.ndarray

    @property
    def column_pairs(self) -> list:
        return list(zip(self.model_version.tolist(), self.threshold.tolist()))


_ARRAY_COLUMNS = tuple(f.name for f in fields(LoggedTrial) if f.name != "covariates")
_KINDS = {name: int if name in ("model_version", "treatment") else float for name in _ARRAY_COLUMNS}
TRIAL_COLUMNS = ("index", *CSV_COLUMNS, *_ARRAY_COLUMNS)

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

EVENT_COLUMNS = tuple(f.name for f in fields(AdaptationEvent))


def write_trial_csv(trial: TrialData, path) -> None:
    logged = LoggedTrial(
        trial.covariates, *trial.matrix.diagonal(),
        trial.treatment, trial.outcome, trial.baseline_risk,
    )
    arrays = [csv_numbers(getattr(logged, name), _KINDS[name]) for name in _ARRAY_COLUMNS]
    rows = zip(range(1, trial.n + 1), *covariate_columns(trial.covariates), *arrays)
    write_csv(path, TRIAL_COLUMNS, rows)


def _trial_line(i: int, problem: str) -> str:
    return f"trial file line {i + 2}: {problem}"


def read_trial_csv(path) -> LoggedTrial:
    """Re-read a trial.csv; blank lines are skipped and not counted in line numbers."""
    columns = read_csv_columns(path, "trial file", TRIAL_COLUMNS, _trial_line)
    if not columns["index"]:
        raise IngestionError("trial file has no data rows")
    arrays = {
        name: parse_numbers(columns[name], _KINDS[name], name, _trial_line)
        for name in _ARRAY_COLUMNS
        if name != "treatment"
    }
    arms = parse_categories(columns["treatment"], ("0", "1"), "treatment", _trial_line)
    arrays["treatment"] = (arms == "1").astype(int)
    return LoggedTrial(parse_covariates(columns, _trial_line), **arrays)


def write_events_csv(events: list[AdaptationEvent], path) -> None:
    """One row per event; ``old`` and ``new`` (thresholds or model version ids) as floats."""
    rows = ((ev.index, ev.kind, float(ev.old), float(ev.new), ev.detail) for ev in events)
    write_csv(path, EVENT_COLUMNS, rows)


def write_curve_csv(curve: EffectCurve, path) -> None:
    rows = (
        [float(x) for x in (e.r, e.beta_hat, e.se, *e.ci, e.mu1_hat, e.mu0_hat,
                            e.eff_n_treated, e.eff_n_untreated)]
        for e in curve.estimates
    )
    write_csv(path, CURVE_COLUMNS, rows)


def write_json(payload: dict, path) -> None:
    """``payload`` as sorted, indented JSON; it must hold only plain Python values."""
    path = Path(path)
    text = json.dumps(payload, sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")
