"""Versioned cardiovascular risk models and counterfactual risk matrices.

Implements the sex/race-stratified 10-year ASCVD risk calculator (coefficient
table embedded as package data, checksum-verified, overridable by file),
unstratified complementary log-log GLM risk models produced by revision,
and the matrix of shifted risks every patient would have received under each
earlier model/threshold pair, stored as raw risks per model version.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cohort import CohortTable
from .errors import ConfigError, NumericError, ValidationError

# female before male, white before black: the order subgroup_index counts in
SUBGROUPS = ("white_female", "black_female", "white_male", "black_male")

PCE_TERMS = (
    "ln_age",
    "ln_age_sq",
    "ln_total_chol",
    "ln_age_x_ln_total_chol",
    "ln_hdl",
    "ln_age_x_ln_hdl",
    "ln_sbp_treated",
    "ln_age_x_ln_sbp_treated",
    "ln_sbp_untreated",
    "ln_age_x_ln_sbp_untreated",
    "smoker",
    "ln_age_x_smoker",
    "diabetes",
)

# Design terms of the unstratified (revised) model: intercept + PCE transforms.
UNSTRATIFIED_TERMS = ("intercept",) + PCE_TERMS

RISK_FLOOR = 1e-12
RISK_CEIL = 1.0 - 1e-12

_COEFFICIENT_SHA256 = "c61aa498a5abb8dd995d21928558b184c94ceffbecca1ed29504438d09a148c4"


@dataclass(frozen=True)
class SubgroupCoefficients:
    terms: dict
    s0: float
    lp_bar: float


@dataclass(frozen=True)
class PceCoefficientSet:
    """Per-subgroup term coefficients plus baseline survival and mean LP."""

    subgroups: dict

    def __post_init__(self):
        if set(self.subgroups) != set(SUBGROUPS):
            raise ConfigError(f"coefficient set must define exactly {SUBGROUPS}")
        for name, sg in self.subgroups.items():
            if not 0.0 < sg.s0 < 1.0:
                raise ConfigError(f"{name}: s0 must lie in (0, 1)")
            if not math.isfinite(sg.lp_bar):
                raise ConfigError(f"{name}: lp_bar must be finite")
            unknown = set(sg.terms) - set(PCE_TERMS)
            if unknown:
                raise ConfigError(f"{name}: unknown terms {sorted(unknown)}")
            if any(not math.isfinite(v) for v in sg.terms.values()):
                raise ConfigError(f"{name}: coefficients must be finite")


def _parse_coefficient_json(payload: dict) -> PceCoefficientSet:
    subgroups = {}
    for name, sg in payload.items():
        subgroups[name] = SubgroupCoefficients(
            terms={k: float(v) for k, v in sg["terms"].items()},
            s0=float(sg["s0"]),
            lp_bar=float(sg["lp_bar"]),
        )
    return PceCoefficientSet(subgroups)


def load_default_coefficients() -> PceCoefficientSet:
    """Load the embedded coefficient table, verifying its checksum."""
    blob = resources.files("adaptrd").joinpath("data/pce_coefficients.json").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _COEFFICIENT_SHA256:
        raise ConfigError(
            "embedded coefficient table failed checksum validation; "
            f"expected {_COEFFICIENT_SHA256}, got {digest}"
        )
    return _parse_coefficient_json(json.loads(blob))


def load_coefficients_file(path) -> PceCoefficientSet:
    """Load a user-supplied coefficient override file (same JSON schema)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"coefficient file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"coefficient file is not valid JSON: {exc}") from exc
    return _parse_coefficient_json(payload)


def subgroup_index(table: CohortTable) -> np.ndarray:
    """Each patient's position in SUBGROUPS; race 'other' uses the white tables."""
    return np.where(table.female, 0, 2) + (table.race == "black")


def _pce_term_values(table: CohortTable) -> dict:
    ln_age = np.log(table.age)
    ln_tc = np.log(table.total_chol)
    ln_hdl = np.log(table.hdl_chol)
    ln_sbp = np.log(table.systolic_bp)
    treated = table.bp_treated.astype(float)
    smoker = table.smoker.astype(float)
    return {
        "ln_age": ln_age,
        "ln_age_sq": ln_age**2,
        "ln_total_chol": ln_tc,
        "ln_age_x_ln_total_chol": ln_age * ln_tc,
        "ln_hdl": ln_hdl,
        "ln_age_x_ln_hdl": ln_age * ln_hdl,
        "ln_sbp_treated": ln_sbp * treated,
        "ln_age_x_ln_sbp_treated": ln_age * ln_sbp * treated,
        "ln_sbp_untreated": ln_sbp * (1.0 - treated),
        "ln_age_x_ln_sbp_untreated": ln_age * ln_sbp * (1.0 - treated),
        "smoker": smoker,
        "ln_age_x_smoker": ln_age * smoker,
        "diabetes": table.diabetes.astype(float),
    }


def unstratified_design(table: CohortTable) -> np.ndarray:
    """Design matrix over UNSTRATIFIED_TERMS (intercept + 13 transforms)."""
    terms = _pce_term_values(table)
    cols = [np.ones(len(table))] + [terms[t] for t in PCE_TERMS]
    return np.column_stack(cols)


def _pce_risk_batch(table: CohortTable, coeffs: PceCoefficientSet) -> np.ndarray:
    terms = _pce_term_values(table)
    n = len(table)
    index = subgroup_index(table)
    out = np.empty(n)
    for k, name in enumerate(SUBGROUPS):
        mask = index == k
        if not mask.any():
            continue
        sg = coeffs.subgroups[name]
        lp = np.zeros(mask.sum())
        for t, c in sg.terms.items():
            lp += c * terms[t][mask]
        out[mask] = 1.0 - sg.s0 ** np.exp(lp - sg.lp_bar)
    return np.clip(out, RISK_FLOOR, RISK_CEIL)


PCE_STRATIFIED = "pce_stratified"
GLM_UNSTRATIFIED = "glm_unstratified"


@dataclass(frozen=True)
class RiskModelVersion:
    """One immutable version of the risk function.

    ``pce_stratified`` wraps a subgroup coefficient table (the original model
    and every recalibration of it, which is an exact coefficient transform).
    ``glm_unstratified`` wraps a single complementary log-log coefficient
    vector over UNSTRATIFIED_TERMS; it carries no race or sex terms, and its
    treatment coefficient is metadata only (prediction is at treatment = 0).
    """

    version_id: int
    kind: str
    provenance: str  # original | recalibrated | revised
    coefficients: Optional[PceCoefficientSet] = None
    glm_theta: Optional[np.ndarray] = None
    fit_details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.version_id < 0:
            raise ValidationError("version_id must be non-negative")
        if self.kind == PCE_STRATIFIED:
            if self.coefficients is None:
                raise ValidationError("pce_stratified model needs a coefficient set")
        elif self.kind == GLM_UNSTRATIFIED:
            theta = self.glm_theta
            if theta is None or np.asarray(theta).shape != (len(UNSTRATIFIED_TERMS),):
                raise ValidationError(
                    f"glm_unstratified model needs {len(UNSTRATIFIED_TERMS)} coefficients"
                )
        else:
            raise ValidationError(f"unknown model kind: {self.kind}")


def original_pce_model(coeffs: Optional[PceCoefficientSet] = None) -> RiskModelVersion:
    if coeffs is None:
        coeffs = load_default_coefficients()
    return RiskModelVersion(version_id=0, kind=PCE_STRATIFIED, provenance="original", coefficients=coeffs)


def predict_risk_batch(model: RiskModelVersion, table: CohortTable) -> np.ndarray:
    if model.kind == PCE_STRATIFIED:
        return _pce_risk_batch(table, model.coefficients)
    design = unstratified_design(table)
    lp = design @ np.asarray(model.glm_theta, dtype=float)
    risk = 1.0 - np.exp(-np.exp(np.clip(lp, -30.0, 30.0)))
    return np.clip(risk, RISK_FLOOR, RISK_CEIL)


def cloglog_of_risk(risk: np.ndarray) -> np.ndarray:
    """log(-log(1 - risk)) on clamped risks; the PCE's natural linear scale."""
    r = np.clip(np.asarray(risk, dtype=float), RISK_FLOOR, RISK_CEIL)
    return np.log(-np.log1p(-r))


def recalibrated_coefficients(
    base: PceCoefficientSet, intercept: float, slope: float
) -> PceCoefficientSet:
    """Compose a cloglog-scale calibration map with a coefficient table.

    cloglog(risk) of the stratified model is LP - lp_bar + log(-log s0), so
    intercept/slope calibration is an exact transform of each subgroup:
    coefficients scale by the slope and (s0, lp_bar) absorb the rest.
    """
    if not math.isfinite(intercept) or not math.isfinite(slope):
        raise NumericError("calibration coefficients must be finite")
    subgroups = {}
    for name, sg in base.subgroups.items():
        new_terms = {t: slope * c for t, c in sg.terms.items()}
        base_cll = math.log(-math.log(sg.s0))
        new_cll = intercept + slope * base_cll
        new_s0 = math.exp(-math.exp(new_cll))
        new_s0 = min(max(new_s0, RISK_FLOOR), RISK_CEIL)
        subgroups[name] = SubgroupCoefficients(
            terms=new_terms, s0=new_s0, lp_bar=slope * sg.lp_bar
        )
    return PceCoefficientSet(subgroups)


# ---------------------------------------------------------------------------
# Model history and the counterfactual risk matrix


class ModelHistory:
    """The (model, threshold) pair in force for each patient index 1..i.

    Stored as run-length segments: consecutive patients under the same pair
    share one ``[model list index, threshold, count]`` entry.
    """

    def __init__(self):
        self.models: list[RiskModelVersion] = []
        self._segments: list[list] = []  # [model list index, threshold, count]

    def __len__(self) -> int:
        return sum(count for _, _, count in self._segments)

    def append(self, model: RiskModelVersion, threshold: float, count: int = 1) -> None:
        """Record ``count`` consecutive patients under (model, threshold)."""
        if count < 1:
            raise ValidationError("count must be >= 1")
        if not 0.0 < threshold < 1.0:
            raise ValidationError("threshold must lie in (0, 1)")
        if not self.models or self.models[-1].version_id != model.version_id:
            if any(m.version_id == model.version_id for m in self.models):
                raise ValidationError("model versions must not be reused after replacement")
            self.models.append(model)
        pair = [len(self.models) - 1, float(threshold)]
        if self._segments and self._segments[-1][:2] == pair:
            self._segments[-1][2] += count
        else:
            self._segments.append(pair + [count])

    @property
    def thresholds(self) -> np.ndarray:
        return np.repeat([seg[1] for seg in self._segments], [seg[2] for seg in self._segments])

    def distinct_pairs(self) -> list[tuple[int, float]]:
        """(model list index, threshold) pairs in order of first use."""
        return list(dict.fromkeys((idx, thr) for idx, thr, _ in self._segments))

    def column_map(self) -> np.ndarray:
        """Per patient, the position of its pair in ``distinct_pairs()``."""
        pos = {pair: d for d, pair in enumerate(self.distinct_pairs())}
        return np.repeat(
            np.asarray([pos[(idx, thr)] for idx, thr, _ in self._segments], dtype=int),
            [count for _, _, count in self._segments],
        )


@dataclass
class CounterfactualRiskMatrix:
    """Shifted risks r[k][j] of patient k under patient j's (model, threshold) pair.

    A threshold shifts a model version's risks by a constant, so the matrix
    is stored as one raw-risk column per model version, and each distinct
    (version, threshold) pair as the index of its version's column plus its
    threshold: r[k][j] = raw[k, version_index[d]] - thresholds[d], where
    d = column_map[j-1] locates patient j's pair among the distinct ones.
    """

    raw: np.ndarray  # n x V raw risks, model versions in order of first use
    version_ids: np.ndarray  # V ints
    version_index: np.ndarray  # D ints into the columns of raw
    thresholds: np.ndarray  # D floats
    column_map: np.ndarray  # n ints into the distinct columns

    @property
    def n_patients(self) -> int:
        return self.raw.shape[0]

    @property
    def n_distinct(self) -> int:
        return len(self.thresholds)

    @property
    def focal_index(self) -> int:
        """Distinct-column index of the last patient's (current) pair."""
        return int(self.column_map[-1])

    def shifted_column(self, d: int) -> np.ndarray:
        """Every patient's shifted risk under distinct column ``d``: raw minus threshold."""
        return self.raw[:, self.version_index[d]] - self.thresholds[d]

    @property
    def focal_shifted(self) -> np.ndarray:
        return self.shifted_column(self.focal_index)

    def diagonal_raw(self) -> np.ndarray:
        """Each patient's raw risk under its own model version."""
        return self.raw[np.arange(self.n_patients), self.version_index[self.column_map]]


def build_counterfactual_matrix(
    history: ModelHistory, scored: dict[int, np.ndarray]
) -> CounterfactualRiskMatrix:
    """Assemble the matrix of the patients in ``history`` from scored risks.

    ``scored`` maps each model version id in ``history`` to raw risks under
    that version, of which the first ``len(history)`` belong to the history's
    patients in order. Each version is one column, whatever the number of
    thresholds paired with it, so storage is O(n x versions) rather than
    O(n^2). Nothing is scored here.
    """
    n = len(history)
    columns = []
    for model in history.models:
        raw = scored.get(model.version_id)
        if raw is None or len(raw) < n:
            raise ValidationError(
                f"model version {model.version_id} needs scored risks for the history's {n} patients"
            )
        columns.append(raw[:n])
    pairs = history.distinct_pairs()
    return CounterfactualRiskMatrix(
        raw=np.column_stack(columns),
        version_ids=np.asarray([model.version_id for model in history.models]),
        version_index=np.asarray([idx for idx, _ in pairs]),
        thresholds=np.asarray([thr for _, thr in pairs]),
        column_map=history.column_map(),
    )


MATRIX_COLUMNS = ("patient_index", "version_id", "threshold", "raw_risk", "shifted_risk")


def export_matrix_csv(matrix: CounterfactualRiskMatrix, path) -> None:
    """Long-format export: one row per (patient, distinct column).

    Rows are patient-major, and within a patient the distinct columns keep
    their matrix order. Floats are written with ``repr``; each patient's
    block of rows goes to the file in one write. A shifted risk is computed
    as its raw risk minus its threshold when the row is written, the same
    float operation as ``shifted_column``.
    """
    columns = [
        (f"{int(matrix.version_ids[v])},{t!r},", v, t)
        for v, t in zip(matrix.version_index.tolist(), matrix.thresholds.tolist())
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(MATRIX_COLUMNS) + "\n")
        for k, raw in enumerate(matrix.raw.tolist(), start=1):
            fh.write("".join([f"{k},{p}{raw[v]!r},{raw[v] - t!r}\n" for p, v, t in columns]))


def _integral(values: np.ndarray, name: str) -> np.ndarray:
    ok = np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) <= 2.0**53)
    if not ok.all():
        row = int(np.argmin(ok))
        raise ConfigError(f"matrix file data row {row + 1}: {name} {float(values[row])!r} is not an integer")
    return values.astype(np.int64)


def import_matrix_csv(path, column_pairs: Sequence[tuple[int, float]]) -> CounterfactualRiskMatrix:
    """Rebuild a matrix from its CSV export.

    ``column_pairs`` is the per-patient (version_id, threshold) sequence from
    the trial log, used to reconstruct the column map. Rows may come in any
    order; distinct columns, and the model versions they belong to, are
    numbered in order of first appearance. Each column must hold exactly one
    row for each patient 1..len(column_pairs), the columns of one version
    must carry the same raw risks, and each shifted risk must be exactly its
    raw risk minus its threshold; any other content raises ``ConfigError``.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
    except FileNotFoundError as exc:
        raise ConfigError(f"matrix file not found: {path}") from exc
    if header != list(MATRIX_COLUMNS):
        raise ConfigError(f"matrix file header must be {','.join(MATRIX_COLUMNS)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
        try:
            body = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="utf-8")
        except ValueError as exc:
            raise ConfigError(f"matrix file: {exc}") from exc
    if body.size == 0:
        raise ConfigError("matrix file has no data rows")
    if body.shape[1] != len(MATRIX_COLUMNS):
        raise ConfigError(f"matrix file rows have {body.shape[1]} fields, expected {len(MATRIX_COLUMNS)}")
    n = len(column_pairs)
    patient = _integral(body[:, 0], "patient_index")
    version = _integral(body[:, 1], "version_id")
    threshold, raw_risk, shifted_risk = body[:, 2], body[:, 3], body[:, 4]
    outside = (patient < 1) | (patient > n)
    if outside.any():
        row = int(np.argmax(outside))
        raise ConfigError(f"matrix file data row {row + 1}: patient_index {patient[row]} outside 1..{n}")
    inexact = shifted_risk.view(np.uint64) != (raw_risk - threshold).view(np.uint64)
    if inexact.any():
        row = int(np.argmax(inexact))
        raise ConfigError(
            f"matrix file data row {row + 1}: shifted_risk {float(shifted_risk[row])!r} is not "
            f"raw_risk - threshold ({float(raw_risk[row] - threshold[row])!r})"
        )

    # Distinct (version, threshold) keys in order of first appearance: a stable
    # sort keeps each key's earliest row at the start of its run.
    order = np.lexsort((threshold, version))
    v, t = version[order], threshold[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (v[1:] != v[:-1]) | (t[1:] != t[:-1])
    first_rows = order[starts]
    key_rows = np.sort(first_rows)
    column = np.empty(order.size, dtype=np.intp)
    column[order] = np.searchsorted(key_rows, first_rows)[np.cumsum(starts) - 1]
    column_versions, thresholds = version[key_rows], threshold[key_rows]
    keys = list(zip(column_versions.tolist(), thresholds.tolist()))
    D = len(keys)

    cell = (patient - 1) * D + column
    counts = np.bincount(cell, minlength=n * D)
    if counts.max() > 1:
        row = int(np.argmax(counts[cell] > 1))
        raise ConfigError(
            f"matrix file repeats patient {patient[row]} in column {keys[column[row]]}"
        )
    if counts.min() == 0:
        covered = (counts.reshape(n, D) > 0).sum(axis=0)
        d = int(np.argmax(covered < n))
        raise ConfigError(f"matrix column {keys[d]} covers {covered[d]} patients, expected {n}")

    # One raw column per model version, taken from the version's first column;
    # the version's other columns must carry the same raw risks.
    versions = column_versions.tolist()
    version_ids = list(dict.fromkeys(versions))
    version_index = np.asarray([version_ids.index(vid) for vid in versions])
    dense = np.empty(n * D)
    dense[cell] = raw_risk
    dense = dense.reshape(n, D)
    raw = dense[:, [versions.index(vid) for vid in version_ids]]
    for d, v in enumerate(version_index.tolist()):
        differs = dense[:, d].view(np.uint64) != raw[:, v].view(np.uint64)
        if differs.any():
            k = int(np.argmax(differs))
            raise ConfigError(
                f"matrix column {keys[d]} has raw_risk {float(dense[k, d])!r} for patient {k + 1}, "
                f"but {float(raw[k, v])!r} in another column of version {versions[d]}"
            )

    pos = {key: d for d, key in enumerate(keys)}
    try:
        column_map = np.asarray([pos[(vid, thr)] for vid, thr in column_pairs])
    except KeyError as exc:
        raise ConfigError(f"trial log references matrix column {exc} not in file") from exc
    return CounterfactualRiskMatrix(
        raw=raw,
        version_ids=np.asarray(version_ids),
        version_index=version_index,
        thresholds=thresholds,
        column_map=column_map,
    )
