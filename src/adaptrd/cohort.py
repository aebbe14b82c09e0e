"""Synthetic patient cohorts and CSV ingestion.

Patients carry the nine covariates the cardiovascular risk calculator needs.
The synthetic sampler draws from configurable marginals (age uniform,
truncated normals for pressures and lipids, categorical flags); real cohorts
can be ingested from CSV in the documented schema. Sampling is a pure
function of (params, SeedStream).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, IngestionError, ValidationError
from .seeds import SeedStream

AGE_MIN, AGE_MAX = 40.0, 79.0
SEXES = ("male", "female")
RACES = ("white", "black", "other")

CSV_COLUMNS = (
    "age",
    "sex",
    "race",
    "systolic_bp",
    "total_chol",
    "hdl_chol",
    "smoker",
    "diabetes",
    "bp_treated",
)


@dataclass(frozen=True)
class PatientCovariates:
    """One patient's risk-model inputs."""

    age: float
    sex: str
    race: str
    systolic_bp: float
    total_chol: float
    hdl_chol: float
    smoker: bool
    diabetes: bool
    bp_treated: bool


def validate_covariates(pc: PatientCovariates) -> PatientCovariates:
    """Return ``pc`` unchanged if every invariant holds, else raise.

    Violations are reported by field name so ingestion errors can point at
    the offending column.
    """
    problems = []
    for name in ("age", "systolic_bp", "total_chol", "hdl_chol"):
        v = getattr(pc, name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} is not finite")
    if not problems:
        if not AGE_MIN <= pc.age <= AGE_MAX:
            problems.append(f"age out of range [{AGE_MIN:.0f}, {AGE_MAX:.0f}]")
        for name in ("systolic_bp", "total_chol", "hdl_chol"):
            if getattr(pc, name) <= 0:
                problems.append(f"{name} must be strictly positive")
        if not problems and pc.hdl_chol >= pc.total_chol:
            problems.append("hdl_chol must be below total_chol")
    if pc.sex not in SEXES:
        problems.append(f"sex must be one of {SEXES}")
    if pc.race not in RACES:
        problems.append(f"race must be one of {RACES}")
    for name in ("smoker", "diabetes", "bp_treated"):
        if not isinstance(getattr(pc, name), bool):
            problems.append(f"{name} must be a boolean flag")
    if problems:
        raise ValidationError("; ".join(problems))
    return pc


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mean, sd) restricted to [lower, upper], sampled by inverse CDF."""

    mean: float
    sd: float
    lower: float
    upper: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ConfigError("truncated normal sd must be positive")
        if not self.lower < self.upper:
            raise ConfigError("truncation bounds must satisfy lower < upper")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        a = ndtr((self.lower - self.mean) / self.sd)
        b = ndtr((self.upper - self.mean) / self.sd)
        u = rng.uniform(a, b, size=size)
        return self.mean + self.sd * ndtri(u)


def _check_probs(name: str, probs: dict) -> None:
    vals = list(probs.values())
    if any(not 0.0 <= p <= 1.0 for p in vals):
        raise ConfigError(f"{name} probabilities must lie in [0, 1]")
    if abs(sum(vals) - 1.0) > 1e-9:
        raise ConfigError(f"{name} probabilities must sum to 1")


@dataclass(frozen=True)
class SyntheticCohortParams:
    """Marginal distributions for the synthetic sampler.

    Defaults are plausible adult-cohort values, overridable per field; none
    are treated as ground truth anywhere downstream.
    """

    age_range: tuple[float, float] = (AGE_MIN, AGE_MAX)
    systolic_bp: TruncatedNormal = field(
        default_factory=lambda: TruncatedNormal(125.0, 17.0, 85.0, 210.0)
    )
    total_chol: TruncatedNormal = field(
        default_factory=lambda: TruncatedNormal(195.0, 38.0, 110.0, 350.0)
    )
    hdl_slope: float = 0.28  # hdl mean = hdl_slope * total_chol
    hdl_sd: float = 10.0
    hdl_lower: float = 20.0
    hdl_upper_gap: float = 30.0  # hdl upper bound = total_chol - gap
    p_female: float = 0.52
    race_probs: dict = field(
        default_factory=lambda: {"white": 0.62, "black": 0.24, "other": 0.14}
    )
    p_smoker: float = 0.17
    p_diabetes: float = 0.14
    p_bp_treated: float = 0.25

    def __post_init__(self):
        lo, hi = self.age_range
        if not AGE_MIN <= lo < hi <= AGE_MAX:
            raise ConfigError(f"age_range must lie within [{AGE_MIN}, {AGE_MAX}]")
        _check_probs("sex", {"female": self.p_female, "male": 1.0 - self.p_female})
        if set(self.race_probs) != set(RACES):
            raise ConfigError(f"race_probs must have keys {RACES}")
        _check_probs("race", self.race_probs)
        for name in ("p_smoker", "p_diabetes", "p_bp_treated"):
            p = getattr(self, name)
            _check_probs(name, {name: p, "complement": 1.0 - p})
        if self.hdl_sd <= 0:
            raise ConfigError("hdl_sd must be positive")
        if self.hdl_lower >= self.total_chol.lower - self.hdl_upper_gap:
            raise ConfigError("hdl truncation window is empty at the lowest total_chol")


DEFAULT_COHORT_PARAMS = SyntheticCohortParams()


@dataclass
class CohortTable:
    """Column-oriented view of a patient sequence, used by the vectorized ops."""

    age: np.ndarray
    female: np.ndarray  # bool
    race: np.ndarray  # '<U5' strings from RACES
    systolic_bp: np.ndarray
    total_chol: np.ndarray
    hdl_chol: np.ndarray
    smoker: np.ndarray  # bool
    diabetes: np.ndarray  # bool
    bp_treated: np.ndarray  # bool

    def __len__(self) -> int:
        return self.age.size

    def slice(self, start: int, stop: int) -> "CohortTable":
        return CohortTable(
            age=self.age[start:stop],
            female=self.female[start:stop],
            race=self.race[start:stop],
            systolic_bp=self.systolic_bp[start:stop],
            total_chol=self.total_chol[start:stop],
            hdl_chol=self.hdl_chol[start:stop],
            smoker=self.smoker[start:stop],
            diabetes=self.diabetes[start:stop],
            bp_treated=self.bp_treated[start:stop],
        )

    def row(self, k: int) -> PatientCovariates:
        return PatientCovariates(
            age=float(self.age[k]),
            sex="female" if self.female[k] else "male",
            race=str(self.race[k]),
            systolic_bp=float(self.systolic_bp[k]),
            total_chol=float(self.total_chol[k]),
            hdl_chol=float(self.hdl_chol[k]),
            smoker=bool(self.smoker[k]),
            diabetes=bool(self.diabetes[k]),
            bp_treated=bool(self.bp_treated[k]),
        )

    def patients(self) -> list[PatientCovariates]:
        return [self.row(k) for k in range(len(self))]

    @staticmethod
    def from_patients(patients: Sequence[PatientCovariates]) -> "CohortTable":
        return CohortTable(
            age=np.array([p.age for p in patients], dtype=float),
            female=np.array([p.sex == "female" for p in patients], dtype=bool),
            race=np.array([p.race for p in patients], dtype="<U5"),
            systolic_bp=np.array([p.systolic_bp for p in patients], dtype=float),
            total_chol=np.array([p.total_chol for p in patients], dtype=float),
            hdl_chol=np.array([p.hdl_chol for p in patients], dtype=float),
            smoker=np.array([p.smoker for p in patients], dtype=bool),
            diabetes=np.array([p.diabetes for p in patients], dtype=bool),
            bp_treated=np.array([p.bp_treated for p in patients], dtype=bool),
        )


def sample_cohort(params: SyntheticCohortParams, stream: SeedStream, n: int) -> CohortTable:
    """Draw ``n`` patients as a table; deterministic given (params, stream).

    Fields are drawn in a fixed column order so the draw sequence never
    depends on patient values.
    """
    if n < 0:
        raise ConfigError("cohort size must be non-negative")
    rng = stream.generator()
    lo, hi = params.age_range
    age = rng.uniform(lo, hi, size=n)
    female = rng.uniform(size=n) < params.p_female
    race_names = np.array(RACES, dtype="<U5")
    race_p = np.array([params.race_probs[r] for r in RACES])
    race = race_names[_categorical(rng.uniform(size=n), race_p)]
    sbp = params.systolic_bp.sample(rng, n)
    tc = params.total_chol.sample(rng, n)
    hdl_upper = tc - params.hdl_upper_gap
    a = ndtr((params.hdl_lower - params.hdl_slope * tc) / params.hdl_sd)
    b = ndtr((hdl_upper - params.hdl_slope * tc) / params.hdl_sd)
    hdl = params.hdl_slope * tc + params.hdl_sd * ndtri(rng.uniform(a, b))
    smoker = rng.uniform(size=n) < params.p_smoker
    diabetes = rng.uniform(size=n) < params.p_diabetes
    bp_treated = rng.uniform(size=n) < params.p_bp_treated
    return CohortTable(age, female, race, sbp, tc, hdl, smoker, diabetes, bp_treated)


def _categorical(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    edges = np.cumsum(probs)
    return np.minimum(np.searchsorted(edges, u, side="right"), probs.size - 1)


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_row(row: dict, line_no: int) -> PatientCovariates:
    def fail(msg: str):
        raise IngestionError(f"{msg}, row {line_no}")

    vals = {}
    for col in ("age", "systolic_bp", "total_chol", "hdl_chol"):
        raw = (row.get(col) or "").strip()
        if raw == "":
            fail(f"missing value for {col}")
        try:
            vals[col] = float(raw)
        except ValueError:
            fail(f"unparseable {col} value {raw!r}")
    sex = (row.get("sex") or "").strip()
    race = (row.get("race") or "").strip()
    flags = {}
    for col in ("smoker", "diabetes", "bp_treated"):
        raw = (row.get(col) or "").strip()
        if raw not in ("0", "1"):
            fail(f"{col} must be 0 or 1, got {raw!r}")
        flags[col] = raw == "1"
    pc = PatientCovariates(
        age=vals["age"],
        sex=sex,
        race=race,
        systolic_bp=vals["systolic_bp"],
        total_chol=vals["total_chol"],
        hdl_chol=vals["hdl_chol"],
        smoker=flags["smoker"],
        diabetes=flags["diabetes"],
        bp_treated=flags["bp_treated"],
    )
    try:
        return validate_covariates(pc)
    except ValidationError as exc:
        fail(str(exc))


def load_cohort_csv(path) -> list[PatientCovariates]:
    """Read and validate a cohort CSV; rejects any row failing an invariant."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"cohort file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"missing columns: {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            raise IngestionError(f"unknown columns: {', '.join(extra)}")
        patients = []
        for line_no, row in enumerate(reader, start=1):
            patients.append(_parse_row(row, line_no))
    return patients


def save_cohort_csv(path, patients: Iterable[PatientCovariates]) -> None:
    """Write patients in the ingestion schema; floats use shortest round-trip."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in patients:
            writer.writerow(
                [
                    repr(float(p.age)),
                    p.sex,
                    p.race,
                    repr(float(p.systolic_bp)),
                    repr(float(p.total_chol)),
                    repr(float(p.hdl_chol)),
                    int(p.smoker),
                    int(p.diabetes),
                    int(p.bp_treated),
                ]
            )
