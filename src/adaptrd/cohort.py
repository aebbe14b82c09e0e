"""Synthetic patient cohorts and the covariate CSV format.

A cohort is a ``CohortTable``: one array per covariate the cardiovascular
risk calculator needs. The synthetic sampler draws from configurable
marginals (age uniform, truncated normals for pressures and lipids,
categorical flags) and is a pure function of (params, SeedStream).

The covariate text format (floats by ``repr``, sex as ``female``/``male``,
race from ``RACES``, flags as ``0``/``1``) has one writer,
``covariate_columns``, and one parser, ``parse_covariates``; cohort files
(``save_cohort_csv``/``load_cohort_csv``) and logged trial files both use
them. Only ``load_cohort_csv`` also enforces the range invariants. Every CSV
file the package writes but ``matrix.csv`` (see ``rowfile``) goes through
``write_csv``, and its number columns through ``csv_numbers``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, IngestionError
from .seeds import SeedStream

AGE_MIN, AGE_MAX = 40.0, 79.0
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
        for name in ("p_female", "p_smoker", "p_diabetes", "p_bp_treated"):
            p = getattr(self, name)
            _check_probs(name, {name: p, "complement": 1.0 - p})
        if set(self.race_probs) != set(RACES):
            raise ConfigError(f"race_probs must have keys {RACES}, got {tuple(self.race_probs)}")
        _check_probs("race", self.race_probs)
        if self.hdl_sd <= 0:
            raise ConfigError("hdl_sd must be positive")
        if self.hdl_lower >= self.total_chol.lower - self.hdl_upper_gap:
            raise ConfigError("hdl truncation window is empty at the lowest total_chol")


DEFAULT_COHORT_PARAMS = SyntheticCohortParams()


@dataclass
class CohortTable:
    """A cohort, one array per covariate, one entry per patient."""

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
        return CohortTable(**{f.name: getattr(self, f.name)[start:stop] for f in fields(self)})


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
# The covariate CSV format


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, as one CSV file.

    ``csv`` writes a Python float with ``repr``, its shortest round-trip
    form, so re-reading the file gives back the same float bit for bit.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def csv_numbers(values, kind=float) -> list:
    """An array as a list of Python ``kind`` (float or int), ready for ``write_csv``."""
    return np.asarray(values, dtype=kind).tolist()


def covariate_columns(table: CohortTable) -> list:
    """The table's covariates as nine ``write_csv`` columns, in CSV_COLUMNS order.

    Sex is ``female``/``male`` and flags are ``0``/``1``.
    """
    return [
        csv_numbers(table.age),
        np.where(table.female, "female", "male").tolist(),
        table.race.tolist(),
        csv_numbers(table.systolic_bp),
        csv_numbers(table.total_chol),
        csv_numbers(table.hdl_chol),
        csv_numbers(table.smoker, int),
        csv_numbers(table.diabetes, int),
        csv_numbers(table.bp_treated, int),
    ]


Locate = Callable[[int, str], str]  # (data row index, problem) -> error message


def parse_numbers(texts: list, kind, name: str, locate: Locate) -> np.ndarray:
    """Convert one column's field texts to ``kind``; the first bad field names its row."""
    try:
        return np.fromiter(map(kind, texts), dtype=kind, count=len(texts))
    except (ValueError, OverflowError):
        for i, text in enumerate(texts):
            try:
                np.array(kind(text), dtype=kind)
            except (ValueError, OverflowError) as exc:
                raise IngestionError(locate(i, f"{name}: {exc}")) from exc
        raise


def parse_categories(texts: list, allowed: tuple, name: str, locate: Locate) -> np.ndarray:
    """One column's field texts, each one of ``allowed``; the first other names its row."""
    if not set(texts) <= set(allowed):
        i = next(i for i, text in enumerate(texts) if text not in allowed)
        raise IngestionError(locate(i, f"{name}: {texts[i]!r} is not one of {', '.join(allowed)}"))
    return np.array(texts, dtype=str)


def parse_covariates(columns: dict, locate: Locate) -> CohortTable:
    """Parse the nine covariate columns (field texts by column name) into a table.

    The first field that does not parse, or a sex, race or flag outside its
    categories, raises ``IngestionError`` with the message ``locate`` makes
    from its data row index and the problem.
    """
    def numbers(name):
        return parse_numbers(columns[name], float, name, locate)

    def flags(name):
        return parse_categories(columns[name], ("0", "1"), name, locate) == "1"

    return CohortTable(
        age=numbers("age"),
        female=parse_categories(columns["sex"], ("female", "male"), "sex", locate) == "female",
        race=parse_categories(columns["race"], RACES, "race", locate).astype("<U5"),
        systolic_bp=numbers("systolic_bp"),
        total_chol=numbers("total_chol"),
        hdl_chol=numbers("hdl_chol"),
        smoker=flags("smoker"),
        diabetes=flags("diabetes"),
        bp_treated=flags("bp_treated"),
    )


def read_csv_columns(path, label: str, required: tuple, locate: Locate) -> dict:
    """The field texts of a CSV file, column by column, keyed by header name.

    Blank lines are skipped and not counted. A missing file or required
    column, or a row whose field count differs from the header's, raises
    ``IngestionError`` (``label`` names the file kind).
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{label} not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestionError(f"{label} missing columns: {', '.join(missing)}")
        width = len(header)
        cells: list[str] = []  # the data fields, row after row
        for row in reader:
            if row and len(row) != width:
                raise IngestionError(
                    locate(len(cells) // width, f"{len(row)} fields, the header has {width}")
                )
            cells += row
    return {name: cells[j::width] for j, name in enumerate(header)}


def _cohort_row(i: int, problem: str) -> str:
    return f"{problem}, row {i + 1}"


def _check_invariants(table: CohortTable) -> None:
    """Raise ``IngestionError`` at the first row that breaks a range invariant."""
    age, tc, hdl = table.age, table.total_chol, table.hdl_chol
    for name, ok, rule in (
        ("age", (age >= AGE_MIN) & (age <= AGE_MAX), f"in [{AGE_MIN:.0f}, {AGE_MAX:.0f}]"),
        ("systolic_bp", table.systolic_bp > 0, "above 0"),
        ("total_chol", tc > 0, "above 0"),
        ("hdl_chol", (hdl > 0) & (hdl < tc), "above 0 and below total_chol"),
    ):
        values = getattr(table, name)
        bad = ~(np.isfinite(values) & ok)
        if bad.any():
            i = int(np.argmax(bad))
            raise IngestionError(
                _cohort_row(i, f"{name}: {float(values[i])!r} is not a finite number {rule}")
            )


def load_cohort_csv(path) -> CohortTable:
    """Read a cohort CSV in the CSV_COLUMNS schema into a table.

    Fields are stripped of surrounding spaces. Every measurement must be
    finite, age in [40, 79], systolic_bp, total_chol and hdl_chol positive,
    hdl_chol below total_chol, and sex, race and the flags in their
    categories; the first violation raises ``IngestionError`` naming the
    field and the row.
    """
    columns = read_csv_columns(path, "cohort file", CSV_COLUMNS, _cohort_row)
    extra = [c for c in columns if c not in CSV_COLUMNS]
    if extra:
        raise IngestionError(f"unknown columns: {', '.join(extra)}")
    columns = {name: [text.strip() for text in texts] for name, texts in columns.items()}
    table = parse_covariates(columns, _cohort_row)
    _check_invariants(table)
    return table


def save_cohort_csv(path, table: CohortTable) -> None:
    """Write a table in the ingestion schema; floats use shortest round-trip."""
    write_csv(path, CSV_COLUMNS, zip(*covariate_columns(table)))
