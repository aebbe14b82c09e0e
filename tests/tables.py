"""Small ``CohortTable`` builders and comparisons shared by the test modules."""

import dataclasses

import numpy as np

from adaptrd.cohort import CohortTable

COLUMNS = tuple(f.name for f in dataclasses.fields(CohortTable))


def one_row(**covariates) -> CohortTable:
    """A one-patient table from the nine scalar covariates (``female`` a bool, ``race`` a name)."""
    return CohortTable(**{name: np.array([covariates[name]]) for name in COLUMNS})


def same_rows(a: CohortTable, b: CohortTable) -> bool:
    """Whether two tables hold the same patients, column by column."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMNS)


def concat(*tables: CohortTable) -> CohortTable:
    return CohortTable(
        **{name: np.concatenate([getattr(t, name) for t in tables]) for name in COLUMNS}
    )
