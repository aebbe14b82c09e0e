import dataclasses
import math

import numpy as np
import pytest

from adaptrd.cohort import (
    DEFAULT_COHORT_PARAMS,
    CohortTable,
    PatientCovariates,
    SyntheticCohortParams,
    load_cohort_csv,
    sample_cohort,
    save_cohort_csv,
    validate_covariates,
)
from adaptrd.errors import ConfigError, IngestionError, ValidationError
from adaptrd.seeds import SeedStream


def make_patient(**overrides) -> PatientCovariates:
    base = dict(
        age=60.0,
        sex="female",
        race="white",
        systolic_bp=130.0,
        total_chol=200.0,
        hdl_chol=55.0,
        smoker=False,
        diabetes=True,
        bp_treated=False,
    )
    base.update(overrides)
    return PatientCovariates(**base)


class TestValidateCovariates:
    def test_valid_patient_returned_unchanged(self):
        p = make_patient()
        assert validate_covariates(p) is p

    def test_hdl_above_total_chol_rejected(self):
        with pytest.raises(ValidationError, match="hdl_chol"):
            validate_covariates(make_patient(hdl_chol=250.0, total_chol=200.0))

    def test_nan_systolic_bp_rejected(self):
        with pytest.raises(ValidationError, match="systolic_bp"):
            validate_covariates(make_patient(systolic_bp=float("nan")))

    def test_age_bounds(self):
        with pytest.raises(ValidationError, match="age"):
            validate_covariates(make_patient(age=30.0))
        with pytest.raises(ValidationError, match="age"):
            validate_covariates(make_patient(age=80.0))

    def test_bad_categories(self):
        with pytest.raises(ValidationError, match="sex"):
            validate_covariates(make_patient(sex="unknown"))
        with pytest.raises(ValidationError, match="race"):
            validate_covariates(make_patient(race="hispanic"))


class TestSampling:
    def test_degenerate_categorical_all_female(self):
        params = dataclasses.replace(DEFAULT_COHORT_PARAMS, p_female=1.0)
        table = sample_cohort(params, SeedStream(3), 200)
        assert table.female.all()

    def test_determinism_same_params_and_stream(self):
        p1 = validate_covariates(sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(11, (2,)), 1).row(0))
        p2 = validate_covariates(sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(11, (2,)), 1).row(0))
        assert p1 == p2

    def test_mean_age_matches_uniform_oracle(self):
        # age ~ Uniform(40, 79): mean 59.5, sd 39/sqrt(12); 10k draws keep the
        # sample mean within the stated [58.5, 60.5] band (about 9 MC sigmas).
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(5), 10_000)
        assert 58.5 <= table.age.mean() <= 60.5

    def test_every_sampled_patient_validates(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(9), 500)
        for p in table.patients():
            validate_covariates(p)

    def test_distinct_streams_nearly_uncorrelated_ages(self):
        a = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(13).child(0), 10_000).age
        b = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(13).child(1), 10_000).age
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_truncation_bounds_enforced(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(17), 5_000)
        assert table.systolic_bp.min() >= 85.0 and table.systolic_bp.max() <= 210.0
        assert table.total_chol.min() >= 110.0
        assert (table.hdl_chol >= 20.0).all()
        assert (table.hdl_chol <= table.total_chol - 30.0).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticCohortParams(p_female=1.4)
        with pytest.raises(ConfigError):
            SyntheticCohortParams(race_probs={"white": 0.9, "black": 0.2, "other": -0.1})
        with pytest.raises(ConfigError):
            SyntheticCohortParams(age_range=(30.0, 79.0))


class TestCsv:
    def test_single_valid_row(self, tmp_path):
        path = tmp_path / "one.csv"
        save_cohort_csv(path, [make_patient()])
        patients = load_cohort_csv(path)
        assert len(patients) == 1
        assert patients[0].age == 60.0

    def test_age_out_of_range_names_row_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_cohort_csv(path, [make_patient()])
        text = path.read_text().replace("60.0", "30.0")
        path.write_text(text)
        with pytest.raises(IngestionError, match=r"age.*row 1"):
            load_cohort_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("age,sex\n60,female\n")
        with pytest.raises(IngestionError, match="missing columns"):
            load_cohort_csv(path)

    def test_roundtrip_100_patients_bitwise(self, tmp_path):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(23), 100)
        originals = table.patients()
        path = tmp_path / "cohort.csv"
        save_cohort_csv(path, originals)
        reloaded = load_cohort_csv(path)
        assert len(reloaded) == 100
        for a, b in zip(originals, reloaded):
            # repr round-trips doubles exactly, so equality is bitwise
            assert a == b

    def test_unparseable_value_names_row(self, tmp_path):
        path = tmp_path / "junk.csv"
        save_cohort_csv(path, [make_patient(), make_patient()])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("130.0", "abc")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_cohort_csv(path)


def test_table_patient_roundtrip():
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(31), 40)
    rebuilt = CohortTable.from_patients(table.patients())
    assert np.array_equal(table.age, rebuilt.age)
    assert np.array_equal(table.race, rebuilt.race)
    assert np.array_equal(table.bp_treated, rebuilt.bp_treated)


def test_slice_matches_rows():
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(37), 30)
    part = table.slice(10, 20)
    assert len(part) == 10
    assert part.row(0) == table.row(10)
    assert math.isclose(part.hdl_chol[-1], table.hdl_chol[19])
