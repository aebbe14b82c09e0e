import dataclasses
import math

import numpy as np
import pytest

from adaptrd.cohort import (
    CSV_COLUMNS,
    DEFAULT_COHORT_PARAMS,
    SyntheticCohortParams,
    load_cohort_csv,
    sample_cohort,
    save_cohort_csv,
)
from adaptrd.errors import ConfigError, IngestionError
from adaptrd.seeds import SeedStream
from tables import concat, one_row, same_rows

HEADER = ",".join(CSV_COLUMNS) + "\n"
VALID_ROW = "60.0,female,white,130.0,200.0,55.0,0,1,0"


def make_patient(**overrides):
    base = dict(
        age=60.0,
        female=True,
        race="white",
        systolic_bp=130.0,
        total_chol=200.0,
        hdl_chol=55.0,
        smoker=False,
        diabetes=True,
        bp_treated=False,
    )
    base.update(overrides)
    return one_row(**base)


def load_row(tmp_path, **fields):
    """Load a one-row cohort file: VALID_ROW with the given fields' texts replaced."""
    texts = dict(zip(CSV_COLUMNS, VALID_ROW.split(",")))
    texts.update(fields)
    path = tmp_path / "row.csv"
    path.write_text(HEADER + ",".join(texts[c] for c in CSV_COLUMNS) + "\n")
    return load_cohort_csv(path)


def reload(tmp_path, table):
    path = tmp_path / "cohort.csv"
    save_cohort_csv(path, table)
    return load_cohort_csv(path)


class TestValidateCovariates:
    """The invariants load_cohort_csv enforces on each row."""

    def test_valid_patient_returned_unchanged(self, tmp_path):
        assert same_rows(load_row(tmp_path), make_patient())

    def test_hdl_above_total_chol_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="hdl_chol"):
            load_row(tmp_path, hdl_chol="250.0", total_chol="200.0")

    def test_nan_systolic_bp_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="systolic_bp"):
            load_row(tmp_path, systolic_bp="nan")

    def test_age_bounds(self, tmp_path):
        with pytest.raises(IngestionError, match="age"):
            load_row(tmp_path, age="30.0")
        with pytest.raises(IngestionError, match="age"):
            load_row(tmp_path, age="80.0")

    def test_bad_categories(self, tmp_path):
        with pytest.raises(IngestionError, match="sex"):
            load_row(tmp_path, sex="unknown")
        with pytest.raises(IngestionError, match="race"):
            load_row(tmp_path, race="hispanic")


class TestSampling:
    def test_degenerate_categorical_all_female(self):
        params = dataclasses.replace(DEFAULT_COHORT_PARAMS, p_female=1.0)
        table = sample_cohort(params, SeedStream(3), 200)
        assert table.female.all()

    def test_determinism_same_params_and_stream(self, tmp_path):
        p1 = reload(tmp_path, sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(11, (2,)), 1))
        p2 = reload(tmp_path, sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(11, (2,)), 1))
        assert same_rows(p1, p2)

    def test_mean_age_matches_uniform_oracle(self):
        # age ~ Uniform(40, 79): mean 59.5, sd 39/sqrt(12); 10k draws keep the
        # sample mean within the stated [58.5, 60.5] band (about 9 MC sigmas).
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(5), 10_000)
        assert 58.5 <= table.age.mean() <= 60.5

    def test_every_sampled_patient_validates(self, tmp_path):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(9), 500)
        assert same_rows(reload(tmp_path, table), table)

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
        save_cohort_csv(path, make_patient())
        patients = load_cohort_csv(path)
        assert len(patients) == 1
        assert patients.age[0] == 60.0

    def test_age_out_of_range_names_row_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        save_cohort_csv(path, make_patient())
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
        originals = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(23), 100)
        reloaded = reload(tmp_path, originals)
        assert len(reloaded) == 100
        for k in range(100):
            # repr round-trips doubles exactly, so equality is bitwise
            assert same_rows(originals.slice(k, k + 1), reloaded.slice(k, k + 1))

    def test_unparseable_value_names_row(self, tmp_path):
        path = tmp_path / "junk.csv"
        save_cohort_csv(path, concat(make_patient(), make_patient()))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("130.0", "abc")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_cohort_csv(path)

    def test_row_of_the_wrong_width_names_the_row(self, tmp_path):
        # csv.DictReader used to file the extra fields under None and accept the row
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + "60,female,white,130,200,55,0,1,0,EXTRA,MORE\n")
        with pytest.raises(IngestionError, match="11 fields, the header has 9, row 1"):
            load_cohort_csv(path)
        path.write_text(HEADER + VALID_ROW + "\n" + "60,female,white,130,200,55,0,1\n")
        with pytest.raises(IngestionError, match="8 fields, the header has 9, row 2"):
            load_cohort_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER.strip() + ",site\n" + VALID_ROW + ",a\n")
        with pytest.raises(IngestionError, match="unknown columns: site"):
            load_cohort_csv(path)

    def test_fields_are_stripped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(HEADER + ",".join(f" {text} " for text in VALID_ROW.split(",")) + "\n")
        assert same_rows(load_cohort_csv(path), make_patient())

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("age", "inf", r"age: inf is not a finite number in \[40, 79\], row 1"),
            ("systolic_bp", "0.0", "systolic_bp: 0.0 is not a finite number above 0, row 1"),
            ("total_chol", "-1.0", "total_chol: -1.0 is not a finite number above 0, row 1"),
            ("hdl_chol", "200.0",
             "hdl_chol: 200.0 is not a finite number above 0 and below total_chol, row 1"),
            ("hdl_chol", "", "hdl_chol: could not convert string to float: '', row 1"),
            ("smoker", "yes", "smoker: 'yes' is not one of 0, 1, row 1"),
            ("sex", "F", "sex: 'F' is not one of female, male, row 1"),
        ],
    )
    def test_error_names_field_and_row(self, tmp_path, field, text, message):
        with pytest.raises(IngestionError, match=message):
            load_row(tmp_path, **{field: text})

    def test_file_matches_the_per_patient_writer(self, tmp_path):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(29), 60)
        path = tmp_path / "cohort.csv"
        save_cohort_csv(path, table)
        rows = [
            [repr(float(table.age[k])), "female" if table.female[k] else "male", str(table.race[k]),
             repr(float(table.systolic_bp[k])), repr(float(table.total_chol[k])),
             repr(float(table.hdl_chol[k])), str(int(table.smoker[k])), str(int(table.diabetes[k])),
             str(int(table.bp_treated[k]))]
            for k in range(60)
        ]
        expected = "".join(",".join(row) + "\r\n" for row in [list(CSV_COLUMNS)] + rows)
        assert path.read_bytes() == expected.encode()


def test_table_patient_roundtrip(tmp_path):
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(31), 40)
    rebuilt = reload(tmp_path, table)
    assert np.array_equal(table.age, rebuilt.age)
    assert np.array_equal(table.race, rebuilt.race)
    assert np.array_equal(table.bp_treated, rebuilt.bp_treated)


def test_slice_matches_rows():
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(37), 30)
    part = table.slice(10, 20)
    assert len(part) == 10
    assert same_rows(part.slice(0, 1), table.slice(10, 11))
    assert math.isclose(part.hdl_chol[-1], table.hdl_chol[19])
