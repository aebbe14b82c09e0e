"""Byte-level oracles for the logged trial and matrix files.

The writers format whole columns at once and the matrix reader parses the
file in one pass. The per-cell and per-row implementations they replaced
are kept here as references: the files must stay byte-identical to theirs,
and every re-read array must be bit-identical to the one that was written.
The trial writer reads each patient's model version, threshold and risks
from the counterfactual matrix; its reference is given them worked out
another way, from the drawn (version, threshold) pairs or from a run's
events log.
A large matrix file may be formatted in two halves on two processes; both
that path and the in-process one must give the reference bytes, and neither
may leave a child process behind, whether it succeeds or fails.
The events, curve and errors files now share one CSV writer, and the
evaluation and replication records are serialized from their dataclass
fields; the per-row writers and the hand-listed dicts they replaced are kept
here as references too.
"""

import csv
import os
import random
import signal
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptrd import rowfile
from adaptrd.cli import main
from adaptrd.cohort import RACES, CohortTable
from adaptrd.errors import ConfigError, IngestionError
from adaptrd.estimator import default_grid, effect_curve, fit_outcome_surface
from adaptrd.harness import (
    METHODS,
    evaluate_at_final_threshold,
    run_replications,
    run_scenario,
    scenario_preset,
)
from adaptrd.risk_engine import CounterfactualRiskMatrix, export_matrix_csv, import_matrix_csv
from adaptrd.trialio import (
    TRIAL_COLUMNS,
    read_trial_csv,
    write_curve_csv,
    write_events_csv,
    write_json,
    write_trial_csv,
)
from oracles import trial_columns_from_events

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 - 2.0**-53, float("inf")]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
THRESHOLDS = st.one_of(st.sampled_from([0.1, 0.12, 5e-324, 1.0 - 2.0**-53]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def reference_export_matrix_csv(matrix, path):
    """The per-cell matrix writer the columnar one replaced."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("patient_index,version_id,threshold,raw_risk,shifted_risk\n")
        for k in range(matrix.n_patients):
            for d in range(matrix.n_distinct):
                v = matrix.version_index[d]
                raw = float(matrix.raw[k, v])
                threshold = float(matrix.thresholds[d])
                fh.write(
                    f"{k + 1},{int(matrix.version_ids[v])},{threshold!r},"
                    f"{raw!r},{raw - threshold!r}\n"
                )


def reference_import_matrix_csv(path, column_pairs):
    """The per-line matrix reader the one-pass one replaced (valid files only)."""
    rows, order = {}, []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            key = (int(parts[1]), float(parts[2]))
            if key not in rows:
                rows[key] = {}
                order.append(key)
            rows[key][int(parts[0])] = float(parts[3])
    versions = list(dict.fromkeys(v for v, _ in order))
    n = len(column_pairs)
    raw = np.empty((n, len(versions)))
    for i, version in enumerate(versions):
        key = next(key for key in order if key[0] == version)
        for k in range(1, n + 1):
            raw[k - 1, i] = rows[key][k]
    pos = {key: d for d, key in enumerate(order)}
    return CounterfactualRiskMatrix(
        raw=raw,
        version_ids=np.asarray(versions),
        version_index=np.asarray([versions.index(v) for v, _ in order]),
        thresholds=np.asarray([k[1] for k in order]),
        column_map=np.asarray([pos[pair] for pair in column_pairs]),
    )


def reference_write_trial_csv(trial, columns, path):
    """The per-row trial writer the columnar one replaced.

    ``columns`` holds each patient's model version, threshold and raw risk,
    worked out apart from the matrix the writer reads; the shifted risk is
    the raw risk minus the threshold.
    """
    f = lambda x: repr(float(x))  # noqa: E731
    cov = trial.covariates
    version, threshold, raw = columns
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for k in range(trial.n):
            writer.writerow([
                k + 1, f(cov.age[k]), "female" if cov.female[k] else "male", str(cov.race[k]),
                f(cov.systolic_bp[k]), f(cov.total_chol[k]), f(cov.hdl_chol[k]),
                int(cov.smoker[k]), int(cov.diabetes[k]), int(cov.bp_treated[k]),
                int(version[k]), f(threshold[k]), f(raw[k]),
                f(raw[k] - threshold[k]), int(trial.treatment[k]), f(trial.outcome[k]),
                f(trial.baseline_risk[k]),
            ])


def reference_write_events_csv(events, path):
    """The per-row events writer the shared CSV writer replaced."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "kind", "old", "new", "detail"])
        for ev in events:
            writer.writerow([ev.index, ev.kind, repr(float(ev.old)), repr(float(ev.new)), ev.detail])


def reference_write_curve_csv(curve, path):
    """The per-row curve writer the shared CSV writer replaced."""
    f = lambda x: repr(float(x))  # noqa: E731
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "beta_hat", "se", "ci_low", "ci_high", "mu1", "mu0",
                         "eff_n_treated", "eff_n_untreated"])
        for e in curve.estimates:
            writer.writerow([f(e.r), f(e.beta_hat), f(e.se), f(e.ci[0]), f(e.ci[1]),
                             f(e.mu1_hat), f(e.mu0_hat), f(e.eff_n_treated),
                             f(e.eff_n_untreated)])


def reference_write_errors_csv(report, path):
    """The per-row errors writer of ``adaptrd replicate`` the shared CSV writer replaced."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "method", "error"])
        for method, entry in report.per_method.items():
            for rep, err in zip(entry["reps"], entry["errors"]):
                writer.writerow([rep, method, repr(float(err))])


def reference_evaluation_dict(result):
    """``EvaluationResult.to_dict`` as it listed each field by hand."""
    out = {"truth": result.truth, "methods": {}}
    for name in METHODS:
        m = result.methods[name]
        out["methods"][name] = {
            "estimate": m.estimate, "se": m.se, "ci_low": m.ci_low, "ci_high": m.ci_high,
            "error": m.error,
        }
    return out


def reference_report_dict(report):
    """``ReplicationReport.to_dict`` as it listed each field by hand."""
    return {
        "scenario_id": report.scenario_id,
        "n_replications": report.n_replications,
        "trial_failures": report.trial_failures,
        "per_method": report.per_method,
        "final_thresholds": report.final_thresholds,
        "treated_fractions": report.treated_fractions,
        "failure_reasons": report.failure_reasons,
    }


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


MATRIX_FIELDS = ("raw", "version_ids", "version_index", "thresholds", "column_map")


def assert_same_matrix(got, want):
    for name in MATRIX_FIELDS:
        assert_same_array(getattr(got, name), getattr(want, name))


def _matrix(raw, keys, column_map):
    """A matrix from raw risks per version and (version id, threshold) keys.

    The versions are numbered in order of first use among the keys, as
    ``build_counterfactual_matrix`` numbers them.
    """
    versions = list(dict.fromkeys(v for v, _ in keys))
    return CounterfactualRiskMatrix(
        raw=np.asarray(raw, dtype=float).reshape(len(column_map), len(versions)),
        version_ids=np.asarray(versions),
        version_index=np.asarray([versions.index(v) for v, _ in keys]),
        thresholds=np.asarray([t for _, t in keys]),
        column_map=np.asarray(column_map),
    ), [keys[d] for d in column_map]


@st.composite
def matrices(draw):
    """A matrix with its per-patient (version, threshold) pairs; raw risks drawn per version."""
    keys = draw(st.lists(st.tuples(st.integers(0, 6), THRESHOLDS),
                         min_size=1, max_size=4, unique=True))
    n, D = draw(st.integers(1, 6)), len(keys)
    V = len({v for v, _ in keys})
    column_map = draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n))
    return _matrix(draw(st.lists(FLOATS, min_size=n * V, max_size=n * V)), keys, column_map)


@settings(max_examples=150, deadline=None)
@given(case=matrices(), seed=st.integers(0, 2**32 - 1))
# D = 1, with the edge floats
@example(case=_matrix([[-0.0], [5e-324], [1e300]], [(0, 0.1)], [0, 0, 0]), seed=0)
# the pair (0, 0.1) recurs after (1, 0.12)
@example(case=_matrix([[0.2, 0.3], [-0.0, 5e-324], [1e300, 0.5]], [(0, 0.1), (1, 0.12)], [0, 1, 0]),
         seed=1)
# version 5 at two thresholds, around version 2
@example(case=_matrix([[0.2, 0.3], [-0.0, float("inf")], [1e300, 0.5]],
                      [(5, 0.1), (2, 0.12), (5, 0.3)], [0, 1, 2]), seed=2)
def test_matrix_file_matches_the_per_cell_writer_and_reads_back_bit_identical(tmp_path_factory, case, seed):
    matrix, pairs = case
    tmp = tmp_path_factory.mktemp("matrix")
    export_matrix_csv(matrix, tmp / "new.csv")
    reference_export_matrix_csv(matrix, tmp / "reference.csv")
    data = (tmp / "new.csv").read_bytes()
    assert data == (tmp / "reference.csv").read_bytes()
    assert_same_matrix(import_matrix_csv(tmp / "new.csv", pairs), matrix)

    # rows out of order: columns are numbered in order of first appearance
    header, *rows = data.decode().splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    (tmp / "shuffled.csv").write_text(header + "".join(rows), encoding="utf-8")
    assert_same_matrix(
        import_matrix_csv(tmp / "shuffled.csv", pairs),
        reference_import_matrix_csv(tmp / "shuffled.csv", pairs),
    )


def logged_columns(matrix, pairs):
    """Each patient's version, threshold and raw risk, looked up by its logged pair."""
    versions = matrix.version_ids.tolist()
    raw = [matrix.raw[k, versions.index(v)] for k, (v, _) in enumerate(pairs)]
    return np.array([v for v, _ in pairs]), np.array([t for _, t in pairs]), np.array(raw)


@st.composite
def trials(draw):
    """A trial with a drawn matrix, and the columns its file should log."""
    matrix, pairs = draw(matrices())
    n = matrix.n_patients

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    covariates = CohortTable(
        age=column(FLOATS, float),
        female=column(st.booleans(), bool),
        race=column(st.sampled_from(RACES), "<U5"),
        systolic_bp=column(FLOATS, float),
        total_chol=column(FLOATS, float),
        hdl_chol=column(FLOATS, float),
        smoker=column(st.booleans(), bool),
        diabetes=column(st.booleans(), bool),
        bp_treated=column(st.booleans(), bool),
    )
    trial = SimpleNamespace(
        n=n,
        covariates=covariates,
        matrix=matrix,
        treatment=column(st.integers(0, 1), int),
        outcome=column(FLOATS, float),
        baseline_risk=column(FLOATS, float),
    )
    return trial, logged_columns(matrix, pairs)


COVARIATE_FIELDS = ("age", "female", "race", "systolic_bp", "total_chol", "hdl_chol",
                    "smoker", "diabetes", "bp_treated")


def assert_same_trial(got, trial, columns):
    """``got`` re-reads ``trial``, whose file logs ``columns``."""
    version, threshold, raw = columns
    logged = {"model_version": version, "threshold": threshold, "raw_risk": raw,
              "shifted_risk": raw - threshold, "treatment": trial.treatment,
              "outcome": trial.outcome, "baseline_risk": trial.baseline_risk}
    for name, want in logged.items():
        assert_same_array(getattr(got, name), want)
    for name in COVARIATE_FIELDS:
        assert_same_array(getattr(got.covariates, name), getattr(trial.covariates, name))


@settings(max_examples=150, deadline=None)
@given(case=trials())
def test_trial_file_matches_the_per_row_writer_and_reads_back_bit_identical(tmp_path_factory, case):
    trial, columns = case
    tmp = tmp_path_factory.mktemp("trial")
    write_trial_csv(trial, tmp / "new.csv")
    reference_write_trial_csv(trial, columns, tmp / "reference.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
    assert_same_trial(read_trial_csv(tmp / "new.csv"), trial, columns)


@pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
def test_trial_file_of_a_run_matches_the_per_row_writer_on_columns_from_the_events(
    tmp_path, scenario
):
    # The writer reads each patient's version, threshold and risks from the
    # matrix; the oracle works them out from the events log and the models.
    trial = run_scenario(scenario_preset(scenario, seed=7, n_patients=600))
    columns = trial_columns_from_events(trial)
    version, threshold, _ = columns
    assert len(set(zip(version.tolist(), threshold.tolist()))) > 1
    write_trial_csv(trial, tmp_path / "new.csv")
    reference_write_trial_csv(trial, columns, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert_same_trial(read_trial_csv(tmp_path / "new.csv"), trial, columns)


def test_events_and_curve_files_and_evaluation_of_a_run_match_the_per_row_writers(tmp_path):
    trial = run_scenario(scenario_preset(5, seed=7, n_patients=600))
    # Model updates log their fit details joined by commas, which csv must quote.
    assert any("," in ev.detail for ev in trial.events if ev.kind == "model_update")
    write_events_csv(trial.events, tmp_path / "events.csv")
    reference_write_events_csv(trial.events, tmp_path / "reference_events.csv")
    assert b'"' in (tmp_path / "events.csv").read_bytes()
    assert (tmp_path / "events.csv").read_bytes() == (
        tmp_path / "reference_events.csv").read_bytes()

    config = trial.config.estimator
    surface = fit_outcome_surface(trial.matrix, trial.treatment, trial.outcome, config)
    curve = effect_curve(surface, config, default_grid(trial.matrix.focal_shifted))
    assert curve.estimates
    write_curve_csv(curve, tmp_path / "curve.csv")
    reference_write_curve_csv(curve, tmp_path / "reference_curve.csv")
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "reference_curve.csv").read_bytes()

    result = evaluate_at_final_threshold(trial)
    # repr also compares key order and the type of each value.
    assert repr(result.to_dict()) == repr(reference_evaluation_dict(result))


def test_errors_file_and_report_of_a_batch_match_the_per_row_writer(tmp_path):
    code = main(["replicate", "--config", "scenario1", "--override", "n_patients=600",
                 "--seed", "3", "--replications", "4", "--out", str(tmp_path / "run")])
    assert code == 0
    report = run_replications(scenario_preset(1, seed=3, n_patients=600), 4)
    assert repr(report.to_dict()) == repr(reference_report_dict(report))
    reference_write_errors_csv(report, tmp_path / "errors.csv")
    write_json(reference_report_dict(report), tmp_path / "report.json")
    for name in ("errors.csv", "report.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


def _small_trial():
    """Five patients under two model versions and two thresholds, with their logged columns."""
    n = 5
    rng = np.random.default_rng(3)
    covariates = CohortTable(
        age=rng.uniform(40, 79, n), female=np.array([True, False, True, True, False]),
        race=np.array(["white", "black", "other", "white", "black"], dtype="<U5"),
        systolic_bp=rng.uniform(90, 200, n), total_chol=rng.uniform(130, 320, n),
        hdl_chol=rng.uniform(20, 100, n), smoker=np.array([True, False, False, True, False]),
        diabetes=np.array([False, False, True, False, True]),
        bp_treated=np.array([False, True, True, False, False]),
    )
    raw = rng.uniform(0, 0.4, n)
    version = np.array([0, 0, 0, 1, 1])
    threshold = np.array([0.1, 0.1, 0.12, 0.12, 0.1])
    trial = SimpleNamespace(
        n=n, covariates=covariates, treatment=(raw > threshold).astype(int),
        outcome=rng.normal(size=n), baseline_risk=rng.uniform(0, 0.4, n),
    )
    # Each patient's own version carries its raw risk; the other version's are drawn apart.
    version_raw = np.column_stack([raw, rng.uniform(0, 0.4, n)])
    version_raw[version == 1] = version_raw[version == 1, ::-1]
    trial.matrix, _ = _matrix(version_raw, [(0, 0.1), (0, 0.12), (1, 0.12), (1, 0.1)],
                              [0, 0, 1, 2, 3])
    return trial, (version, threshold, raw)


def test_trial_reader_takes_columns_by_name(tmp_path):
    trial, columns = _small_trial()
    write_trial_csv(trial, tmp_path / "trial.csv")
    with (tmp_path / "trial.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    order = list(range(len(header)))
    random.Random(5).shuffle(order)
    assert order != sorted(order)
    with (tmp_path / "shuffled.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[j] for j in order[:3]] + ["site"] + [header[j] for j in order[3:]])
        for i, row in enumerate(rows):
            writer.writerow([row[j] for j in order[:3]] + [f"s{i}"] + [row[j] for j in order[3:]])
    assert_same_trial(read_trial_csv(tmp_path / "shuffled.csv"), trial, columns)


def test_trial_reader_names_the_line_of_a_bad_row(tmp_path):
    write_trial_csv(_small_trial()[0], tmp_path / "trial.csv")
    lines = (tmp_path / "trial.csv").read_text().splitlines()
    for mangle, message in ((lambda fields: fields[:-1], "line 4: 16 fields"),
                            (lambda fields: fields[:12] + ["x"] + fields[13:], "line 4: raw_risk")):
        bad = list(lines)
        bad[3] = ",".join(mangle(bad[3].split(",")))
        (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n")
        with pytest.raises(IngestionError, match=message):
            read_trial_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize(
    "column, value",
    [("sex", "F"), ("sex", "Female"), ("race", "hispanic"), ("race", "asian"),
     ("smoker", "yes"), ("diabetes", "2"), ("bp_treated", "true"), ("treatment", "2")],
)
def test_trial_reader_rejects_unknown_categories(tmp_path, column, value):
    # Before this check, "hispanic" read as "hispa", and "F" or "yes" as male or false.
    write_trial_csv(_small_trial()[0], tmp_path / "trial.csv")
    lines = (tmp_path / "trial.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[TRIAL_COLUMNS.index(column)] = value
    lines[3] = ",".join(fields)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match=f"line 4: {column}: '{value}' is not one of"):
        read_trial_csv(tmp_path / "bad.csv")


MATRIX_TEXT = (
    "patient_index,version_id,threshold,raw_risk,shifted_risk\n"
    "1,0,0.1,0.2,0.1\n"
    "1,1,0.12,0.3,0.18\n"
    "2,0,0.1,0.05,-0.05\n"
    "2,1,0.12,0.06,-0.06\n"
)
PAIRS = [(0, 0.1), (1, 0.12)]


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        (1, "1,0,0.1,abc,0.2", "could not convert"),
        (4, "3,1,0.12,0.06,-0.06", "patient_index 3 outside 1..2"),
        (4, "0,1,0.12,0.06,-0.06", "patient_index 0 outside 1..2"),
        (2, "1,0,0.1,0.2,0.1", r"repeats patient 1 in column \(0, 0.1\)"),
        (1, "1.5,0,0.1,0.2,0.1", "patient_index 1.5 is not an integer"),
        (1, "1,0.5,0.1,0.2,0.1", "version_id 0.5 is not an integer"),
        (2, "1,1,0.12,0.3", "number of columns"),
        (3, "", "covers 1 patients, expected 2"),
        (2, "1,1,0.12,0.3,0.19", r"data row 2: shifted_risk 0.19 is not raw_risk - threshold \(0.18\)"),
        (3, "2,0,0.1,0.05,-0.0", "data row 3: shifted_risk -0.0 is not raw_risk - threshold"),
    ],
)
def test_matrix_reader_raises_config_error(tmp_path, line, replacement, message):
    lines = MATRIX_TEXT.splitlines()
    lines[line] = replacement
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        import_matrix_csv(path, PAIRS)


def test_matrix_reader_rejects_one_version_with_two_raw_risks(tmp_path):
    # Version 0 at two thresholds: both columns must carry the same raw risks.
    rows = [(1, 0, 0.1, 0.2), (1, 0, 0.12, 0.2), (2, 0, 0.1, 0.05), (2, 0, 0.12, 0.05)]
    lines = ["patient_index,version_id,threshold,raw_risk,shifted_risk"]
    lines += [f"{k},{v},{t!r},{r!r},{r - t!r}" for k, v, t, r in rows]
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(lines) + "\n")
    pairs = [(0, 0.1), (0, 0.12)]
    matrix = import_matrix_csv(path, pairs)
    assert matrix.raw.tolist() == [[0.2], [0.05]] and matrix.version_index.tolist() == [0, 0]
    lines[4] = f"2,0,0.12,0.06,{0.06 - 0.12!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"matrix column \(0, 0.12\) has raw_risk 0.06 for patient 2, "
                                          r"but 0.05 in another column of version 0"):
        import_matrix_csv(path, pairs)


def test_matrix_reader_rejects_bad_header_empty_body_and_unknown_pair(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(MATRIX_TEXT.replace("raw_risk", "risk"))
    with pytest.raises(ConfigError, match="header"):
        import_matrix_csv(path, PAIRS)
    path.write_text(MATRIX_TEXT.splitlines()[0] + "\n")
    with pytest.raises(ConfigError, match="no data rows"):
        import_matrix_csv(path, PAIRS)
    path.write_text(MATRIX_TEXT)
    with pytest.raises(ConfigError, match="not in file"):
        import_matrix_csv(path, [(0, 0.1), (2, 0.12)])
    with pytest.raises(ConfigError, match="not found"):
        import_matrix_csv(tmp_path / "missing.csv", PAIRS)


# -- the two-process matrix writer ---------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """Record the pid of every child ``os.fork`` starts from now on."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.fixture(params=[False, True], ids=["one-process", "two-processes"])
def path_taken(request, monkeypatch):
    """Force the writer onto one path, at any size; ``forks`` lists the children."""
    monkeypatch.setattr(rowfile, "second_process_usable", lambda: request.param)
    monkeypatch.setattr(rowfile, "SPLIT_MIN_LINES", 0)
    return SimpleNamespace(two_processes=request.param, forks=count_forks(monkeypatch))


# n = 1 leaves the second half empty, so it is written in-process either way.
@pytest.mark.parametrize("n", [1, 2, 7, 600])
def test_both_paths_write_the_reference_bytes(tmp_path, path_taken, n):
    rng = np.random.default_rng(n)
    # version 0 at two thresholds, around version 3
    matrix, _ = _matrix(rng.uniform(0, 0.4, (n, 2)), [(0, 0.1), (3, 0.12), (0, 0.15)],
                        rng.integers(0, 3, n).tolist())
    export_matrix_csv(matrix, tmp_path / "matrix.csv")
    reference_export_matrix_csv(matrix, tmp_path / "reference.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert len(path_taken.forks) == (1 if path_taken.two_processes and n > 1 else 0)
    assert_no_child_left()


def _wide_matrix(lines):
    """A matrix of two columns and ``lines // 2`` patients."""
    n = lines // 2
    matrix, _ = _matrix(np.random.default_rng(1).uniform(0, 0.4, (n, 2)), [(0, 0.1), (1, 0.1)], [0] * n)
    return matrix


def test_only_files_of_at_least_split_min_lines_are_split(tmp_path, monkeypatch):
    monkeypatch.setattr(rowfile, "second_process_usable", lambda: True)
    forks = count_forks(monkeypatch)
    export_matrix_csv(_wide_matrix(rowfile.SPLIT_MIN_LINES - 2), tmp_path / "small.csv")
    assert forks == []
    matrix = _wide_matrix(rowfile.SPLIT_MIN_LINES)
    export_matrix_csv(matrix, tmp_path / "large.csv")
    assert len(forks) == 1
    reference_export_matrix_csv(matrix, tmp_path / "reference.csv")
    assert (tmp_path / "large.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert_no_child_left()


def _numbered_rows(fail_in_child=False, fail_in_parent_at=None, interrupt_parent_at=None):
    parent = os.getpid()

    def write_rows(fh, start, stop):
        in_child = os.getpid() != parent
        if in_child and fail_in_child:
            raise RuntimeError("formatting failed in the child")
        for k in range(start, stop):
            if not in_child and k == fail_in_parent_at:
                raise ValueError("formatting failed in the parent")
            if not in_child and k == interrupt_parent_at:
                os.kill(parent, signal.SIGINT)
            fh.write(f"{k},{k / 7!r}\n")

    return write_rows


def _numbered_text(n):
    return "k,x\n" + "".join(f"{k},{k / 7!r}\n" for k in range(n))


@pytest.fixture
def split_any_file(monkeypatch):
    monkeypatch.setattr(rowfile, "second_process_usable", lambda: True)
    monkeypatch.setattr(rowfile, "SPLIT_MIN_LINES", 0)


def test_helper_writes_numbered_rows_on_two_processes(tmp_path, split_any_file):
    rowfile.write_row_file(tmp_path / "rows.csv", "k,x\n", 40_000, _numbered_rows())
    assert (tmp_path / "rows.csv").read_text() == _numbered_text(40_000)
    assert_no_child_left()


class ChildFailingRaw:
    """A matrix's raw risks that cannot be read in a forked child."""

    def __init__(self, raw):
        self.raw, self.parent = raw, os.getpid()

    def __getitem__(self, rows):
        if os.getpid() != self.parent:
            raise RuntimeError("formatting failed in the child")
        return self.raw[rows]


def test_a_failing_child_makes_the_writer_raise_and_is_reaped(tmp_path, split_any_file):
    with pytest.raises(OSError, match="rows.csv.*exited with 1"):
        rowfile.write_row_file(tmp_path / "rows.csv", "k,x\n", 10, _numbered_rows(fail_in_child=True))
    assert_no_child_left()

    matrix = _wide_matrix(40)
    fields = ("n_patients", "version_ids", "version_index", "thresholds")
    failing = SimpleNamespace(raw=ChildFailingRaw(matrix.raw), **{f: getattr(matrix, f) for f in fields})
    with pytest.raises(OSError, match="matrix.csv"):
        export_matrix_csv(failing, tmp_path / "matrix.csv")
    assert_no_child_left()


def test_a_parent_failing_partway_still_reaps_the_child(tmp_path, split_any_file):
    # The child's half (about 1 MB) is more than the pipe holds, so the child
    # cannot finish writing unless the parent reads or closes its end.
    with pytest.raises(ValueError, match="failed in the parent"):
        rowfile.write_row_file(tmp_path / "rows.csv", "k,x\n", 80_000,
                               _numbered_rows(fail_in_parent_at=10_000))
    assert_no_child_left()


def test_an_interrupt_is_raised_once_the_child_is_reaped(tmp_path, split_any_file):
    with pytest.raises(KeyboardInterrupt):
        rowfile.write_row_file(tmp_path / "rows.csv", "k,x\n", 80_000,
                               _numbered_rows(interrupt_parent_at=10_000))
    assert_no_child_left()
    assert (tmp_path / "rows.csv").read_text() == _numbered_text(80_000)
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == set()


def test_a_failed_fork_writes_every_row_in_process(tmp_path, split_any_file, monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = os.listdir("/proc/self/fd")
    matrix = _wide_matrix(100)
    export_matrix_csv(matrix, tmp_path / "matrix.csv")
    reference_export_matrix_csv(matrix, tmp_path / "reference.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert os.listdir("/proc/self/fd") == fds  # the pipe is closed


def test_another_thread_keeps_the_writer_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(rowfile, "SPLIT_MIN_LINES", 0)
    forks = count_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not rowfile.second_process_usable()
        export_matrix_csv(_wide_matrix(100), tmp_path / "matrix.csv")
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
