import csv
import json
import math
import re

import numpy as np
import pytest

from adaptrd.cli import main
from adaptrd.config import PRESET_NAMES, apply_overrides, load_config_payload, parse_config
from adaptrd.errors import ConfigError
from adaptrd.harness import run_scenario, scenario_preset
from adaptrd.risk_engine import import_matrix_csv
from adaptrd.seeds import SeedStream
from adaptrd.trialio import read_trial_csv, write_trial_csv


def run_cli(*argv) -> int:
    return main(list(argv))


SMALL = ["--override", "n_patients=600", "--seed", "7"]


class TestConfigModule:
    def test_all_bundled_presets_parse(self):
        for name in PRESET_NAMES:
            payload = load_config_payload(name)
            config = parse_config(payload)
            assert config.scenario_id == int(name[-1])

    def test_mutated_preset_rejected(self):
        payload = load_config_payload("scenario1")
        payload["initial_threshold"] = 1.5
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = load_config_payload("scenario1")
        payload["n_patient"] = 100  # typo'd key
        with pytest.raises(ConfigError, match="n_patient"):
            parse_config(payload)

    def test_unknown_nested_key_rejected(self):
        payload = load_config_payload("scenario1")
        payload["estimator"]["bandwidht"] = 0.05
        with pytest.raises(ConfigError, match="bandwidht"):
            parse_config(payload)

    def test_overrides_dotted_keys(self):
        payload = load_config_payload("scenario3")
        apply_overrides(payload, ["threshold_strategy.nnt=4.5", "n_patients=500"])
        config = parse_config(payload)
        assert config.threshold_strategy.nnt == 4.5
        assert config.n_patients == 500

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["oops"])

    def test_missing_config_lists_presets(self):
        with pytest.raises(ConfigError, match="scenario1"):
            load_config_payload("nonexistent.json")


class TestTrialIo:
    def test_trial_roundtrip_exact(self, tmp_path):
        trial = run_scenario(scenario_preset(1, seed=3, n_patients=600))
        path = tmp_path / "trial.csv"
        write_trial_csv(trial, path)
        logged = read_trial_csv(path)
        assert np.array_equal(logged.raw_risk, trial.raw_risk)
        assert np.array_equal(logged.outcome, trial.outcome)
        assert np.array_equal(logged.treatment, trial.treatment)
        assert np.array_equal(logged.covariates.age, trial.covariates.age)
        assert logged.column_pairs[0] == (0, 0.1)


class TestSimulate:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", "scenario1", "--out", str(out), *SMALL)
        assert code == 0
        for name in ("trial.csv", "events.csv", "curve.csv", "summary.json", "matrix.csv"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == 1
        assert "final_threshold" in summary
        ate = summary["local_ate"]["methods"]["adaptive_rd"]
        assert ate["estimate"] is not None and ate["ci_low"] < ate["estimate"] < ate["ci_high"]

    def test_override_row_count(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--config", "scenario1", "--out", str(out),
                "--override", "n_patients=200", "--override", "warmup=100", "--seed", "3")
        with (out / "trial.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 201  # header + 200 records

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--config", "scenario1", "--out", str(tmp_path / "x"),
                       "--override", "scenario=9")
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_svg_emitted(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--config", "scenario1", "--out", str(out), "--svg", *SMALL)
        svg = (out / "curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestEstimateReplay:
    def test_bitwise_replay(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--config", "scenario2", "--out", str(out), *SMALL)
        replay = tmp_path / "replay"
        code = run_cli("estimate", "--trial", str(out / "trial.csv"),
                       "--matrix", str(out / "matrix.csv"),
                       "--config", "scenario2", "--out", str(replay))
        assert code == 0
        assert (out / "curve.csv").read_bytes() == (replay / "curve.csv").read_bytes()

    def test_custom_grid_row_count(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--config", "scenario2", "--out", str(out), *SMALL)
        replay = tmp_path / "grid"
        run_cli("estimate", "--trial", str(out / "trial.csv"),
                "--matrix", str(out / "matrix.csv"), "--config", "scenario2",
                "--out", str(replay), "--grid", "-0.1:0.1:0.01")
        with (replay / "curve.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 22  # header + 21 grid points

    def test_truncated_trial_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("simulate", "--config", "scenario2", "--out", str(out), *SMALL)
        trial_path = out / "trial.csv"
        lines = trial_path.read_text().splitlines()
        lines[5] = lines[5].split(",")[0]  # mangle one row
        trial_path.write_text("\n".join(lines) + "\n")
        code = run_cli("estimate", "--trial", str(trial_path),
                       "--matrix", str(out / "matrix.csv"),
                       "--config", "scenario2", "--out", str(tmp_path / "z"))
        assert code == 2
        assert "line" in capsys.readouterr().err


class TestSameRunCheck:
    """``estimate`` takes a trial file and a matrix file only from one run."""

    def test_files_from_two_runs_exit_2(self, tmp_path, capsys):
        # Same scenario and size, two seeds: every logged (version, threshold)
        # pair is a column of the other run's matrix, but the risks differ.
        for seed in ("7", "8"):
            assert run_cli("simulate", "--config", "scenario4", "--out", str(tmp_path / seed),
                           "--override", "n_patients=600", "--seed", seed) == 0
        code = run_cli("estimate", "--trial", str(tmp_path / "7" / "trial.csv"),
                       "--matrix", str(tmp_path / "8" / "matrix.csv"),
                       "--config", "scenario4", "--out", str(tmp_path / "z"))
        assert code == 2
        assert "matrix file does not match the trial file: patient 1's raw_risk" in capsys.readouterr().err

    def test_update_every_75_risks_agree_bitwise_exit_0(self, tmp_path):
        # Each model version is scored once over the whole cohort, so the
        # logged risks are the matrix diagonal bit for bit, whatever the
        # update cadence.
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", "scenario5", "--out", str(out),
                       "--override", "update_every=75", "--override", "model_strategy.update_every=75",
                       *SMALL) == 0
        logged = read_trial_csv(out / "trial.csv")
        diagonal = import_matrix_csv(out / "matrix.csv", logged.column_pairs).diagonal_raw()
        assert np.array_equal(diagonal.view(np.uint64), logged.raw_risk.view(np.uint64))
        replay = tmp_path / "replay"
        code = run_cli("estimate", "--trial", str(out / "trial.csv"),
                       "--matrix", str(out / "matrix.csv"),
                       "--config", "scenario5", "--out", str(replay))
        assert code == 0
        assert (out / "curve.csv").read_bytes() == (replay / "curve.csv").read_bytes()

    def test_raw_risk_one_ulp_off_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", "scenario5", "--out", str(out), *SMALL) == 0
        with (out / "trial.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("raw_risk")
        rows[300][col] = repr(math.nextafter(float(rows[300][col]), 1.0))
        with (out / "trial.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run_cli("estimate", "--trial", str(out / "trial.csv"),
                       "--matrix", str(out / "matrix.csv"),
                       "--config", "scenario5", "--out", str(tmp_path / "z"))
        assert code == 2
        assert "patient 300's raw_risk" in capsys.readouterr().err


class TestMangledMatrix:
    """Each mangled matrix.csv ends in a configuration error, not a traceback."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("logged") / "run"
        assert run_cli("simulate", "--config", "scenario2", "--out", str(out), *SMALL) == 0
        return out

    @pytest.mark.parametrize(
        "row, edit",
        [
            pytest.param(1, lambda lines: "1,0,0.1,abc,0.2", id="malformed-number"),
            pytest.param(-1, lambda lines: "601" + lines[-1][3:], id="index-above-n"),
            pytest.param(2, lambda lines: lines[1], id="repeated-cell"),
            pytest.param(1, lambda lines: "1.5" + lines[1][1:], id="fractional-index"),
            pytest.param(1, lambda lines: "1,0.5" + lines[1][3:], id="fractional-version"),
        ],
    )
    def test_mangled_matrix_exits_2(self, run_dir, tmp_path, capsys, row, edit):
        lines = (run_dir / "matrix.csv").read_text().splitlines()
        assert lines[1].startswith("1,0,") and lines[-1].startswith("600,")
        lines[row] = edit(lines)
        matrix_path = tmp_path / "matrix.csv"
        matrix_path.write_text("\n".join(lines) + "\n")
        code = run_cli("estimate", "--trial", str(run_dir / "trial.csv"),
                       "--matrix", str(matrix_path),
                       "--config", "scenario2", "--out", str(tmp_path / "z"))
        assert code == 2
        assert "matrix" in capsys.readouterr().err


class TestReplicate:
    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli("replicate", "--config", "scenario2", "--out", str(out),
                           "--replications", "3", *SMALL)
            assert code == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_worker_invariance_and_errors_csv(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        run_cli("replicate", "--config", "scenario2", "--out", str(a),
                "--replications", "4", "--workers", "1", *SMALL)
        run_cli("replicate", "--config", "scenario2", "--out", str(b),
                "--replications", "4", "--workers", "2", *SMALL)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        with (a / "errors.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} >= {"adaptive_rd", "naive"}
        report = json.loads((a / "report.json").read_text())
        assert report["n_replications"] == 4

    def test_failure_reasons_are_worker_invariant(self, tmp_path):
        # 24 patients leave some arms with fewer than 10 and some logit
        # fits without convergence.
        tiny = ["--seed", "7", "--override", "n_patients=24", "--override", "warmup=12",
                "--override", "update_every=4", "--override", "model_strategy.warmup=12",
                "--override", "model_strategy.update_every=4"]
        a, b = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((a, "1"), (b, "2")):
            code = run_cli("replicate", "--config", "scenario4", "--out", str(out),
                           "--replications", "6", "--workers", workers, *tiny)
            assert code == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        report = json.loads((a / "report.json").read_text())
        reasons = report["failure_reasons"]
        assert set(reasons) == {"trial", *report["per_method"]}
        assert sum(reasons["trial"].values()) == report["trial_failures"]
        for method, entry in report["per_method"].items():
            assert sum(reasons[method].values()) == entry["failures"]
        assert reasons["aipw"]["need at least 10 patients per arm"] >= 1
        assert any("did not converge" in message for message in reasons["ipw"])

    def test_boxplot_svg(self, tmp_path):
        out = tmp_path / "r"
        run_cli("replicate", "--config", "scenario2", "--out", str(out),
                "--replications", "3", "--svg", *SMALL)
        assert (out / "errors_boxplot.svg").exists()


class TestRisk:
    HEADER = "age,sex,race,systolic_bp,total_chol,hdl_chol,smoker,diabetes,bp_treated\n"

    def test_other_race_reports_white_subgroup(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(self.HEADER + "55.0,male,other,120.0,213.0,50.0,0,0,0\n")
        dst = tmp_path / "out.csv"
        assert run_cli("risk", "--input", str(src), "--output", str(dst)) == 0
        with dst.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["subgroup"] == "white_male"

    def test_empty_file_gives_empty_output_with_header(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(self.HEADER)
        dst = tmp_path / "out.csv"
        assert run_cli("risk", "--input", str(src), "--output", str(dst)) == 0
        lines = dst.read_text().splitlines()
        assert len(lines) == 1 and lines[0].endswith("subgroup,risk")

    def test_risks_in_unit_interval(self, tmp_path):
        from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort, save_cohort_csv

        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(55), 80)
        src = tmp_path / "in.csv"
        save_cohort_csv(src, table)
        dst = tmp_path / "out.csv"
        run_cli("risk", "--input", str(src), "--output", str(dst))
        with dst.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 80
        assert all(0.0 <= float(r["risk"]) <= 1.0 for r in rows)

    def test_batch_output_is_byte_identical_to_per_patient_scoring(self, tmp_path):
        from adaptrd.cohort import DEFAULT_COHORT_PARAMS, sample_cohort, save_cohort_csv
        from adaptrd.risk_engine import original_pce_model, predict_risk_batch
        from oracles import pce_subgroup

        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(56), 400)
        patients = [table.slice(k, k + 1) for k in range(400)]
        assert {pce_subgroup(p) for p in patients} == {
            "white_female", "black_female", "white_male", "black_male"
        }
        src = tmp_path / "in.csv"
        save_cohort_csv(src, table)
        dst = tmp_path / "out.csv"
        assert run_cli("risk", "--input", str(src), "--output", str(dst)) == 0
        # the file the command wrote when it scored one patient at a time
        model = original_pce_model()
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER.strip().split(",") + ["subgroup", "risk"])
            for p in patients:
                writer.writerow(
                    [repr(p.age.item()), "female" if p.female.item() else "male", p.race.item(),
                     repr(p.systolic_bp.item()), repr(p.total_chol.item()), repr(p.hdl_chol.item()),
                     int(p.smoker.item()), int(p.diabetes.item()), int(p.bp_treated.item()),
                     pce_subgroup(p), repr(float(predict_risk_batch(model, p)[0]))]
                )
        assert dst.read_bytes() == expected.read_bytes()

    def test_bad_row_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(self.HEADER + "30.0,male,white,120.0,213.0,50.0,0,0,0\n")
        code = run_cli("risk", "--input", str(src), "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert "age" in capsys.readouterr().err


class TestValidateConfig:
    def test_all_presets_accepted(self, capsys):
        for name in PRESET_NAMES:
            assert run_cli("validate-config", "--config", name) == 0

    def test_out_of_range_field_rejected(self, capsys):
        code = run_cli("validate-config", "--config", "scenario1",
                       "--override", "estimator.bandwidth=-1")
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err.lower()

    def test_each_preset_rejects_one_mutation(self):
        mutations = {
            "scenario1": "threshold_strategy.target_rate=1.5",
            "scenario2": "outcome.params.sigma=-1",
            "scenario3": "threshold_strategy.nnt=0.5",
            "scenario4": "model_strategy.shrink_n0=0",
            "scenario5": "initial_threshold=0.0",
        }
        for name, override in mutations.items():
            assert run_cli("validate-config", "--config", name, "--override", override) == 2

    @pytest.mark.parametrize(
        "override, message",
        [
            ("n_patients=abc", "n_patients must be a number, got 'abc'"),
            ("n_patients=3000.9", "n_patients must be an integer, got 3000.9"),
            ("estimator.spline_df=2.7", "estimator.spline_df must be an integer, got 2.7"),
            ("estimator.spline_df=true", "estimator.spline_df must be a number, got True"),
            ("seed=null", "seed must be a number, got None"),
            ("threshold_strategy.target_rate=high",
             "threshold_strategy.target_rate must be a number, got 'high'"),
            ("outcome.params.alpha1=[0.1]", r"outcome.params.alpha1 must be a number, got \[0.1\]"),
            ("cohort.params.p_female=false", "cohort.params.p_female must be a number, got False"),
            ("model_strategy.warmup=400.5", "model_strategy.warmup must be an integer, got 400.5"),
            ("cohort.params.age_range=5", r"cohort.params.age_range must be a \[low, high\] pair"),
            ("outcome.params=3", "outcome.params must be a JSON object, got 3"),
            ("threshold_strategy=3", "threshold_strategy must be a JSON object, got 3"),
        ],
    )
    def test_values_of_the_wrong_type_exit_2(self, capsys, override, message):
        config = "scenario4" if override.startswith("model_strategy") else "scenario1"
        code = run_cli("validate-config", "--config", config, "--override", override)
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_integral_numbers_accepted_for_integer_fields(self, capsys):
        code = run_cli("validate-config", "--config", "scenario1",
                       "--override", "n_patients=2000.0", "--override", "estimator.spline_df=3")
        assert code == 0
        assert "n_patients=2000," in capsys.readouterr().out
