import json
import math

import numpy as np
import pytest

from adaptrd.cohort import DEFAULT_COHORT_PARAMS, CohortTable, sample_cohort
from adaptrd.errors import ConfigError, ValidationError
from adaptrd.harness import run_scenario, scenario_preset
from adaptrd.risk_engine import (
    GLM_UNSTRATIFIED,
    PCE_STRATIFIED,
    SUBGROUPS,
    UNSTRATIFIED_TERMS,
    CounterfactualRiskMatrix,
    ModelHistory,
    PceCoefficientSet,
    RiskModelVersion,
    SubgroupCoefficients,
    build_counterfactual_matrix,
    export_matrix_csv,
    import_matrix_csv,
    load_coefficients_file,
    load_default_coefficients,
    original_pce_model,
    predict_risk_batch,
    recalibrated_coefficients,
    subgroup_index,
)
from adaptrd.seeds import SeedStream
from oracles import pce_linear_predictor, pce_risk, pce_subgroup
from tables import one_row


def make_patient(**overrides) -> CohortTable:
    base = dict(
        age=60.0, female=True, race="white", systolic_bp=130.0,
        total_chol=200.0, hdl_chol=55.0, smoker=True, diabetes=True,
        bp_treated=True,
    )
    base.update(overrides)
    return one_row(**base)


def constant_coeffs(terms=None, s0=0.9, lp_bar=0.0) -> PceCoefficientSet:
    terms = terms or {}
    return PceCoefficientSet(
        {name: SubgroupCoefficients(terms=dict(terms), s0=s0, lp_bar=lp_bar) for name in SUBGROUPS}
    )


def predict_one(model: RiskModelVersion, patient: CohortTable) -> float:
    return float(predict_risk_batch(model, patient)[0])


def constant_pce(terms=None, s0=0.9, lp_bar=0.0) -> RiskModelVersion:
    return RiskModelVersion(0, PCE_STRATIFIED, "original", coefficients=constant_coeffs(terms, s0, lp_bar))


def scored_lp(patient: CohortTable, coeffs: PceCoefficientSet) -> float:
    """The linear predictor behind the batch risk, by inverting 1 - s0^exp(lp - lp_bar)."""
    sg = coeffs.subgroups[pce_subgroup(patient)]
    risk = predict_one(RiskModelVersion(0, PCE_STRATIFIED, "original", coefficients=coeffs), patient)
    return math.log(math.log1p(-risk) / math.log(sg.s0)) + sg.lp_bar


class TestLinearPredictor:
    def test_all_zero_coefficients(self):
        assert scored_lp(make_patient(), constant_coeffs()) == 0.0

    def test_single_log_age_term(self):
        age = math.exp(4.0)  # ~54.6, inside [40, 79]
        coeffs = constant_coeffs({"ln_age": 1.0})
        lp = scored_lp(make_patient(age=age), coeffs)
        assert abs(lp - 4.0) < 1e-12

    def test_reference_patient_hand_computation(self):
        # Term-by-term evaluation of the published white-female table for a
        # fixed reference patient, written out independently of the engine.
        p = make_patient()  # 60yo white female, sbp 130 treated, tc 200, hdl 55, smoker, diabetic
        la, ltc, lhdl, lsbp = (math.log(60.0), math.log(200.0), math.log(55.0), math.log(130.0))
        by_hand = (
            -29.799 * la
            + 4.884 * la * la
            + 13.540 * ltc
            + (-3.114) * la * ltc
            + (-13.578) * lhdl
            + 3.149 * la * lhdl
            + 2.019 * lsbp  # treated systolic pressure
            + 7.574 * 1.0
            + (-1.665) * la * 1.0
            + 0.661 * 1.0
        )
        lp = scored_lp(p, load_default_coefficients())
        assert abs(lp - by_hand) < 1e-10

    def test_published_worked_examples(self):
        # Guideline worked example: 55-year-old, TC 213, HDL 50, SBP 120
        # untreated, nonsmoker, nondiabetic; published 10-year risks to 1 d.p.
        # (those printed values carry intermediate rounding, so +-0.001)
        model = original_pce_model()
        cases = {
            ("male", "white"): 0.053,
            ("male", "black"): 0.061,
            ("female", "white"): 0.021,
            ("female", "black"): 0.030,
        }
        for (sex, race), expected in cases.items():
            p = one_row(
                age=55.0, female=sex == "female", race=race, systolic_bp=120.0, total_chol=213.0,
                hdl_chol=50.0, smoker=False, diabetes=False, bp_treated=False,
            )
            assert predict_one(model, p) == pytest.approx(expected, abs=0.001)


class TestPceRisk:
    """The batch PCE's 1 - s0^exp(lp - lp_bar), driven through one diabetic patient."""

    def test_lp_at_mean_gives_one_minus_s0(self):
        model = constant_pce({"diabetes": 2.0}, lp_bar=2.0)
        assert predict_one(model, make_patient()) == pytest.approx(0.1, abs=1e-15)

    def test_low_lp_limit_clamps_to_floor(self):
        assert predict_one(constant_pce({"diabetes": -1e3}), make_patient()) == pytest.approx(1e-12)

    def test_doubling_exponent_oracle(self):
        # s0=0.95, lp - lp_bar = ln 2 -> 1 - 0.95^2
        model = constant_pce({"diabetes": math.log(2.0)}, s0=0.95)
        assert predict_one(model, make_patient()) == pytest.approx(1 - 0.95**2, abs=1e-15)

    def test_monotone_in_lp(self):
        # ln_age is the only term, so lp = ln(age) runs over [-4, 4]
        lps = np.linspace(-4, 4, 200)
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(3), 200)
        table.age = np.exp(lps)
        risks = predict_risk_batch(constant_pce({"ln_age": 1.0}), table).tolist()
        assert all(a < b for a, b in zip(risks, risks[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError, match="s0"):
            constant_coeffs(s0=1.5)
        with pytest.raises(ConfigError, match="lp_bar"):
            constant_coeffs(lp_bar=float("nan"))


class TestPredictRisk:
    def test_unstratified_zero_coefficients_cloglog(self):
        model = RiskModelVersion(
            version_id=1, kind=GLM_UNSTRATIFIED, provenance="revised",
            glm_theta=np.zeros(len(UNSTRATIFIED_TERMS)),
        )
        assert predict_one(model, make_patient()) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_stratified_composition(self):
        # the batch PCE against the scalar formula, for one patient of each subgroup
        model = original_pce_model()
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(3), 50)
        batch = predict_risk_batch(model, table)
        patients = [make_patient()] + [table.slice(k, k + 1) for k in range(50)]
        assert {pce_subgroup(p) for p in patients} == set(SUBGROUPS)
        for risk, p in zip([predict_one(model, make_patient())] + batch.tolist(), patients):
            sg = model.coefficients.subgroups[pce_subgroup(p)]
            expected = pce_risk(pce_linear_predictor(p, model.coefficients), sg.s0, sg.lp_bar)
            assert risk == pytest.approx(expected, abs=1e-15)

    def test_race_other_uses_white_model(self):
        model = original_pce_model()
        white = make_patient(race="white")
        other = make_patient(race="other")
        assert SUBGROUPS[subgroup_index(other)[0]] == "white_female"
        assert predict_one(model, white) == predict_one(model, other)

    def test_batch_matches_scalar(self):
        model = original_pce_model()
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(3), 50)
        batch = predict_risk_batch(model, table)
        for k in range(50):
            assert batch[k] == pytest.approx(predict_one(model, table.slice(k, k + 1)), abs=1e-15)


class TestAssignTreatment:
    """run_scenario treats a patient iff the shifted risk is at or above zero."""

    @staticmethod
    def _trial(**overrides):
        return run_scenario(scenario_preset(4, seed=2, n_patients=200, warmup=100, **overrides))

    def _first_patient(self, threshold):
        # Patient 1 is scored by the original model whatever the threshold.
        trial = self._trial(initial_threshold=threshold)
        return trial.shifted_risk[0], trial.treatment[0]

    def test_tie_treats(self):
        assert self._first_patient(self._trial().raw_risk[0]) == (0.0, 1)

    def test_just_below_untreated(self):
        shifted, treated = self._first_patient(float(np.nextafter(self._trial().raw_risk[0], 1.0)))
        assert shifted < 0.0 and treated == 0

    def test_above_treated(self):
        trial = self._trial()
        assert np.array_equal(trial.treatment, (trial.shifted_risk >= 0.0).astype(int))
        shifted, treated = self._first_patient(trial.raw_risk[0] - 0.05)
        assert shifted > 0.0 and treated == 1


class TestCoefficientTable:
    def test_default_table_checksum_and_shape(self):
        coeffs = load_default_coefficients()
        assert set(coeffs.subgroups) == set(SUBGROUPS)
        for sg in coeffs.subgroups.values():
            assert 0.0 < sg.s0 < 1.0

    def test_override_file_roundtrip(self, tmp_path):
        coeffs = load_default_coefficients()
        payload = {
            name: {"terms": sg.terms, "s0": sg.s0, "lp_bar": sg.lp_bar}
            for name, sg in coeffs.subgroups.items()
        }
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(payload))
        loaded = load_coefficients_file(path)
        assert loaded.subgroups["white_male"].terms == coeffs.subgroups["white_male"].terms

    def test_override_file_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"white_female": {"terms": {}, "s0": 0.9, "lp_bar": 0.0}}))
        with pytest.raises(ConfigError, match="exactly"):
            load_coefficients_file(path)

    def test_unknown_term_rejected(self):
        with pytest.raises(ConfigError, match="unknown terms"):
            constant_coeffs({"not_a_term": 1.0})

    def test_recalibration_composition_is_exact(self):
        # Applying (intercept, slope) on the cloglog scale through the
        # transformed coefficient table must equal the direct map.
        base = load_default_coefficients()
        a, b = -0.3, 0.85
        recal = recalibrated_coefficients(base, a, b)
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(5), 200)
        orig_model = RiskModelVersion(0, PCE_STRATIFIED, "original", coefficients=base)
        new_model = RiskModelVersion(1, PCE_STRATIFIED, "recalibrated", coefficients=recal)
        r_orig = predict_risk_batch(orig_model, table)
        direct = 1.0 - np.exp(-np.exp(a + b * np.log(-np.log1p(-r_orig))))
        assert np.max(np.abs(predict_risk_batch(new_model, table) - direct)) < 1e-12


class TestModelHistory:
    def test_gapless_and_threshold_bounds(self):
        history = ModelHistory()
        model = original_pce_model()
        with pytest.raises(ValidationError):
            history.append(model, 1.5)
        history.append(model, 0.1)
        assert len(history) == 1
        assert history.thresholds.tolist() == [0.1]
        assert history.models == [model] and history.column_map().tolist() == [0]

    def test_distinct_pairs_in_first_use_order(self):
        history = ModelHistory()
        model = original_pce_model()
        for thr in (0.1, 0.1, 0.2, 0.1):
            history.append(model, thr)
        assert history.distinct_pairs() == [(0, 0.1), (0, 0.2)]

    @staticmethod
    def _recalibrated(version_id):
        original = original_pce_model()
        return RiskModelVersion(
            version_id, PCE_STRATIFIED, "recalibrated",
            coefficients=recalibrated_coefficients(original.coefficients, -0.1, 0.95),
        )

    def test_block_append_equals_single_appends(self):
        original = original_pce_model()
        recal = self._recalibrated(1)
        blocks = [(original, 0.1, 3), (original, 0.1, 2), (original, 0.2, 4),
                  (recal, 0.2, 1), (recal, 0.15, 5)]
        blocked, single = ModelHistory(), ModelHistory()
        for model, thr, count in blocks:
            blocked.append(model, thr, count)
            for _ in range(count):
                single.append(model, thr)
        assert len(blocked) == len(single) == 15
        assert blocked.distinct_pairs() == single.distinct_pairs()
        assert np.array_equal(blocked.column_map(), single.column_map())
        assert blocked.column_map().tolist() == [0] * 5 + [1] * 4 + [2] + [3] * 5
        assert np.array_equal(blocked.thresholds, single.thresholds)
        assert blocked.thresholds.tolist() == [0.1] * 5 + [0.2] * 5 + [0.15] * 5
        assert blocked.models == single.models == [original, recal]
        model_of = [blocked.distinct_pairs()[d][0] for d in blocked.column_map()]
        assert model_of == [0] * 9 + [1] * 6

    def test_repeated_pair_maps_to_its_first_column(self):
        model = original_pce_model()
        history = ModelHistory()
        for thr, count in ((0.1, 2), (0.2, 3), (0.1, 4), (0.3, 1), (0.2, 2)):
            history.append(model, thr, count)
        assert history.distinct_pairs() == [(0, 0.1), (0, 0.2), (0, 0.3)]
        assert history.column_map().tolist() == [0, 0, 1, 1, 1, 0, 0, 0, 0, 2, 1, 1]
        assert history.thresholds[5] == 0.1 and history.thresholds[10] == 0.2

    def test_zero_count_rejected(self):
        history = ModelHistory()
        with pytest.raises(ValidationError, match="count"):
            history.append(original_pce_model(), 0.1, 0)
        assert len(history) == 0 and history.models == []


class TestCounterfactualMatrix:
    def _history(self, n, thresholds=None, models=None):
        history = ModelHistory()
        thresholds = thresholds or [0.1] * n
        models = models or [original_pce_model()] * n
        for model, thr in zip(models, thresholds):
            history.append(model, thr)
        return history

    @staticmethod
    def _scored(history, table):
        return {m.version_id: predict_risk_batch(m, table) for m in history.models}

    def _two_versions(self, n):
        original = original_pce_model()
        recal = RiskModelVersion(
            1, PCE_STRATIFIED, "recalibrated",
            coefficients=recalibrated_coefficients(original.coefficients, -0.2, 0.9),
        )
        half = n // 2
        return self._history(n, [0.1] * half + [0.15] * half, [original] * half + [recal] * half)

    def test_static_pair_gives_single_column(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(7), 60)
        history = self._history(60)
        matrix = build_counterfactual_matrix(history, self._scored(history, table))
        assert matrix.n_distinct == 1
        assert matrix.raw.shape == (60, 1)
        assert matrix.shifted_column(0).shape == (60,)

    def test_diagonal_consistency(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(9), 80)
        thresholds = [0.1] * 40 + [0.2] * 40
        history = self._history(80, thresholds)
        matrix = build_counterfactual_matrix(history, self._scored(history, table))
        model = original_pce_model()
        raw = predict_risk_batch(model, table)
        shifted = raw - np.asarray(thresholds)
        diagonal_shifted = [matrix.shifted_column(d)[k] for k, d in enumerate(matrix.column_map)]
        assert np.max(np.abs(diagonal_shifted - shifted)) < 1e-15
        assert np.max(np.abs(matrix.diagonal_raw() - raw)) < 1e-15

    def test_two_versions_match_naive_per_cell_recomputation(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(11), 400)
        original = original_pce_model()
        recal = RiskModelVersion(
            1, PCE_STRATIFIED, "recalibrated",
            coefficients=recalibrated_coefficients(original.coefficients, -0.2, 0.9),
        )
        models = [original] * 200 + [recal] * 200
        thresholds = [0.1] * 200 + [0.15] * 200
        history = self._history(400, thresholds, models)
        matrix = build_counterfactual_matrix(history, self._scored(history, table))
        assert matrix.n_distinct == 2
        assert matrix.raw.shape == (400, 2)
        # oracle: per-cell recomputation, scoring one patient at a time
        for k in (0, 57, 199, 200, 399):
            pc = table.slice(k, k + 1)
            for j in (1, 200, 201, 400):
                expected = predict_one(models[j - 1], pc) - thresholds[j - 1]
                got = matrix.shifted_column(matrix.column_map[j - 1])[k]
                assert got == pytest.approx(expected, abs=1e-15)

    def test_same_model_different_thresholds_share_raw(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(13), 50)
        thresholds = [0.1] * 25 + [0.2] * 25
        history = self._history(50, thresholds)
        matrix = build_counterfactual_matrix(history, self._scored(history, table))
        assert matrix.n_distinct == 2
        assert matrix.raw.shape == (50, 1)
        assert matrix.version_index.tolist() == [0, 0]
        assert matrix.thresholds.tolist() == [0.1, 0.2]
        assert np.allclose(matrix.shifted_column(0) - matrix.shifted_column(1), 0.1)

    def test_export_import_roundtrip(self, tmp_path):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(15), 30)
        thresholds = [0.1] * 15 + [0.12] * 15
        history = self._history(30, thresholds)
        matrix = build_counterfactual_matrix(history, self._scored(history, table))
        path = tmp_path / "matrix.csv"
        export_matrix_csv(matrix, path)
        pairs = [(0, 0.1)] * 15 + [(0, 0.12)] * 15
        back = import_matrix_csv(path, pairs)
        for name in ("raw", "version_ids", "version_index", "thresholds", "column_map"):
            assert np.array_equal(getattr(back, name), getattr(matrix, name)), name

    def test_history_length_mismatch_rejected(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(17), 8)
        history = self._history(10)
        with pytest.raises(ValidationError, match="10 patients"):
            build_counterfactual_matrix(history, self._scored(history, table))

    def test_given_risks_are_used_verbatim(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(19), 40)
        history = self._two_versions(40)
        scored = self._scored(history, table)
        matrix = build_counterfactual_matrix(history, scored)
        assert np.array_equal(matrix.raw, np.column_stack([scored[0], scored[1]]))
        # Nothing is rescored: arbitrary given risks come back as they are.
        given = {0: np.linspace(0.01, 0.4, 40), 1: scored[1]}
        matrix = build_counterfactual_matrix(history, given)
        assert np.array_equal(matrix.raw[:, 0], given[0])
        assert np.array_equal(matrix.raw[:, 1], scored[1])

    def test_longer_risks_contribute_their_first_rows(self):
        # An NNT update assembles the matrix of the first m patients from
        # whole-cohort risks.
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(20), 100)
        history = self._two_versions(40)
        scored = self._scored(history, table)
        matrix = build_counterfactual_matrix(history, scored)
        assert matrix.n_patients == 40
        assert np.array_equal(matrix.raw, np.column_stack([scored[0][:40], scored[1][:40]]))
        prefix = build_counterfactual_matrix(history, self._scored(history, table.slice(0, 40)))
        assert np.array_equal(matrix.raw, prefix.raw)
        assert np.array_equal(matrix.column_map, history.column_map())

    def test_missing_or_short_risks_rejected(self):
        table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(21), 10)
        history = self._two_versions(10)
        scored = self._scored(history, table)
        with pytest.raises(ValidationError, match="model version 1"):
            build_counterfactual_matrix(history, {0: scored[0]})
        with pytest.raises(ValidationError, match="model version 0"):
            build_counterfactual_matrix(history, {0: scored[0][:9], 1: scored[1]})


def test_pce_scores_do_not_depend_on_the_rest_of_the_batch():
    # A row's PCE risk does not depend on which rows are scored with it, so
    # scoring a block gives the block's rows of the whole-cohort scores.
    table = sample_cohort(DEFAULT_COHORT_PARAMS, SeedStream(23), 3000)
    model = original_pce_model()
    full = predict_risk_batch(model, table)
    for start, stop in [(0, 1), (0, 400), (400, 500), (1, 2999), (2990, 3000), (123, 1877)]:
        assert np.array_equal(predict_risk_batch(model, table.slice(start, stop)), full[start:stop])
