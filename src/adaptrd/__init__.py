"""adaptrd: simulate and evaluate risk-threshold referral programs whose
prediction model and treatment threshold adapt while patients flow through.

The package pairs a sequential trial simulator (synthetic cohorts, a
stratified cardiovascular risk calculator, threshold/model update strategies,
three outcome processes with known ground truth) with a local treatment
effect estimator built on counterfactual risk matrices, and a replication
harness that benchmarks it against difference-in-means, outcome regression,
IPW and AIPW.
"""

from .adaptation import (
    FixedThreshold,
    NntTargetThreshold,
    NoModelUpdate,
    RateTargetThreshold,
    RecalibrateModel,
    ReviseModel,
    cohens_d_curve,
    nnt_to_cohens_d,
    recalibrate_model,
    revise_model,
    shrink_coefficients,
    threshold_for_nnt,
    threshold_for_rate,
)
from .cohort import (
    CohortTable,
    SyntheticCohortParams,
    load_cohort_csv,
    sample_cohort,
)
from .errors import (
    AdaptRdError,
    ConfigError,
    DegenerateSupportError,
    EffectiveSupportError,
    IngestionError,
    InsufficientDataError,
    NonConvergenceError,
    NumericError,
    RankDeficiencyError,
    ValidationError,
)
from .estimator import (
    ComparatorInputs,
    EffectEstimate,
    EstimatorConfig,
    FittedOutcomeSurface,
    aipw_ate,
    comparator_inputs,
    default_grid,
    effect_curve,
    estimate_effect,
    fit_outcome_surface,
    ipw_ate,
    naive_diff,
    outcome_regression_ate,
)
from .harness import (
    ReplicationReport,
    ScenarioConfig,
    TrialData,
    evaluate_at_final_threshold,
    run_replications,
    run_scenario,
    scenario_preset,
)
from .numerics import (
    GlmFit,
    GlmSpec,
    choose_knots,
    fit_glm,
    gaussian_kernel_weights,
    natural_cubic_basis,
    normal_cdf,
    pca,
    residualize,
)
from .outcomes import (
    OutcomeModel,
    ascvd_prob,
    attendance_prob,
    cholesterol_mean,
    true_local_ate,
    true_smoothed_ate,
)
from .risk_engine import (
    CounterfactualRiskMatrix,
    ModelHistory,
    PceCoefficientSet,
    RiskModelVersion,
    build_counterfactual_matrix,
    load_default_coefficients,
    original_pce_model,
)
from .seeds import SeedStream

__version__ = "0.1.0"
