"""Finite-population estimation from a probability sample plus a big
non-probability source.

The package combines a small probability sample (design weights known)
with a large auxiliary source that covers much of the population but
was not drawn by any known design.  It provides post-stratified,
ratio, calibration, propensity-corrected, and measurement-error-
corrected estimators of population totals; linearization variance
estimators; a membership classifier for when the big source cannot be
matched exactly; and a Monte Carlo harness with a command-line front
end.
"""

from .calibration import (
    CONTROL_VARIANTS,
    CalibrationResult,
    ControlSpec,
    build_controls,
    regdi_total,
    solve_weights,
)
from .classifier import (
    AscentViolationError,
    ClassifierModel,
    DegenerateFitError,
    PosteriorSet,
    PropensityTotals,
    classify,
    em_fit,
    estimate_m,
    initial_u,
    pdi2_total,
    posterior,
    propensity_totals,
)
from .estimators import (
    BigDataTotals,
    CostDecision,
    DegenerateStratumError,
    EstimateReport,
    cost_effective,
    effective_sample_size,
    ht_total,
    pdi_total,
    pdi_variance_approx,
    ratio_di_total,
)
from .fileio import (
    read_big_data_csv,
    read_classifier_model,
    read_population_csv,
    read_sample_csv,
    write_big_data_csv,
    write_classifier_model,
    write_labels_csv,
    write_population_csv,
    write_sample_csv,
    write_summary_csv,
)
from .linalg import SingularControlsError
from .measurement import (
    MeasurementFitError,
    MeasurementModel,
    fit_measurement_model,
    linearization_terms,
    mass_imputation_total,
    mass_imputation_variance,
    two_step_regdi,
)
from .population import (
    BigSample,
    EmptyPopulationError,
    FinitePopulation,
    InfeasibleSelectionError,
    ProbabilitySample,
    SRSJointInclusion,
    big_data_inclusion_probabilities,
    draw_srs,
    generate_population_sim1,
    generate_population_sim2,
    select_big_data_stratified,
)
from .rng import substream
from .simulation import (
    EstimatorSummary,
    MonteCarloSummary,
    SimConfig,
    run_sim1,
    run_sim2,
    summarize,
    summary_rows,
)
from .variance import (
    ResidualSet,
    ht_variance_quadratic,
    regdi_residuals,
    variance_relative_bias,
)

__version__ = "0.1.0"

__all__ = [
    "AscentViolationError",
    "BigDataTotals",
    "BigSample",
    "CONTROL_VARIANTS",
    "CalibrationResult",
    "ClassifierModel",
    "ControlSpec",
    "CostDecision",
    "DegenerateFitError",
    "DegenerateStratumError",
    "EmptyPopulationError",
    "EstimateReport",
    "EstimatorSummary",
    "FinitePopulation",
    "InfeasibleSelectionError",
    "MeasurementFitError",
    "MeasurementModel",
    "MonteCarloSummary",
    "PosteriorSet",
    "ProbabilitySample",
    "PropensityTotals",
    "ResidualSet",
    "SRSJointInclusion",
    "SimConfig",
    "SingularControlsError",
    "big_data_inclusion_probabilities",
    "build_controls",
    "classify",
    "cost_effective",
    "draw_srs",
    "effective_sample_size",
    "em_fit",
    "estimate_m",
    "fit_measurement_model",
    "generate_population_sim1",
    "generate_population_sim2",
    "ht_total",
    "ht_variance_quadratic",
    "initial_u",
    "linearization_terms",
    "mass_imputation_total",
    "mass_imputation_variance",
    "pdi2_total",
    "pdi_total",
    "pdi_variance_approx",
    "posterior",
    "propensity_totals",
    "ratio_di_total",
    "read_big_data_csv",
    "read_classifier_model",
    "read_population_csv",
    "read_sample_csv",
    "regdi_residuals",
    "regdi_total",
    "run_sim1",
    "run_sim2",
    "select_big_data_stratified",
    "solve_weights",
    "substream",
    "summarize",
    "summary_rows",
    "two_step_regdi",
    "variance_relative_bias",
    "write_big_data_csv",
    "write_classifier_model",
    "write_labels_csv",
    "write_population_csv",
    "write_sample_csv",
    "write_summary_csv",
]
