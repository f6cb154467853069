"""Differentially private synthetic count data.

Two conjugate synthesizers for grouped event counts with a fixed public
total: a multinomial-Dirichlet baseline and a Poisson-gamma mechanism whose
priors carry population sizes and smoothing targets. Both come with exact
budget calibration, exhaustive enumeration audits of the privacy guarantee,
an arbitrary-precision oracle for the normalizer identities, and a
simulation harness for comparing utility across heterogeneity scenarios.
"""

__version__ = "0.1.0"

from .core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    negbin_log_pmf,
    sample_dirichlet,
    sample_gamma,
    sample_multinomial,
)
from .dirichlet_mult import (
    MdCalibration,
    calibrate_md,
    md_implied_epsilon,
    md_log_pmf,
    md_log_ratio,
    md_synthesize,
)
from .errors import (
    CsvParseError,
    DomainError,
    DpcountsError,
    InfeasibleBudgetError,
    UsageError,
)
from .poisson_gamma import (
    PgCalibration,
    SynthesisStrategy,
    TargetRule,
    calibrate_pg,
    calibrate_pg_budgets,
    conditional_log_pmf_all,
    integer_prior_strength,
    normalizer_ratio_bound,
    pg_implied_epsilon,
    pg_synthesize,
    sample_pair_allocation,
    sanitize_state_rates,
    state_target_rates,
    structure_ratio,
)
from .audit import (
    AuditReport,
    BoundAccuracyRow,
    BoundInstance,
    Witness,
    audit_synthesizer,
    bound_accuracy_sweep,
    default_bound_grid,
    enumerate_neighbors,
)
from .exact_math import (
    BivariatePoly,
    check_convolution_identity,
    convolution_closed_form,
    convolution_sum,
    divide_by_q_minus_p,
    exact_normalizer,
)
from .simstudy import (
    PopMode,
    RateMode,
    Scenario,
    StudyConfig,
    StudyResult,
    SynthMethod,
    gen_replicate,
    gen_truth,
    rate_estimates,
    region_contrast,
    rmse,
    run_study,
    truth_from_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
