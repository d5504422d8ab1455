"""Cox models with sparse, piecewise-smooth time-varying covariate effects.

The estimator passes a spline sieve through a smooth soft-threshold
surrogate inside the partial likelihood, so each covariate's effect curve
can be exactly zero over data-driven time regions.  The package also
ships the matching sparse confidence intervals, a ridge-only variant, a
constant-effect baseline, cross-validation for the sieve size, and a
seeded simulation harness.
"""

from .coxph import CoxFit, fit_coxph, initial_gamma
from .dataset import SurvivalDataset, load_csv, make_dataset, save_csv
from .errors import (
    ConvergenceError,
    NumericError,
    SchemaError,
    SeparationError,
    SttvError,
    ValidationError,
)
from .inference import (
    CurveEstimate,
    Interval,
    SparseInterval,
    curve_variance,
    limiting_cdf,
    normal_cdf,
    normal_quantile,
    sparse_ci,
    wald_ci,
)
from .likelihood import (
    CoefficientBlock,
    LikelihoodWorkspace,
    gradient,
    hessian,
    make_workspace,
    penalized_loglik,
    score_covariance,
    value_and_derivatives,
)
from .model_selection import (
    DEFAULT_CANDIDATES,
    CvResult,
    assign_folds,
    cross_validate,
)
from .optimizer import VARIANTS, FitConfig, FittedModel, estimate_curves, fit
from .reporting import (
    StudySummary,
    build_summary,
    coverage_profile,
    metric_rows,
    read_curve_table,
    render_csv,
    render_markdown,
    study_summary,
)
from .simulation import (
    COVARIANCES,
    DEFAULT_BASELINE_HAZARD,
    MetricReport,
    Scenario,
    StudyResult,
    draw_covariates,
    generate,
    metric_grid,
    replicate,
    rep_seed,
    score,
    true_beta,
)
from .splines import SplineBasis, eval_basis_grid, make_basis
from .threshold import (
    smooth_threshold,
    smooth_threshold_d1,
    smooth_threshold_d2,
    soft_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientBlock",
    "ConvergenceError",
    "CoxFit",
    "CurveEstimate",
    "CvResult",
    "FitConfig",
    "FittedModel",
    "Interval",
    "LikelihoodWorkspace",
    "MetricReport",
    "NumericError",
    "Scenario",
    "SchemaError",
    "SeparationError",
    "SparseInterval",
    "SplineBasis",
    "StudyResult",
    "StudySummary",
    "SttvError",
    "SurvivalDataset",
    "ValidationError",
    "COVARIANCES",
    "DEFAULT_BASELINE_HAZARD",
    "DEFAULT_CANDIDATES",
    "VARIANTS",
    "assign_folds",
    "build_summary",
    "coverage_profile",
    "cross_validate",
    "curve_variance",
    "draw_covariates",
    "estimate_curves",
    "eval_basis_grid",
    "fit",
    "fit_coxph",
    "generate",
    "gradient",
    "hessian",
    "initial_gamma",
    "limiting_cdf",
    "load_csv",
    "make_basis",
    "make_dataset",
    "make_workspace",
    "metric_grid",
    "metric_rows",
    "normal_cdf",
    "normal_quantile",
    "penalized_loglik",
    "read_curve_table",
    "render_csv",
    "render_markdown",
    "rep_seed",
    "replicate",
    "save_csv",
    "score",
    "score_covariance",
    "smooth_threshold",
    "smooth_threshold_d1",
    "smooth_threshold_d2",
    "soft_threshold",
    "sparse_ci",
    "study_summary",
    "true_beta",
    "value_and_derivatives",
    "wald_ci",
]
