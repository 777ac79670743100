"""Fit parametric distributions to empirical quantiles.

Given M published quantiles of a hidden sample of size N, the package
infers full parametric distributions through the joint density of the
matching order statistics, with a gaussian-noise CDF-regression baseline,
posterior-predictive queries, model ranking, and a command-line front
end.
"""

from .datasets import COUNTRY_CODES, load_salaries
from .distributions import FAMILY_NAMES, Dist, FamilySpec, dist, get_family
from .inference import (
    Diagnostics,
    ModelSpec,
    PosteriorDraws,
    PriorSpec,
    SamplerConfig,
    build_model,
    diagnostics,
    map_estimate,
    sample_posterior,
)
from .orderstats import (
    QuantileObservation,
    gaussian_noise_loglik,
    joint_os_loglik,
    penalty_curves,
    uniform_os_cdf,
)
from .predictive import (
    FitReport,
    Score,
    compare_models,
    kde_curve,
    make_fit_report,
    predictive_cdf,
    predictive_quantile,
    score_model,
)
from .simulation import (
    SimConfig,
    empirical_cdf_ensemble,
    os_marginal_oracle,
    simulate_quantile_data,
)

__all__ = [
    "COUNTRY_CODES",
    "load_salaries",
    "FAMILY_NAMES",
    "Dist",
    "FamilySpec",
    "dist",
    "get_family",
    "Diagnostics",
    "ModelSpec",
    "PosteriorDraws",
    "PriorSpec",
    "SamplerConfig",
    "build_model",
    "diagnostics",
    "map_estimate",
    "sample_posterior",
    "QuantileObservation",
    "gaussian_noise_loglik",
    "joint_os_loglik",
    "penalty_curves",
    "uniform_os_cdf",
    "FitReport",
    "Score",
    "compare_models",
    "kde_curve",
    "make_fit_report",
    "predictive_cdf",
    "predictive_quantile",
    "score_model",
    "SimConfig",
    "empirical_cdf_ensemble",
    "os_marginal_oracle",
    "simulate_quantile_data",
]

__version__ = "0.1.0"
