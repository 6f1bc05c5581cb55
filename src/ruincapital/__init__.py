"""Risk capitals for compound renewal insurance models.

The package computes, bounds, approximates and simulates two capital
requirements for an insurance portfolio whose claims follow a compound
renewal process with premium income at a constant rate:

* the Value-at-Risk capital, the (1 - alpha)-quantile of the terminal
  claim-surplus deficit at a finite horizon, and
* the non-ruin capital, the smallest initial capital keeping the
  probability of ruin within the horizon at or below alpha.

Entry points: :mod:`ruincapital.capital` solves for capitals through
exact, diffusion-approximate, simulation and CLT backends;
:mod:`ruincapital.exact` holds closed-form machinery for exponential
claim/inter-arrival laws; :mod:`ruincapital.approx` the inverse Gaussian
and normal approximations; :mod:`ruincapital.bounds` adjustment
coefficients and exponential tail bounds; :mod:`ruincapital.montecarlo`
the path simulator; :mod:`ruincapital.presets` canned reference figures.
"""

from .approx import (
    CramerConstants,
    capital_asymptotic_bounds,
    cramer_constants_exp,
    cramer_ruin_exp,
    ig_ruin_probability,
    var_clt,
)
from .bounds import (
    AdjustmentCoefficient,
    RatioBounds,
    adjustment_coefficient,
    capital_upper_bound_lundberg,
    lundberg_ratio_bounds,
    ultimate_capital_interval,
)
from .capital import (
    CapitalPoint,
    SolveSpec,
    capital_curve,
    nonruin_capital,
    ruin_curve,
    ultimate_capital,
    var_capital,
)
from .dist import (
    Distribution,
    Erlang,
    Exponential,
    Kummer,
    MixtureExp2,
    Pareto,
    distribution_from_config,
)
from .errors import (
    BackendIncompatibleError,
    BracketError,
    ConstantsUnavailableError,
    DomainError,
    ExcludedCaseError,
    InfiniteCapitalError,
    IntegrationError,
    MomentUndefinedError,
    NoAdjustmentCoefficientError,
    RuinCapitalError,
    UnsupportedDistributionError,
)
from .exact import ExpPair, aggregate_cdf_exp, ruin_finite_exp, ruin_ultimate_exp
from .model import DerivedConstants, RiskModel, derived_constants, theorem_preconditions
from .montecarlo import Estimate, PathSample, SimConfig, simulate_curve, simulate_paths
from .table import CurveTable

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AdjustmentCoefficient",
    "BackendIncompatibleError",
    "BracketError",
    "CapitalPoint",
    "ConstantsUnavailableError",
    "CramerConstants",
    "CurveTable",
    "Distribution",
    "DomainError",
    "Erlang",
    "Estimate",
    "ExcludedCaseError",
    "ExpPair",
    "Exponential",
    "InfiniteCapitalError",
    "IntegrationError",
    "Kummer",
    "DerivedConstants",
    "MixtureExp2",
    "MomentUndefinedError",
    "NoAdjustmentCoefficientError",
    "Pareto",
    "PathSample",
    "RatioBounds",
    "RiskModel",
    "RuinCapitalError",
    "SimConfig",
    "SolveSpec",
    "UnsupportedDistributionError",
    "adjustment_coefficient",
    "aggregate_cdf_exp",
    "capital_asymptotic_bounds",
    "capital_curve",
    "capital_upper_bound_lundberg",
    "cramer_constants_exp",
    "cramer_ruin_exp",
    "derived_constants",
    "distribution_from_config",
    "ig_ruin_probability",
    "lundberg_ratio_bounds",
    "nonruin_capital",
    "ruin_curve",
    "ruin_finite_exp",
    "ruin_ultimate_exp",
    "simulate_curve",
    "simulate_paths",
    "theorem_preconditions",
    "ultimate_capital",
    "ultimate_capital_interval",
    "var_capital",
]
