"""threshlab: a numerical laboratory for cube-root threshold estimation.

Density pairs with exact derivatives, KL quadrature, entropy-budgeted
bump perturbations with two-point certificates, threshold estimators
(ERM, windowed regression, two-step split, clock), local quadratic risk
bounds, finite information-inequality checkers, and a Monte Carlo rate
harness with CLI.
"""

from .divergence import QuadratureSpec, relative_entropy
from .errors import ThreshlabError
from .estimators import clock_estimator, erm_threshold, refine_local, two_step
from .model import (
    DensityPair,
    LocalParams,
    builtin_model,
    builtin_models,
    local_params,
)
from .perturbation import (
    TwoPointCertificate,
    build_certificate,
    default_bump,
    estimate_c1,
    make_plan,
    perturb,
)
from .risk import excess_risk, prediction_error, quadratic_bounds
from .sampling import LabeledSample, SeedPolicy, cdf_sigma, draw

__version__ = "0.1.0"

__all__ = [
    "QuadratureSpec", "relative_entropy",
    "ThreshlabError",
    "clock_estimator", "erm_threshold", "refine_local", "two_step",
    "DensityPair", "LocalParams", "builtin_model", "builtin_models",
    "local_params",
    "TwoPointCertificate", "build_certificate",
    "default_bump", "estimate_c1", "make_plan", "perturb",
    "excess_risk", "prediction_error", "quadratic_bounds",
    "LabeledSample", "SeedPolicy", "cdf_sigma", "draw",
]
