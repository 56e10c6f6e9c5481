"""Localization probability in randomly deployed networks.

A node with unknown position localizes itself when at least three
position-aware anchor nodes fall within its radio coverage.  This package
computes lower bounds on the failure probability of that event -- under
fixed coverage and under log-normal fading of power-based range estimates --
together with the parameter thresholds where the behaviour flips, and ships
a seeded Monte Carlo simulator that independently validates every closed
form.
"""

from .analytic import (
    VARIANTS,
    FailureProbResult,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
    iterative_failure_floor,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from .model import (
    ALPHA,
    BhatDistribution,
    NetworkParams,
    ShadowModel,
    bhat_distribution,
    make_bhat_distribution,
    make_network,
    make_shadow_model,
)
from .montecarlo import (
    ProbEstimate,
    Realization,
    TrialProtocol,
    estimate,
    sample_realization,
    wilson_interval,
)
from .numerics import (
    NonConvergenceError,
    QuadratureSpec,
    find_sign_change,
    integrate,
    normal_lower_tail,
    second_derivative_fd,
)
from .shadowing import METHODS, bhat_moment, bhat_pdf, failure_prob_shadow

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "METHODS",
    "VARIANTS",
    "BhatDistribution",
    "FailureProbResult",
    "NetworkParams",
    "NonConvergenceError",
    "ProbEstimate",
    "QuadratureSpec",
    "Realization",
    "ShadowModel",
    "TrialProtocol",
    "bhat_distribution",
    "bhat_moment",
    "bhat_pdf",
    "estimate",
    "failure_prob_approx_small",
    "failure_prob_closed",
    "failure_prob_shadow",
    "failure_prob_sum",
    "find_sign_change",
    "integrate",
    "iterative_failure_floor",
    "make_bhat_distribution",
    "make_network",
    "make_shadow_model",
    "normal_lower_tail",
    "sample_realization",
    "second_derivative_fd",
    "threshold_a_star",
    "threshold_a_star_numeric",
    "threshold_b_star",
    "threshold_b_star_numeric",
    "wilson_interval",
]
