"""Localization probability in randomly deployed networks.

A node with unknown position localizes itself when at least three
position-aware anchor nodes fall within its radio coverage.  This package
computes lower bounds on the failure probability of that event -- under
fixed coverage and under log-normal fading of power-based range estimates --
together with the parameter thresholds where the behaviour flips, and ships
a seeded Monte Carlo simulator that independently validates every closed
form.

Importing the package does not import numpy: the analytic and shadowing
layers use only the standard library.  The Monte Carlo names
(`estimate`, `worker_pool`, ...) import `locprob.montecarlo`, and with it
numpy, on first use; `TrialProtocol`, the cell they simulate, does not.
"""

from .analytic import (
    VARIANTS,
    FailureProbResult,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
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
    TrialProtocol,
    bhat_distribution,
    make_network,
    make_shadow_model,
)
from .shadowing import METHODS, NonConvergenceError, bhat_moment, failure_prob_shadow

__version__ = "0.1.0"

# The Monte Carlo layer is the only user of numpy; its names load it on first use.
_MONTECARLO_NAMES = ("ProbEstimate", "estimate", "sample_realization", "wilson_interval", "worker_pool")


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALPHA",
    "METHODS",
    "VARIANTS",
    "BhatDistribution",
    "FailureProbResult",
    "NetworkParams",
    "NonConvergenceError",
    "ProbEstimate",
    "ShadowModel",
    "TrialProtocol",
    "bhat_distribution",
    "bhat_moment",
    "estimate",
    "failure_prob_approx_small",
    "failure_prob_closed",
    "failure_prob_shadow",
    "failure_prob_sum",
    "make_network",
    "make_shadow_model",
    "sample_realization",
    "threshold_a_star",
    "threshold_a_star_numeric",
    "threshold_b_star",
    "threshold_b_star_numeric",
    "wilson_interval",
    "worker_pool",
]
