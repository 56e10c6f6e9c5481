"""Domain parameter types shared by the analytic, shadowing and simulation code.

All types are immutable after construction and safe to share across workers.
Distances carry an explicit unit convention: the maximum measurable distance
is computed in units of the reference distance d0 and then converted, so the
caller supplies d0 and R in the same length unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# decibel scale constant: 10 / ln(10)
ALPHA = 10.0 / math.log(10.0)


def normal_lower_tail(z: float) -> float:
    """Standard normal CDF P(Z <= z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class NetworkParams:
    """Node counts: n total, k anchors, and the non-anchor fraction a = 1 - k/n."""

    n: int
    k: int
    a: float


@dataclass(frozen=True)
class ShadowModel:
    """Propagation constants for power-based ranging with log-normal fading.

    p0_dbm is the received power at the reference distance d0, gamma_dbm the
    receiver detection threshold, n_p the path-loss exponent and sigma_s the
    fading standard deviation in dB.  Derived fields: sigma1 = sigma_s / n_p,
    d_hat_max the largest measurable distance estimate (same unit as d0 and
    R), and b_hat_max = d_hat_max / R.
    """

    p0_dbm: float
    gamma_dbm: float
    d0: float
    n_p: float
    sigma_s: float
    R: float
    sigma1: float
    d_hat_max: float
    b_hat_max: float


@dataclass(frozen=True)
class BhatDistribution:
    """Mixed distribution of the estimated coverage-to-domain ratio.

    The continuous part is log-normal around the true ratio b_o, truncated at
    b_hat_max; zero_mass is the probability that the estimate saturates (the
    below-threshold event, modelled as a point mass at zero).  mu is the mean
    of the decibel transform 10*log10 of the ratio.  With sigma1 == 0 the
    distribution is degenerate (a single point mass) and carries no density.
    """

    b_o: float
    sigma1: float
    b_hat_max: float
    zero_mass: float
    mu: float
    degenerate: bool = False


def make_network(n: int, k: int) -> NetworkParams:
    """Validated node counts with a = 1 - k/n.

    The closed forms all require at least four nodes; k may equal 0 or n
    (the trivial anchors-only / no-anchors configurations are accepted).
    """
    if n < 4:
        raise ValueError(f"n too small: need n >= 4, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"anchor count k must lie in [0, {n}], got {k}")
    return NetworkParams(n=n, k=k, a=1.0 - k / n)


def make_shadow_model(
    p0_dbm: float,
    gamma_dbm: float,
    d0: float,
    n_p: float,
    sigma_s: float,
    R: float,
) -> ShadowModel:
    """Shadowing model with derived sigma1, d_hat_max and b_hat_max.

    d_hat_max = d0 * 10^((p0 - gamma) / (10 n_p)) is the distance estimate at
    which the received power hits the detection threshold.  The mixed-ratio
    analysis requires that this stays inside the domain (0 < b_hat_max < 1).
    """
    if not n_p > 0.0:
        raise ValueError(f"path-loss exponent n_p must be positive, got {n_p}")
    if not sigma_s >= 0.0:
        raise ValueError(f"sigma_s must be non-negative, got {sigma_s}")
    if not d0 > 0.0:
        raise ValueError(f"reference distance d0 must be positive, got {d0}")
    if not R > 0.0:
        raise ValueError(f"domain radius R must be positive, got {R}")
    try:
        d_hat_max = d0 * 10.0 ** ((p0_dbm - gamma_dbm) / (10.0 * n_p))
    except OverflowError:  # the power-ratio exponent passes the float range
        d_hat_max = math.inf
    b_hat_max = d_hat_max / R
    if not 0.0 < b_hat_max < 1.0:
        raise ValueError(
            f"b_hat_max = {b_hat_max:.4g} is outside (0, 1): the maximum measurable "
            f"distance {d_hat_max:.4g} must be positive and fit inside the domain "
            f"radius {R:.4g}"
        )
    return ShadowModel(
        p0_dbm=p0_dbm,
        gamma_dbm=gamma_dbm,
        d0=d0,
        n_p=n_p,
        sigma_s=sigma_s,
        R=R,
        sigma1=sigma_s / n_p,
        d_hat_max=d_hat_max,
        b_hat_max=b_hat_max,
    )


def bhat_distribution(b_o: float, sigma1: float, b_hat_max: float) -> BhatDistribution:
    """Distribution of the estimated ratio, from dimensionless parameters.

    zero_mass is the probability that the raw (untruncated) estimate exceeds
    b_hat_max, i.e. the lower Gaussian tail at -10*log10(b_hat_max / b_o)
    standard units of sigma1.  sigma1 == 0 yields a flagged degenerate form:
    a point mass at b_o when b_o <= b_hat_max, otherwise all mass at zero.
    """
    if not b_o > 0.0:
        raise ValueError(f"true ratio b_o must be positive, got {b_o}")
    if not 0.0 < b_hat_max < 1.0:
        raise ValueError(f"b_hat_max must lie in (0, 1), got {b_hat_max}")
    if sigma1 < 0.0:
        raise ValueError(f"sigma1 must be non-negative, got {sigma1}")
    mu = 10.0 * math.log10(b_o)
    if sigma1 == 0.0:
        zero_mass = 0.0 if b_o <= b_hat_max else 1.0
        return BhatDistribution(
            b_o=b_o,
            sigma1=0.0,
            b_hat_max=b_hat_max,
            zero_mass=zero_mass,
            mu=mu,
            degenerate=True,
        )
    zero_mass = normal_lower_tail(-10.0 * math.log10(b_hat_max / b_o) / sigma1)
    return BhatDistribution(
        b_o=b_o, sigma1=sigma1, b_hat_max=b_hat_max, zero_mass=zero_mass, mu=mu
    )
