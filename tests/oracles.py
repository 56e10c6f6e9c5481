"""Independent reference computations used to freeze expected test values.

Most of these deliberately avoid the library's own code paths: exact
rational arithmetic for binomial tails, and raw sampling for distribution
checks.  The last section keeps plain formulations of the analytic fast
paths, built from the library's unchanged primitives, for bitwise checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from locprob.analytic import _few_anchor_mass
from locprob.model import ALPHA, normal_lower_tail
from locprob.shadowing import _split_points, bhat_moment, integrate


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k), via log-gamma."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def exact_binomial_cdf(count: int, trials: int, p: float) -> Fraction:
    """P(X <= count) for X ~ binomial(trials, p), exact big-integer rationals.

    The float p is converted to its exact binary value, so the only error in
    a comparison against a float result is that result's own rounding.
    """
    q = Fraction(p)
    return sum(
        (math.comb(trials, j) * q**j * (1 - q) ** (trials - j) for j in range(count + 1)),
        Fraction(0),
    )


def independent_failure_bound(n: int, a: float, b: float) -> Fraction:
    """Exact rational failure bound: binomial(n-1, (1-a) b^2) CDF at 2.

    Derived independently of the library: a node helps iff it lands in the
    coverage disk (probability b^2, by area uniformity) and is an anchor
    (probability 1-a); failure means fewer than three helpers among n-1.
    """
    s = (Fraction(1) - Fraction(a)) * Fraction(b) * Fraction(b)
    total = Fraction(0)
    for j in range(3):
        total += math.comb(n - 1, j) * s**j * (1 - s) ** (n - 1 - j)
    return total


def per_link_center_failure(n: int, a: float, dist) -> float:
    """Centre-probe failure bound when every link draws its own fading value.

    Each of the n - 1 other nodes helps independently: it is an anchor with
    probability 1 - a, and its area-uniform squared radius falls inside its
    own link's squared ratio with probability E[ratio^2] (the ratio never
    exceeds b_hat_max < 1).  So the helper count is binomial(n - 1, s) with
    s = (1 - a) E[ratio^2], and failure is its CDF at 2: the corrected closed
    form at that s.  (A per-node draw shares one ratio across all links, so
    its bound is the mixture integral instead.)
    """
    s = (1.0 - a) * bhat_moment(dist, 2)
    return (1.0 - s) ** (n - 3) * (1.0 + (n - 3) * s + 0.5 * (n - 2) * (n - 3) * s * s)


def sample_truncated_ratio(
    rng: np.random.Generator, size: int, b_o: float, sigma1: float, b_hat_max: float
) -> np.ndarray:
    """Raw draws of the estimated coverage ratio: b_o * 10^(-X/10), X ~ N(0, sigma1^2),
    set to zero whenever the raw value exceeds b_hat_max."""
    raw = b_o * 10.0 ** (-rng.normal(0.0, sigma1, size) / 10.0)
    return np.where(raw <= b_hat_max, raw, 0.0)


def brute_force_anchor_counts(
    radii: np.ndarray,
    angles: np.ndarray,
    l_flags: np.ndarray,
    b: float,
    shadow_draw: str = "none",
    rng: np.random.Generator | None = None,
    sigma1: float = 0.0,
    b_hat_max: float = 1.0,
) -> np.ndarray:
    """Anchors within each blind node's coverage radius, blind nodes in index order.

    Every blind-to-anchor distance is computed in one broadcast block.  Fading
    draws, when asked for, come from rng in field-protocol order: one per
    blind node ("per_node") or one per blind-anchor pair, row-major ("per_link").
    An anchor is in range when its float squared distance is at most the
    radius times itself (a float pow(b, 2) can differ from b * b in the last bit).
    """
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)
    blind = ~l_flags
    dx = x[blind, None] - x[None, l_flags]
    dy = y[blind, None] - y[None, l_flags]
    d2 = dx * dx + dy * dy
    if shadow_draw == "none":
        radius = b
    elif shadow_draw == "per_node":
        radius = sample_truncated_ratio(rng, d2.shape[0], b, sigma1, b_hat_max)[:, None]
    else:
        radius = sample_truncated_ratio(rng, d2.shape, b, sigma1, b_hat_max)
    return (d2 <= radius * radius).sum(axis=1)


# ---------------------------------------------------------------------------
# Straightforward formulations of the analytic fast paths.  The library
# hoists constants and skips exact-zero terms; these compose the unchanged
# primitives call by call, so the fast paths must match them bit for bit.

def closed_value_reference(n: int, a: float, b: float, variant: str) -> float:
    """Closed-form failure bound with the bracket coefficient chosen inline."""
    s = (1.0 - a) * b * b
    u = 1.0 - s
    if variant == "corrected":
        c2 = 0.5 * (n - 2) * (n - 3)
    else:
        c2 = 0.5 * (n - 1) * (n - 2)
    return u ** (n - 3) * (1.0 + (n - 3) * s + c2 * s * s)


def pdf_reference(dist, bhat: float) -> float:
    """Density of the estimated ratio for a non-degenerate distribution, bhat >= 0."""
    if bhat == 0.0 or bhat > dist.b_hat_max:
        return 0.0
    z = 10.0 * math.log10(bhat) - dist.mu
    sigma1 = dist.sigma1
    return (
        ALPHA
        / (math.sqrt(2.0 * math.pi) * sigma1 * bhat)
        * math.exp(-z * z / (2.0 * sigma1 * sigma1))
    )


def _mixed_integral_reference(dist, g, abs_tol: float) -> float:
    """Integral of g(x) * pdf_reference(dist, x) piece by piece over the split points."""
    points = _split_points(dist)
    piece_tol = abs_tol / (len(points) - 1)
    pieces = [
        integrate(lambda x: g(x) * pdf_reference(dist, x), lo, hi, piece_tol)
        for lo, hi in zip(points, points[1:])
    ]
    return math.fsum(pieces)


def shadow_failure_reference(n: int, a: float, dist, variant: str) -> float:
    """integrate_conditional failure bound for a non-degenerate distribution:
    zero mass, plus the density's mass below the lowest split point (where
    conditional failure tends to 1), plus the integral above it."""
    lo = _split_points(dist)[0]
    below = normal_lower_tail((10.0 * math.log10(lo) - dist.mu) / dist.sigma1) if lo > 0.0 else 0.0
    integral = _mixed_integral_reference(
        dist, lambda x: closed_value_reference(n, a, x, variant), 1e-9
    )
    return dist.zero_mass + below + integral


def moment_reference(dist, order: int) -> float:
    """Quadrature moment E[ratio^order] of a non-degenerate distribution, order >= 2."""
    return _mixed_integral_reference(dist, lambda x: x**order, 1e-12)


def alternating_series_reference(n: int, a: float, variant: str, moment) -> float:
    """Alternating binomial series over even moments, constants spelled out."""
    k1 = 1.0 - a
    k2 = (1.0 - a) * (n - 3)
    if variant == "corrected":
        k3 = (1.0 - a) ** 2 * 0.5 * (n - 2) * (n - 3)
    else:
        k3 = (1.0 - a) ** 2 * 0.5 * (n - 1) * (n - 2)
    terms = []
    for ell in range(n - 2):
        coeff = math.comb(n - 3, ell) * (-k1) ** ell
        terms.append(
            coeff
            * (moment(2 * ell) + k2 * moment(2 * ell + 2) + k3 * moment(2 * ell + 4))
        )
    return math.fsum(terms)


def failure_series_reference(n: int, a: float, b: float) -> float:
    """Series failure bound for 0 < b^2 < 1: every term through three
    log-gammas and exp, zeros included, normalised by the total mass."""
    b2 = b * b
    log_b2 = math.log(b2)
    log_q = math.log1p(-b2)
    weighted = []
    total = []
    for p in range(n):
        term = math.exp(log_binomial(n - 1, p) + p * log_b2 + (n - 1 - p) * log_q)
        total.append(term)
        mass = _few_anchor_mass(p, a)
        if mass != 0.0:
            weighted.append(term * mass)
    return math.fsum(weighted) / math.fsum(total)
