"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own code paths: exact rational
arithmetic for binomial tails, and raw sampling for distribution checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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
