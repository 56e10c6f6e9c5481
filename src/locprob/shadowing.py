"""Failure bounds when coverage is set by power measurements under fading.

The estimated coverage ratio is a mixed random variable: log-normal around
the true ratio on (0, b_hat_max], plus a point mass at zero for the
below-threshold event.  The unconditioned failure bound integrates the
fixed-coverage bound against that mixture by adaptive Simpson quadrature;
an alternating binomial series over the mixture's even moments is the
small-network cross-check.  The published log-normal moment approximation
leaves [0, 1] at realistic fading; its erratum lives in tests/oracles.py.
"""

from __future__ import annotations

import math

from .analytic import FailureProbResult, _bracket, _closed_value, _invariant
from .model import ALPHA, BhatDistribution, NetworkParams, normal_lower_tail

METHODS = ("integrate_conditional", "alternating_sum")

# The largest n where alternating_sum holds to 1e-6 (criterion 8).  It multiplies each moment's quadrature
# error by about (2 - a)^(n-3): its worst scanned gap to the integral is 4.8e-7 at n = 20, 1.3e-6 at 21,
# 1.8e-5 at 24 and 2.2e-3 at 30, where the integral is within 6e-12 of a 40-digit reference.
SERIES_MAX_N = 20

_EPS_SCALE = 1e-12  # lower integration cutoff, relative to b_o
_PEAK_SPAN = 10  # density split points at b_o * 10^(m sigma1 / 10), |m| <= span
_MAX_DEPTH = 60  # bisections before the quadrature gives up


class NonConvergenceError(RuntimeError):
    """The adaptive quadrature exhausted its refinement budget."""


def integrate(f, lo: float, hi: float, abs_tol: float) -> float:
    """Integrate f over [lo, hi] with adaptive Simpson refinement.

    Each interval is accepted once the Richardson error estimate
    |S(two halves) - S(whole)| / 15 drops below its share of the absolute
    tolerance; otherwise the interval is bisected, halving the tolerance.
    A NonConvergenceError is raised if _MAX_DEPTH bisections are not
    enough -- a non-converged value is never returned silently.
    """
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _refine(f, lo, flo, hi, fhi, mid, fmid, whole, abs_tol, _MAX_DEPTH)


def _refine(f, lo, flo, hi, fhi, mid, fmid, whole, tol, depth):
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    flmid = f(lmid)
    frmid = f(rmid)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flmid + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frmid + fhi)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise NonConvergenceError(
            f"quadrature did not converge on [{lo}, {hi}] "
            f"(residual {abs(delta):.3g}, tolerance {tol:.3g})"
        )
    return _refine(f, lo, flo, mid, fmid, lmid, flmid, left, 0.5 * tol, depth - 1) + _refine(
        f, mid, fmid, hi, fhi, rmid, frmid, right, 0.5 * tol, depth - 1
    )


def _density_terms(dist: BhatDistribution) -> tuple[float, float, float, float]:
    """Per-distribution constants of the density: sqrt(2 pi) sigma1,
    2 sigma1^2, mu and b_hat_max.

    The integrands below build the density ALPHA / (scale x) exp(-z^2 / two_var),
    z = 10 log10(x) - mu, from these in one fixed order of float operations.
    """
    sigma1 = dist.sigma1
    return math.sqrt(2.0 * math.pi) * sigma1, 2.0 * sigma1 * sigma1, dist.mu, dist.b_hat_max


def _split_points(dist: BhatDistribution) -> list[float]:
    """Integration breakpoints straddling the density peak.

    The log-normal bump can be arbitrarily narrow (small sigma1), so plain
    adaptive refinement over the whole support may sample straight past it.
    Splitting at b_o * 10^(m sigma1 / 10) pins the peak region explicitly.
    """
    lo = _EPS_SCALE * dist.b_o
    points = {lo, dist.b_hat_max}
    for m in range(-_PEAK_SPAN, _PEAK_SPAN + 1):
        x = dist.b_o * 10.0 ** (m * dist.sigma1 / 10.0)
        if lo < x < dist.b_hat_max:
            points.add(x)
    return sorted(points)


def _integrate_mixed(dist: BhatDistribution, f, abs_tol: float) -> float:
    """Integral of f over the continuous support, split around the density peak."""
    points = _invariant(("split", dist), lambda: _split_points(dist))
    piece_tol = abs_tol / (len(points) - 1)
    return math.fsum(integrate(f, lo, hi, piece_tol) for lo, hi in zip(points, points[1:]))


def bhat_moment(dist: BhatDistribution, order: int) -> float:
    """E[ratio^order] for even order, by quadrature over the mixed distribution.

    The point mass at zero contributes only at order 0, where the total mass
    is 1 exactly.  One table integrates each (dist, order) once (_invariant).
    """
    if order < 0 or order % 2 != 0:
        raise ValueError(f"order must be a non-negative even integer, got {order}")
    if order == 0:
        return 1.0
    if dist.sigma1 == 0.0:
        return dist.b_o**order if dist.b_o <= dist.b_hat_max else 0.0
    scale, two_var, mu, b_hat_max = _density_terms(dist)
    log10, exp = math.log10, math.exp

    def f(x: float) -> float:  # x**order times the density
        if not 0.0 < x <= b_hat_max:
            return 0.0
        z = 10.0 * log10(x) - mu
        return x**order * (ALPHA / (scale * x) * exp(-z * z / two_var))

    return _invariant(("moment", dist, order), lambda: _integrate_mixed(dist, f, 1e-12))


def failure_prob_shadow(net: NetworkParams, dist: BhatDistribution,
                        method: str = "integrate_conditional") -> FailureProbResult:
    """Failure bound with coverage drawn from the mixed ratio distribution.

    integrate_conditional (default): zero_mass + integral of the conditional
    fixed-coverage bound against the continuous density.  Conditional failure
    at ratio zero is certain, hence the zero_mass term; it tends to 1 as the
    ratio tends to 0, so the density's mass below the integration cutoff
    counts in full as well.

    alternating_sum: binomial series over quadrature moments; algebraically
    identical to the integral form, kept for small-n cross-validation up to
    n = SERIES_MAX_N.
    """
    n = net.n
    if method == "integrate_conditional":
        if dist.sigma1 == 0.0:
            p_f = _closed_value(n, net.a, dist.b_o) if dist.b_o <= dist.b_hat_max else 1.0
        else:
            p_f = dist.zero_mass + _below_cutoff(dist) + _integrate_mixed(
                dist, _failure_integrand(net, dist), 1e-9
            )
    elif method == "alternating_sum":
        if n > SERIES_MAX_N:
            raise ValueError(f"{method} is outside its stated validity for n = {n} > "
                             f"{SERIES_MAX_N}, use integrate_conditional")
        p_f = _series(net, {j: bhat_moment(dist, j) for j in range(0, 2 * n, 2)})
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f)


def _below_cutoff(dist: BhatDistribution) -> float:
    """Continuous mass below the lower integration cutoff _EPS_SCALE * b_o."""
    lo = _EPS_SCALE * dist.b_o
    if lo == 0.0:  # b_o so small that the cutoff underflows: nothing lies below
        return 0.0
    return normal_lower_tail((10.0 * math.log10(lo) - dist.mu) / dist.sigma1)


def _failure_integrand(net: NetworkParams, dist: BhatDistribution):
    """x -> _closed_value(n, a, x) times the density at x, bit for bit."""
    one_minus_a = 1.0 - net.a
    c1, c2 = _bracket(net.n)
    scale, two_var, mu, b_hat_max = _density_terms(dist)
    log10, exp = math.log10, math.exp

    def f(x: float) -> float:
        if not 0.0 < x <= b_hat_max:
            return 0.0
        s = one_minus_a * x * x
        z = 10.0 * log10(x) - mu
        return (1.0 - s) ** c1 * (1.0 + c1 * s + c2 * s * s) * (
            ALPHA / (scale * x) * exp(-z * z / two_var)
        )

    return f


def _series(net: NetworkParams, moments: dict[int, float]) -> float:
    """Alternating binomial series over the ratio's even moments, by order 0, 2, ..., 2n - 2."""
    n = net.n
    k1 = 1.0 - net.a
    c1 = n - 3
    k2 = k1 * c1
    k3 = k1**2 * 0.5 * (n - 2) * (n - 3)  # k1^2 c2, with k1^2 multiplied in first
    terms = []
    for ell in range(n - 2):
        coeff = math.comb(n - 3, ell) * (-k1) ** ell
        terms.append(
            coeff
            * (moments[2 * ell] + k2 * moments[2 * ell + 2] + k3 * moments[2 * ell + 4])
        )
    return math.fsum(terms)
