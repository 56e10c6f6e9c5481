"""Failure-probability lower bounds and transition thresholds, fixed coverage.

A blind node localizes itself when at least three anchor nodes fall inside
its coverage disk.  With n nodes uniform on the domain disk, anchor fraction
1 - a and coverage-to-domain ratio b, the chance that any given node is both
in range and an anchor is (1 - a) * b^2, so the failure bound is the
probability that a binomial(n - 1, (1 - a) b^2) count stays below three.
The module evaluates that bound three ways (term-by-term series, closed
form, small-coverage approximation) plus the transition thresholds where the
bound's second derivative vanishes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .model import NetworkParams

#: Bracket-coefficient variants for the closed form.  "corrected" uses the
#: b^4 coefficient (n-2)(n-3)/2 that matches the term-by-term series exactly;
#: "paper" keeps the as-published coefficient (n-1)(n-2)/2, which is retained
#: only to document the discrepancy -- it can exceed probability 1.
VARIANTS = ("corrected", "paper")

# exp() of anything below about -745.13 is exactly 0.0; the margin absorbs
# the rounding of a series term's log, so only exact zeros are skipped.
_LOG_ZERO_TERM = -800.0

# Finite-difference step, bisection tolerance and the half-width of the
# bracket around the closed-form a* for the numeric threshold roots.
_FD_STEP = 1e-4
_ROOT_TOL = 1e-6
_A_BRACKET = 0.08

_invariants = ContextVar("locprob_row_invariants")  # by key, while _row_invariants builds a table


@contextmanager
def _row_invariants():
    """Share each row invariant (_invariant) across the rows of one table, then drop them."""
    token = _invariants.set({})
    try:
        yield
    finally:
        _invariants.reset(token)


def _invariant(key, build):
    """build(), computed once per key within one table and afresh outside any."""
    store = _invariants.get({})
    if key not in store:
        store[key] = build()
    return store[key]


@dataclass(frozen=True)
class FailureProbResult:
    """Failure bound p_f, its complement p_loc, and the formula used."""

    p_f: float
    p_loc: float
    method: str
    variant: str | None = None


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def _check_ratio(b: float) -> None:
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"coverage ratio b must lie in [0, 1], got {b}")


def _few_anchor_mass(p: int, a: float) -> float:
    """P(at most two anchors among p in-range nodes), each anchor w.p. 1-a.

    This is the bracket of the p-th series term,
    a^p + p a^(p-1) (1-a) + (p(p-1)/2) a^(p-2) (1-a)^2,
    with the 0^0 = 1 convention so that a = 0 keeps its combinatorial
    meaning (certain for p <= 2, impossible otherwise).
    """
    if p <= 2:
        return 1.0
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    one = 1.0 - a
    return a ** (p - 2) * (a * a + p * a * one + 0.5 * p * (p - 1) * one * one)


def failure_prob_sum(net: NetworkParams, b: float) -> FailureProbResult:
    """Failure bound as the full series over the in-range node count.

    Terms are evaluated in the log domain (log-gamma binomial coefficients,
    so n = 3000 is fine where factorials would overflow) and accumulated
    with exact compensated summation.  The weighted sum is normalised by the
    computed total mass of the count distribution -- analytically 1 -- which
    cancels the rounding error the log-gamma evaluations share across terms.
    Terms whose log lies below -800 are skipped: their exp is exactly 0.0,
    which fsum would ignore anyway.  The log-binomials of each n and the
    anchor masses of each (n, a) are row invariants, built once per table.
    """
    _check_ratio(b)
    n, a = net.n, net.a
    b2 = b * b
    if b2 == 0.0:
        p_f = 1.0
    elif b2 >= 1.0:
        p_f = _few_anchor_mass(n - 1, a)
    else:
        log_b2 = math.log(b2)
        log_q = math.log1p(-b2)
        log_c = _invariant(("log_c", n), lambda: [  # log C(n - 1, p) by three log-gammas
            math.lgamma(n) - math.lgamma(p + 1) - math.lgamma(n - p) for p in range(n)])
        masses = _invariant(("mass", n, a), lambda: [_few_anchor_mass(p, a) for p in range(n)])
        exponents = [log_cp + p * log_b2 + (n - 1 - p) * log_q for p, log_cp in enumerate(log_c)]
        kept = [(math.exp(e), mass) for e, mass in zip(exponents, masses) if e >= _LOG_ZERO_TERM]
        p_f = math.fsum(t * m for t, m in kept if m != 0.0) / math.fsum(t for t, _ in kept)
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f, method="sum")


def _bracket(n: int, variant: str, weight: float = 1.0) -> tuple[int, float]:
    """Bracket coefficients (c1, weight * c2) of 1 + c1 s + c2 s^2.

    c1 = n - 3 in both variants; c2 is (n-2)(n-3)/2 ("corrected") or the
    published (n-1)(n-2)/2 ("paper").  The weight is multiplied in first,
    as weight * 0.5 * top * (top - 1), so a caller that scales c2 keeps
    one fixed order of float operations.
    """
    top = n - 2 if variant == "corrected" else n - 1
    return n - 3, weight * 0.5 * top * (top - 1)


def _closed_value(n: int, a: float, b: float, variant: str) -> float:
    s = (1.0 - a) * b * b
    c1, c2 = _bracket(n, variant)
    return (1.0 - s) ** c1 * (1.0 + c1 * s + c2 * s * s)


def failure_prob_closed(
    net: NetworkParams, b: float, variant: str = "corrected"
) -> FailureProbResult:
    """Closed-form failure bound u^(n-3) * [1 + c1 s + c2 s^2], s = (1-a) b^2.

    With variant="corrected" the bracket coefficients are c1 = n-3 and
    c2 = (n-2)(n-3)/2, which reproduces failure_prob_sum identically.  With
    variant="paper" the c2 coefficient is (n-1)(n-2)/2 as originally
    published; that version is inconsistent with the series and can exceed 1
    on valid inputs, so it exists only for regression of the discrepancy.
    """
    _check_ratio(b)
    _check_variant(variant)
    p_f = _closed_value(net.n, net.a, b, variant)
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f, method="closed", variant=variant)


def _small_coverage_load(n: int, a: float, b: float) -> tuple[float, float]:
    """(s, 2/n) with s = (1-a) b^2; the small-coverage form needs s < 2/n."""
    return (1.0 - a) * b * b, 2.0 / n


def failure_prob_approx_small(net: NetworkParams, b: float) -> FailureProbResult:
    """Small-coverage approximation p_f ~= 1 - [(n-3)(1-a) b^2]^2, as published.

    Accepted when s = (1-a) b^2 < 2/n, else ValueError.  It is not the small-s
    expansion of the series, whose p_loc starts at ((n-1) s)^3 / 6: its p_loc is 0.353
    against 0.0228 at n = 300, a = 0.2, b = 0.05, and exceeds 1 where (n-3) s > 1.
    """
    _check_ratio(b)
    s, limit = _small_coverage_load(net.n, net.a, b)
    if s >= limit:
        raise ValueError(
            f"outside validity domain: (1-a) b^2 = {s:.4g} is not small "
            f"against 2/n = {limit:.4g}"
        )
    p_f = 1.0 - ((net.n - 3) * s) ** 2
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f, method="approx_small")


def threshold_a_star(n: int, b: float) -> float | None:
    """Transition threshold on the blind-node fraction, 1 - 1/(b^2 (n/2 - 1)).

    Below the threshold localization succeeds with high probability; above
    it one-shot localization becomes unlikely.  Returns None when the formula
    gives a non-positive value, i.e. no threshold inside (0, 1).
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    if not 0.0 < b <= 1.0:
        raise ValueError(f"coverage ratio b must lie in (0, 1], got {b}")
    load = b * b * (0.5 * n - 1.0)  # a* > 0 exactly when load > 1; b^2 may underflow to 0
    return 1.0 - 1.0 / load if load > 1.0 else None


def threshold_b_star(n: int, a: float, form: str = "exact") -> float | None:
    """Transition threshold on the coverage ratio for a fixed blind fraction.

    form="exact" evaluates the full closed expression; form="large_n" uses
    the simplification b* ~= sqrt((1 + sqrt(1.75)) / ((1-a) n)).  Returns
    None past b = 1, outside the domain (both forms at n = 20, a = 0.9).
    """
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    if not 0.0 <= a < 1.0:
        if a == 1.0:
            raise ValueError("no threshold: no anchor nodes (a = 1)")
        raise ValueError(f"blind fraction a must lie in [0, 1), got {a}")
    if form == "large_n":
        b_star = math.sqrt((1.0 + math.sqrt(1.75)) / ((1.0 - a) * n))
    elif form == "exact":
        lead = 4.0 * n * n - n - 15.0
        cubic = 2.0 * n**3 - 8.0 * n * n + 10.5 * n - 4.5
        inner = 1.0 + math.sqrt(1.0 + 6.0 * (n - 9.0) * cubic / (lead * lead))
        b_star = math.sqrt(lead / (2.0 * (1.0 - a) * cubic) * inner)
    else:
        raise ValueError(f"unknown form {form!r}, expected 'exact' or 'large_n'")
    return b_star if b_star <= 1.0 else None


def iterative_failure_floor(n: int, b: float) -> float:
    """Failure floor under unlimited relabelling of localized nodes.

    Even when every other node serves as an anchor, a node fails whenever
    fewer than three of the n - 1 others fall in coverage; this is the
    binomial(n - 1, b^2) CDF at 2, which the corrected closed form at a = 0
    is exactly.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    _check_ratio(b)
    return _closed_value(n, 0.0, b, "corrected")


def _curvature(g, x: float) -> float:
    """Central second difference (g(x+h) - 2 g(x) + g(x-h)) / h^2 with h = _FD_STEP."""
    return (g(x + _FD_STEP) - 2.0 * g(x) + g(x - _FD_STEP)) / (_FD_STEP * _FD_STEP)


def find_sign_change(f, lo: float, hi: float) -> float:
    """Bisection root of f on [lo, hi] to _ROOT_TOL; ValueError for an empty or one-signed bracket."""
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}")
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _curvature_root(g, lo: float, hi: float) -> float | None:
    """Root of g's central second difference on [lo, hi] clipped _FD_STEP inside (0, 1), or None."""
    lo, hi = max(_FD_STEP, lo), min(1.0 - _FD_STEP, hi)
    try:
        return find_sign_change(lambda x: _curvature(g, x), lo, hi)
    except ValueError:
        return None


def threshold_a_star_numeric(n: int, b: float, variant: str = "corrected") -> float | None:
    """Root of the finite-difference second derivative of p_f in a.

    Independent verification of threshold_a_star: bisects the central
    second difference to _ROOT_TOL within _A_BRACKET of the closed-form
    value.  None when there is no closed-form a* or that bracket holds no
    sign change (n = 52, b = 0.2 gives a* ~ 2e-16; the "paper" root at
    n = 60, b = 0.655 lies far from a*).
    """
    _check_variant(variant)
    a_star = threshold_a_star(n, b)
    if a_star is None:
        return None
    return _curvature_root(lambda x: _closed_value(n, x, b, variant),
                           a_star - _A_BRACKET, a_star + _A_BRACKET)


def threshold_b_star_numeric(n: int, a: float, variant: str = "corrected") -> float | None:
    """Root of the finite-difference second derivative of p_f in b.

    Reported alongside threshold_b_star so their gap can be recorded; the
    closed expression and the numeric root are not asserted equal.  The
    bracket spans 0.5 to 1.8 times the closed-form b*.  None when there is
    no closed-form b* in (0, 1] or the bracket holds no sign change.
    """
    _check_variant(variant)
    center = threshold_b_star(n, a, form="exact")
    if center is None:
        return None
    return _curvature_root(lambda x: _closed_value(n, a, x, variant), 0.5 * center, 1.8 * center)
