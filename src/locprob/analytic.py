"""Failure-probability lower bounds and transition thresholds, fixed coverage.

A blind node localizes itself when at least three anchor nodes fall inside
its coverage disk.  With n nodes uniform on the domain disk, anchor fraction
1 - a and coverage-to-domain ratio b, the chance that any given node is both
in range and an anchor is (1 - a) * b^2, so the failure bound is the
probability that a binomial(n - 1, (1 - a) b^2) count stays below three.
The module evaluates that bound three ways (term-by-term series, closed
form, small-coverage approximation) plus the transition thresholds where the
bound's second derivative vanishes.  The closed form is the series exactly; the
published coefficient that breaks this identity is a test erratum (tests/oracles.py).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .model import NetworkParams

# exp() of anything below about -745.13 is exactly 0.0; the margin absorbs
# the rounding of a series term's log, so only exact zeros are skipped.
_LOG_ZERO_TERM = -800.0
_LOG_STOP_TERM = -900.0  # the series scan's stop: 100 under the cut, far past any rounding
_SUM_MAX_TERMS = 250_000  # the most terms one `sum` row evaluates: about 0.5 s and 60 MB
_SUM_MAX_LOG_ROUNDING = 1e-5  # the most a `sum` term's log may round: n up to about 4.07e9

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
    """Failure bound p_f and its complement p_loc."""

    p_f: float
    p_loc: float


def _check_ratio(b: float) -> None:
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"coverage ratio b must lie in [0, 1], got {b}")


def _few_anchor_mass(p: int, a: float) -> float:
    """P(at most two anchors among p in-range nodes), each anchor w.p. 1-a.

    This is the bracket of the p-th series term,
    a^p + p a^(p-1) (1-a) + (p(p-1)/2) a^(p-2) (1-a)^2,
    with the 0^0 = 1 convention so that a = 0 keeps its combinatorial
    meaning (certain for p <= 2, impossible otherwise); for p >= 3 the
    formula gives exactly 0.0 at a = 0 and exactly 1.0 at a = 1.
    """
    if p <= 2:
        return 1.0
    one = 1.0 - a
    return a ** (p - 2) * (a * a + p * a * one + 0.5 * p * (p - 1) * one * one)


def _sum_domain(n: int, b: float) -> str | None:
    """Why failure_prob_sum refuses (n, b), or None: a term's log may round (about n ln n 2^-53)
    by over _SUM_MAX_LOG_ROUNDING, which keeps p_f within about 2e-5 relative, or its scan may pass
    _SUM_MAX_TERMS terms: by Bernstein, each term of Bin(n-1, b^2) whose log tops -1000 (the -900 stop
    less rounding) lies within 1000/3 + sqrt(1000^2/9 + 2000 (n-1) b^2 (1-b^2)) of the mean.
    """
    if (rounding := n * math.log(n) * 2.0**-53) > _SUM_MAX_LOG_ROUNDING:
        return f"sum's log-binomials may round by {rounding:.2g}, over its tolerance {_SUM_MAX_LOG_ROUNDING}"
    terms = 2 * math.ceil(1000 / 3 + math.sqrt(1e6 / 9 + 2000 * (n - 1) * b * b * (1 - b * b))) + 3
    return f"sum may need {terms} terms, over its budget {_SUM_MAX_TERMS}" if terms > _SUM_MAX_TERMS else None


def failure_prob_sum(net: NetworkParams, b: float) -> FailureProbResult:
    """Failure bound as the series over the in-range node count.

    Terms are evaluated in the log domain (log-gamma binomial coefficients), summed
    exactly (fsum) and normalised by the computed total mass -- analytically 1 --
    which cancels the rounding the log-gammas share.  The scan runs up from the mode
    of Bin(n-1, b^2), then down, each side to its first term whose log is below -900,
    and skips those below -800 (exp 0.0): the full series bit for bit, in about
    85 sqrt(n b^2 (1-b^2)) terms; ValueError where _sum_domain refuses.  A table
    shares each n's log-binomials and each a's masses by p, for n up to _SUM_MAX_TERMS.
    """
    _check_ratio(b)
    n, a = net.n, net.a
    if reason := _sum_domain(n, b):
        raise ValueError(f"outside validity domain: {reason}")
    b2 = b * b
    if b2 == 0.0:
        p_f = 1.0
    elif b2 >= 1.0:
        p_f = _few_anchor_mass(n - 1, a)
    else:
        log_b2, log_q = math.log(b2), math.log1p(-b2)
        log_c = _invariant(("log_c", n), dict) if n <= _SUM_MAX_TERMS else {}  # log C(n-1, p)
        masses = _invariant(("mass", a), dict) if n <= _SUM_MAX_TERMS else {}  # _few_anchor_mass
        exp, lgamma = math.exp, math.lgamma
        terms, weighted, mode = [], [], min(n - 1, math.floor(n * b2))  # terms, and those times their masses
        for side in (range(mode, n), range(mode - 1, -1, -1)):
            for p in side:
                if (log_cp := log_c.get(p)) is None:
                    log_cp = log_c[p] = lgamma(n) - lgamma(p + 1) - lgamma(n - p)
                e = log_cp + p * log_b2 + (n - 1 - p) * log_q
                if e < _LOG_STOP_TERM:
                    break
                if e >= _LOG_ZERO_TERM:
                    if (mass := masses.get(p)) is None:
                        mass = masses[p] = _few_anchor_mass(p, a)
                    terms.append(term := exp(e))
                    if mass != 0.0:
                        weighted.append(term * mass)
        p_f = math.fsum(weighted) / math.fsum(terms)
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f)


def _bracket(n: int) -> tuple[int, float]:
    """Bracket coefficients (c1, c2) of 1 + c1 s + c2 s^2: c1 = n - 3, c2 = (n-2)(n-3)/2."""
    return n - 3, 0.5 * (n - 2) * (n - 3)


def _closed_value(n: int, a: float, b: float) -> float:
    s = (1.0 - a) * b * b
    c1, c2 = _bracket(n)
    return (1.0 - s) ** c1 * (1.0 + c1 * s + c2 * s * s)


def failure_prob_closed(net: NetworkParams, b: float) -> FailureProbResult:
    """Closed-form failure bound u^(n-3) * [1 + c1 s + c2 s^2], s = (1-a) b^2, u = 1 - s.

    The bracket coefficients c1 = n-3 and c2 = (n-2)(n-3)/2 make it exactly
    P(Bin(n-1, s) <= 2), so it reproduces failure_prob_sum.  The published c2,
    (n-1)(n-2)/2, breaks that identity and can exceed 1; it is kept only as a
    test erratum (tests/oracles.py).
    """
    _check_ratio(b)
    p_f = _closed_value(net.n, net.a, b)
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f)


def _approx_small_domain(n: int, a: float, b: float) -> str | None:
    """Why the small-coverage form does not hold at (n, a, b), or None where it does.

    It needs s = (1-a) b^2 < 2/n, and (n-3) s <= 1 so that its p_loc stays in [0, 1].
    """
    s = (1.0 - a) * b * b
    if s >= 2.0 / n:
        return f"approx_small needs (1-a) b^2 < 2/n, got {s:.4g} >= {2.0 / n:.4g}"
    if ((n - 3) * s) ** 2 > 1.0:
        return f"approx_small needs (n-3) (1-a) b^2 <= 1, got {(n - 3) * s:.4g}"
    return None


def failure_prob_approx_small(net: NetworkParams, b: float) -> FailureProbResult:
    """Small-coverage approximation p_f ~= 1 - [(n-3)(1-a) b^2]^2, as published.

    Accepted inside _approx_small_domain, else ValueError.  It is not the small-s
    expansion of the series, whose p_loc starts at ((n-1) s)^3 / 6: its p_loc is 0.353
    against 0.0228 at n = 300, a = 0.2, b = 0.05.
    """
    _check_ratio(b)
    if reason := _approx_small_domain(net.n, net.a, b):
        raise ValueError(f"outside validity domain: {reason}")
    p_f = 1.0 - ((net.n - 3) * ((1.0 - net.a) * b * b)) ** 2
    return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f)


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


def _curvature(g, x: float) -> float:
    """Central second difference (g(x+h) - 2 g(x) + g(x-h)) / h^2 with h = _FD_STEP."""
    return (g(x + _FD_STEP) - 2.0 * g(x) + g(x - _FD_STEP)) / (_FD_STEP * _FD_STEP)


def find_sign_change(f, lo: float, hi: float) -> float:
    """Bisection root of f on [lo, hi] to _ROOT_TOL; ValueError unless f(lo), f(hi) differ in sign."""
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
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


def threshold_a_star_numeric(n: int, b: float) -> float | None:
    """Root of the finite-difference second derivative of p_f in a.

    Independent verification of threshold_a_star: bisects the central
    second difference to _ROOT_TOL within _A_BRACKET of the closed-form
    value.  None when there is no closed-form a* or that bracket holds no
    sign change (n = 52, b = 0.2 gives a* ~ 2e-16).
    """
    a_star = threshold_a_star(n, b)
    if a_star is None:
        return None
    return _curvature_root(lambda x: _closed_value(n, x, b), a_star - _A_BRACKET, a_star + _A_BRACKET)


def threshold_b_star_numeric(n: int, a: float) -> float | None:
    """Root of the finite-difference second derivative of p_f in b.

    Reported alongside threshold_b_star so their gap can be recorded; the
    closed expression and the numeric root are not asserted equal.  The
    bracket spans 0.5 to 1.8 times the closed-form b*.  None when there is
    no closed-form b* in (0, 1] or the bracket holds no sign change.
    """
    center = threshold_b_star(n, a, form="exact")
    if center is None:
        return None
    return _curvature_root(lambda x: _closed_value(n, a, x), 0.5 * center, 1.8 * center)
