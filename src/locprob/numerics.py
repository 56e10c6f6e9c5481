"""Shared numerical kernels.

The Gaussian tail, adaptive quadrature, central finite differences and a
bracketing root search.  Everything here is pure and re-entrant; integrand
callables must be side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its refinement budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and refinement budget for adaptive integration."""

    abs_tol: float = 1e-9
    max_depth: int = 60

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


def normal_lower_tail(z: float) -> float:
    """Standard normal CDF P(Z <= z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integrate f over [lo, hi] with adaptive Simpson refinement.

    Each interval is accepted once the Richardson error estimate
    |S(two halves) - S(whole)| / 15 drops below its share of the absolute
    tolerance; otherwise the interval is bisected, halving the tolerance.
    A NonConvergenceError is raised if spec.max_depth bisections are not
    enough -- a non-converged value is never returned silently.
    """
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _refine(f, lo, flo, hi, fhi, mid, fmid, whole, spec.abs_tol, spec.max_depth)


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


def second_derivative_fd(f: Callable[[float], float], x: float, h: float) -> float:
    """Central second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    if not h > 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def find_sign_change(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Bisection root of f on [lo, hi]; the endpoints must straddle zero."""
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
