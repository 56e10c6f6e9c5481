"""The reference job: a fixed slice of work timed alongside the workload.

On a shared host the speed of a vCPU drifts by a quarter or more over
minutes, as other tenants come and go, and that drift moves every pass of a
run alike.  child.py therefore runs reference slices before each CLI
invocation and after the last, in the same process, and run.py reports a
pass's time as a multiple of the mean slice time of that pass.  Drift slows
both and cancels in the ratio; a change to the package moves only the pass.
The slices import nothing from locprob, so no change to the package can
move them.

Drift does not slow every kind of work alike: interpreted scalar Python
slowed about twice as much as dense numpy in the same stretch of time.  So
a slice does the kind of work its workload does, chosen in workloads.py:

- "scalar": adaptive Simpson quadrature over math-library calls, then
  CSV-style row formatting, like the analytic and shadowing layers and the
  CLI;
- "numpy": a points x anchors squared-distance block and a neighbour count,
  like the Monte Carlo field kernel;
- "mixed": one of each.

Each part takes about 10 ms on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import math

import numpy as np


def _lattice(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points in the unit square: a Kronecker lattice, so that
    numpy.random, which locprob may never import, stays unloaded."""
    i = np.arange(1, count + 1)
    return np.modf(i * alpha)[0], np.modf(i * beta)[0]


_PX, _PY = _lattice(2400, 0.6180339887, 0.7548776662)
_AX, _AY = _lattice(400, 0.5698402910, 0.3247179572)


def _integrand(x: float) -> float:
    return math.exp(-0.5 * x * x) * math.erfc(x / 3.0) + 1e-3 * math.log1p(x * x)


def _simpson(f, lo, flo, hi, fhi, mid, fmid, whole, tol, depth):
    lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
    flm, frm = f(lm), f(rm)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, lo, flo, mid, fmid, lm, flm, left, tol / 2, depth - 1)
            + _simpson(f, mid, fmid, hi, fhi, rm, frm, right, tol / 2, depth - 1))


def _scalar_part() -> float:
    total = 0.0
    for k in range(15):
        lo, hi = -4.0 - 0.1 * k, 4.0 + 0.1 * k
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = _integrand(lo), _integrand(mid), _integrand(hi)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        total += _simpson(_integrand, lo, flo, hi, fhi, mid, fmid, whole, 1e-9, 40)
    rows = [f"{i},{total * i:.12g}" for i in range(3000)]
    return total + len("\n".join(rows))


def _numpy_part() -> int:
    # in blocks of 600 points, so that a slice adds about 6 MB to peak memory
    most = 0
    for lo in range(0, len(_PX), 600):
        d2 = (_PX[lo:lo + 600, None] - _AX) ** 2 + (_PY[lo:lo + 600, None] - _AY) ** 2
        most = max(most, int((d2 < 0.01).sum(axis=1).max()))
    return most


PARTS = {"scalar": (_scalar_part,), "numpy": (_numpy_part,), "mixed": (_scalar_part, _numpy_part)}


def reference_slice(kind: str) -> None:
    """One slice of the reference job of this kind (a key of PARTS)."""
    for part in PARTS[kind]:
        part()
