"""The numerical kernels, each tested from the module that owns it.

The Gaussian tail lives in model, the adaptive quadrature in shadowing, and
the curvature and root search of the threshold checks in analytic.
log_binomial is the test oracles' own kernel.
"""

import math

import numpy as np
import pytest
from oracles import log_binomial

from locprob.analytic import _ROOT_TOL, _curvature, find_sign_change
from locprob.model import normal_lower_tail
from locprob.shadowing import NonConvergenceError, integrate


class TestLogBinomial:
    def test_small_values(self):
        assert log_binomial(3, 2) == pytest.approx(math.log(3), abs=1e-14)
        assert log_binomial(7, 0) == pytest.approx(0.0, abs=1e-14)
        assert log_binomial(7, 7) == pytest.approx(0.0, abs=1e-14)

    def test_against_exact_integer_oracle(self):
        exact = math.log(math.comb(100, 50))
        assert log_binomial(100, 50) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(10, 3), (200, 77), (1000, 500), (10_000, 123)])
    def test_exact_for_large_n(self, n, k):
        assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)), rel=1e-12)

    @pytest.mark.parametrize("n,k", [(100, 13), (500, 250), (1000, 999)])
    def test_pascal_rule_in_log_space(self, n, k):
        lhs = log_binomial(n, k)
        a = log_binomial(n - 1, k - 1)
        b = log_binomial(n - 1, k)
        # log(e^a + e^b), anchored at the larger exponent
        m = max(a, b)
        rhs = m + math.log(math.exp(a - m) + math.exp(b - m))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("n,k", [(3, 4), (-1, 0), (5, -2)])
    def test_rejects_bad_arguments(self, n, k):
        with pytest.raises(ValueError):
            log_binomial(n, k)


class TestNormalLowerTail:
    def test_symmetry_point(self):
        assert normal_lower_tail(0.0) == 0.5

    def test_limits(self):
        assert normal_lower_tail(math.inf) == 1.0
        assert normal_lower_tail(-math.inf) == 0.0
        assert normal_lower_tail(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_against_quadrature_of_density(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        expected = 0.5 + integrate(density, 0.0, 1.0, 1e-12)
        assert normal_lower_tail(1.0) == pytest.approx(expected, abs=1e-10)


class TestIntegrate:
    def test_polynomial_exactness(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, 1e-9) == pytest.approx(1 / 3, abs=1e-12)

    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-15)

    def test_additivity(self):
        f = lambda x: math.exp(-x * x)
        tol = 1e-10
        whole = integrate(f, 0.0, 1.3, tol)
        split = integrate(f, 0.0, 0.7, tol) + integrate(f, 0.7, 1.3, tol)
        assert abs(whole - split) <= 2.0 * tol

    def test_oscillatory(self):
        got = integrate(lambda x: math.sin(10.0 * x), 0.0, math.pi, 1e-11)
        assert got == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-10)

    def test_reports_non_convergence(self):
        # a nan residual never passes the error test, so refinement hits the depth limit
        with pytest.raises(NonConvergenceError, match="residual nan"):
            integrate(lambda x: math.nan, 0.0, 1.0, 1e-12)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0, 1e-9)


class TestFiniteDifferences:
    def test_parabola_curvature(self):
        got = _curvature(lambda x: x * x, 0.7)
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_cubic_inflection_found(self):
        curvature = lambda x: _curvature(lambda t: t**3, x)
        root = find_sign_change(curvature, -1.0, 1.0)
        assert root == pytest.approx(0.0, abs=1e-8)

    def test_root_of_shifted_line(self):
        root = find_sign_change(lambda x: x - 0.3, 0.0, 1.0)
        assert root == pytest.approx(0.3, abs=0.5 * _ROOT_TOL)

    def test_no_sign_change_is_an_error(self):
        with pytest.raises(ValueError, match="no sign change"):
            find_sign_change(lambda x: 1.0 + x * x, -1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)], ids=["zero_at_lo", "zero_at_hi"])
    def test_exact_zero_at_an_end_is_no_sign_change(self, lo, hi):
        # an underflowed curvature reads exactly 0.0; the bracket end is not returned as a root
        with pytest.raises(ValueError, match="no sign change"):
            find_sign_change(lambda x: x, lo, hi)


def test_quadrature_matches_gaussian_tail_difference():
    # cross-kernel consistency: integrating the density between two points
    # reproduces the CDF difference well inside the quadrature tolerance
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    got = integrate(density, -1.5, 2.25, 1e-12)
    want = normal_lower_tail(2.25) - normal_lower_tail(-1.5)
    assert got == pytest.approx(want, abs=1e-11)


def test_integrate_handles_numpy_float_bounds():
    got = integrate(lambda x: x, np.float64(0.0), np.float64(2.0), 1e-9)
    assert got == pytest.approx(2.0, abs=1e-12)
