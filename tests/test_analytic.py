import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locprob import analytic
from locprob.analytic import (
    VARIANTS,
    _closed_value,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
    iterative_failure_floor,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from locprob.model import NetworkParams, make_network
from oracles import (
    closed_value_reference,
    exact_binomial_cdf,
    failure_series_reference,
    independent_failure_bound,
)

ROOT_HALF = math.sqrt(0.5)


class TestHandAnchors:
    """Four nodes, all anchors, half the disk covered: failure is the chance
    that not all three anchors land inside, 1 - 0.5^3 = 0.875."""

    def test_series(self):
        net = make_network(4, 4)
        assert failure_prob_sum(net, ROOT_HALF).p_f == pytest.approx(0.875, abs=1e-12)

    def test_closed_corrected_matches(self):
        net = make_network(4, 4)
        res = failure_prob_closed(net, ROOT_HALF, "corrected")
        assert res.p_f == pytest.approx(0.875, abs=1e-12)

    def test_closed_published_coefficient_overshoots(self):
        # the as-published bracket gives 0.5 * (1 + 0.5 + 3 * 0.25) = 1.125,
        # above 1: pinned as a regression of the documented inconsistency
        net = make_network(4, 4)
        res = failure_prob_closed(net, ROOT_HALF, "paper")
        assert res.p_f == pytest.approx(1.125, abs=1e-12)


class TestTrivialLimits:
    @pytest.mark.parametrize("n,k", [(4, 2), (50, 10), (300, 150)])
    def test_zero_coverage_always_fails(self, n, k):
        net = make_network(n, k)
        assert failure_prob_sum(net, 0.0).p_f == 1.0
        assert failure_prob_closed(net, 0.0).p_f == 1.0

    @pytest.mark.parametrize("b", [0.0, 0.3, 1.0])
    def test_no_anchors_always_fails(self, b):
        net = make_network(200, 0)
        assert failure_prob_sum(net, b).p_f == 1.0
        assert failure_prob_closed(net, b, "corrected").p_f == 1.0
        assert failure_prob_closed(net, b, "paper").p_f == 1.0

    def test_full_coverage_all_anchors(self):
        net = make_network(10, 10)
        assert failure_prob_sum(net, 1.0).p_f == 0.0
        assert failure_prob_closed(net, 1.0).p_f == pytest.approx(0.0, abs=1e-12)

    def test_rejects_ratio_outside_unit_interval(self):
        net = make_network(10, 5)
        for fn in (failure_prob_sum, failure_prob_closed):
            with pytest.raises(ValueError):
                fn(net, 1.5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            failure_prob_closed(make_network(10, 5), 0.3, "fancy")


class TestSeriesClosedIdentity:
    def test_matches_exact_rational_oracle(self):
        for n, k, b in [(12, 7, 0.4), (40, 10, 0.15), (300, 240, 0.099)]:
            net = make_network(n, k)
            want = float(independent_failure_bound(n, net.a, b))
            assert failure_prob_sum(net, b).p_f == pytest.approx(want, abs=1e-13)
            assert failure_prob_closed(net, b).p_f == pytest.approx(want, abs=1e-13)

    def test_identity_on_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 2001))
            net = make_network(n, int(rng.integers(0, n + 1)))
            b = float(rng.random())
            s = failure_prob_sum(net, b).p_f
            c = failure_prob_closed(net, b).p_f
            assert abs(s - c) <= 1e-12
            assert 0.0 <= s <= 1.0
            assert 0.0 <= c <= 1.0


class TestMonotonicity:
    def test_success_decreases_with_blind_fraction(self):
        values = [
            failure_prob_closed(make_network(300, k), 0.2).p_loc
            for k in range(300, -1, -20)
        ]
        assert all(hi >= lo for hi, lo in zip(values, values[1:]))

    def test_success_increases_with_coverage(self):
        net = make_network(300, 150)
        values = [failure_prob_closed(net, i / 50.0).p_loc for i in range(51)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))


class TestDerivativeIdentity:
    @pytest.mark.parametrize("n,a,b", [(300, 0.5, 0.12), (50, 0.3, 0.2), (120, 0.7, 0.15)])
    def test_first_derivative_operator_form(self, n, a, b):
        # d p_f / d a equals ((1-a)^2 / 2) F''' for F = (b^2 a + 1 - b^2)^(n-1);
        # evaluated on the continuous blind fraction, so bypass the integer
        # anchor-count constructor
        from locprob.analytic import _closed_value

        h = 1e-5
        fd = (
            _closed_value(n, a + h, b, "corrected") - _closed_value(n, a - h, b, "corrected")
        ) / (2.0 * h)
        u = b * b * a + 1.0 - b * b
        triple = (n - 1) * (n - 2) * (n - 3) * b**6 * u ** (n - 4)
        want = 0.5 * (1.0 - a) ** 2 * triple
        assert fd == pytest.approx(want, rel=1e-6)


class TestApproxSmall:
    def test_exact_at_zero_coverage(self):
        assert failure_prob_approx_small(make_network(300, 3), 0.0).p_f == 1.0

    def test_reference_point(self):
        net = make_network(300, 3)  # a = 0.99
        res = failure_prob_approx_small(net, 0.05)
        assert res.p_f == pytest.approx(1.0 - (297 * 0.01 * 0.0025) ** 2, rel=1e-12)
        assert abs(res.p_f - failure_prob_sum(net, 0.05).p_f) < 1e-4

    def test_outside_validity_domain(self):
        net = make_network(300, 240)
        with pytest.raises(ValueError, match="outside validity domain"):
            failure_prob_approx_small(net, 0.5)

    def test_gap_to_the_series_is_recorded(self):
        # 1 - ((n-3) s)^2 is not the series' small-s expansion, whose p_loc starts at
        # ((n-1) s)^3 / 6; the gap is recorded here, equality deliberately not asserted
        net = make_network(300, 240)  # a = 0.2
        assert failure_prob_approx_small(net, 0.05).p_loc == pytest.approx(0.352836, rel=1e-12)
        assert failure_prob_sum(net, 0.05).p_loc == pytest.approx(0.0227802, rel=1e-5)
        s = 0.8 * 0.001**2
        assert failure_prob_sum(net, 0.001).p_loc == pytest.approx((299 * s) ** 3 / 6, rel=1e-3)
        # still inside the accepted domain, (1-a) b^2 < 2/n, p_loc passes 1 once (n-3) s > 1
        assert 0.8 * 0.07**2 < 2 / 300 and failure_prob_approx_small(net, 0.07).p_loc > 1.0


class TestThresholdOnBlindFraction:
    def test_reference_value(self):
        assert threshold_a_star(300, 0.15) == pytest.approx(0.7017151379567488, abs=1e-12)

    def test_none_when_formula_not_positive(self):
        assert threshold_a_star(300, 0.05) is None

    def test_barely_positive_is_returned(self):
        assert threshold_a_star(300, 0.12) == pytest.approx(1.0 - 1.0 / (0.0144 * 149.0))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            threshold_a_star(4, 0.3)
        with pytest.raises(ValueError):
            threshold_a_star(300, 0.0)

    @pytest.mark.parametrize("b", [0.1, 0.15, 0.2])
    def test_numeric_root_confirms_closed_form(self, b):
        a_star = threshold_a_star(300, b)
        root = threshold_a_star_numeric(300, b)
        assert abs(root - a_star) <= 1e-3

    def test_numeric_root_rejects_missing_threshold(self):
        assert threshold_a_star_numeric(300, 0.05) is None

    @pytest.mark.parametrize("n, b, variant", [(52, 0.2, "corrected"), (60, 0.655, "paper")])
    def test_numeric_root_outside_the_bracket_is_none(self, n, b, variant):
        # a* ~ 2e-16 at the domain's edge; the paper variant's root far from a* ~ 0.92
        assert threshold_a_star(n, b) is not None
        assert threshold_a_star_numeric(n, b, variant) is None


class TestThresholdOnCoverage:
    def test_large_n_reference_value(self):
        got = threshold_b_star(300, 0.5, form="large_n")
        assert got == pytest.approx(0.12444210583057744, abs=1e-12)
        assert got == pytest.approx(0.12444, abs=1e-4)

    def test_exact_reference_value(self):
        assert threshold_b_star(300, 0.5, form="exact") == pytest.approx(
            0.12490499272274276, abs=1e-12
        )

    def test_forms_converge_for_large_n(self):
        gaps = []
        for n in (300, 1000, 10_000):
            exact = threshold_b_star(n, 0.5, form="exact")
            approx = threshold_b_star(n, 0.5, form="large_n")
            gaps.append(abs(exact - approx) / exact)
        assert gaps[-1] < 0.02
        assert gaps[0] > gaps[1] > gaps[2]

    def test_no_anchor_error(self):
        with pytest.raises(ValueError, match="no threshold"):
            threshold_b_star(300, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            threshold_b_star(9, 0.5)
        with pytest.raises(ValueError):
            threshold_b_star(300, 0.5, form="other")

    def test_numeric_root_is_reported_with_finite_gap(self):
        exact = threshold_b_star(300, 0.5, form="exact")
        root = threshold_b_star_numeric(300, 0.5)
        assert math.isfinite(root)
        # the numeric root and the closed expression are close but not
        # asserted equal; record-keeping only
        assert abs(exact - root) < 0.05

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_numeric_root_past_the_domain_is_none(self, variant):
        # both closed forms give b* past b = 1 here (exact 1.14, large_n 1.08)
        assert threshold_b_star(20, 0.9) is None
        assert threshold_b_star(20, 0.9, form="large_n") is None
        assert threshold_b_star_numeric(20, 0.9, variant) is None

    def test_missing_sign_change_in_an_unclipped_bracket_is_none(self, monkeypatch):
        # 1.8 b* = 0.22 lies inside the domain, so only a flat curvature reaches this case
        monkeypatch.setattr(analytic, "_curvature", lambda g, x: 1.0)
        assert threshold_b_star_numeric(300, 0.5) is None


class TestIterativeFloor:
    def test_zero_coverage(self):
        assert iterative_failure_floor(300, 0.0) == 1.0

    def test_full_coverage(self):
        assert iterative_failure_floor(10, 1.0) == 0.0

    def test_hand_enumeration(self):
        # binomial(3, 1/2) CDF at 2 = (1 + 3 + 3) / 8
        assert iterative_failure_floor(4, ROOT_HALF) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("n,b", [(12, 0.3), (25, 0.55), (30, 0.1)])
    def test_exact_rational_oracle(self, n, b):
        want = float(exact_binomial_cdf(2, n - 1, b * b))
        assert iterative_failure_floor(n, b) == pytest.approx(want, rel=1e-12)

    def test_is_the_corrected_closed_form_at_no_blind_nodes(self):
        assert iterative_failure_floor(300, 0.15) == _closed_value(300, 0.0, 0.15, "corrected")

    def test_floor_dominated_by_failure_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(4, 1500))
            net = make_network(n, int(rng.integers(0, n + 1)))
            b = float(rng.random())
            assert failure_prob_sum(net, b).p_f >= iterative_failure_floor(n, b) - 1e-12


def test_second_difference_sign_flips_at_threshold():
    # the closed-form curvature in a changes sign across the threshold
    from locprob.analytic import _closed_value

    n, b = 300, 0.15
    a_star = threshold_a_star(n, b)
    g = lambda a: analytic._curvature(lambda t: _closed_value(n, t, b, "corrected"), a)
    assert g(a_star - 0.05) * g(a_star + 0.05) < 0.0


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(10, 3000),
    a=st.floats(0.0, 1.0, exclude_max=True),
    b=st.floats(0.0, 1.0, exclude_min=True),
    variant=st.sampled_from(VARIANTS),
)
@example(n=20, a=0.9, b=0.5, variant="corrected")
@example(n=52, b=0.2, a=0.0, variant="corrected")
@example(n=60, b=0.655, a=0.0, variant="paper")
def test_every_threshold_lies_in_the_domain_or_is_none(n, a, b, variant):
    values = [threshold_a_star(n, b), threshold_b_star(n, a, form="exact"),
              threshold_b_star(n, a, form="large_n"), threshold_a_star_numeric(n, b, variant),
              threshold_b_star_numeric(n, a, variant)]
    assert all(v is None or 0.0 < v <= 1.0 for v in values), values


_blind_fractions = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(1e-300, 1e-6)
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from([4, 5, 20, 3000, 5000]), st.integers(4, 600)),
    a=_blind_fractions,
    b=st.one_of(
        st.floats(0.0, 1.0),
        # b^2 at and below exp's underflow: the leading terms' logs sit near -745
        st.floats(-1600.0, -600.0).map(lambda u: math.exp(0.5 * u)),
        # b^2 just below 1: the tail terms carry the large (n-1-p) log(1-b^2)
        st.floats(0.0, 0.2).map(lambda t: math.sqrt(1.0 - t)),
    ),
)
@example(n=3000, a=0.2, b=0.5)
@example(n=5000, a=1e-9, b=math.exp(-372.0))
def test_failure_prob_sum_matches_every_term_series(n, a, b):
    # skipping terms whose log lies below -800 drops only exact zeros
    assume(0.0 < b * b < 1.0)
    net = NetworkParams(n=n, k=round(n * (1.0 - a)), a=a)
    assert failure_prob_sum(net, b).p_f == failure_series_reference(n, a, b)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@example(data=None)
def test_rows_sharing_a_table_equal_standalone_calls(data):
    # one table computes each n's log-binomials and each (n, a)'s anchor masses
    # once; a row must not depend on which rows built them, in any order
    if data is None:  # the benchmark's n = 3000 rows, between rows of a smaller n
        rows = [(n, a, b) for n in (300, 3000) for a in (0.2, 0.5, 0.8) for b in (0.03, 0.3, 0.999)]
        order = list(range(0, len(rows), 2)) + list(range(1, len(rows), 2))
    else:
        sizes = data.draw(st.lists(st.integers(4, 3000), min_size=2, max_size=2, unique=True))
        ratios = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-160]), st.floats(0.0, 1.0))
        rows = data.draw(st.lists(st.tuples(st.sampled_from(sizes), st.sampled_from([0.0, 0.5, 1.0]),
                                            ratios), min_size=2, max_size=6))
        order = data.draw(st.permutations(range(len(rows))))
    nets = [NetworkParams(n=n, k=round(n * (1.0 - a)), a=a) for n, a, _ in rows]
    standalone = [failure_prob_sum(net, b) for net, (_, _, b) in zip(nets, rows)]
    with analytic._row_invariants():
        shared = {i: failure_prob_sum(nets[i], rows[i][2]) for i in order}
    assert [shared[i] for i in range(len(rows))] == standalone


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(4, 10**6),
    a=_blind_fractions,
    b=st.floats(0.0, 1.0),
    variant=st.sampled_from(VARIANTS),
)
def test_closed_value_matches_inline_coefficients(n, a, b, variant):
    assert _closed_value(n, a, b, variant) == closed_value_reference(n, a, b, variant)
