import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locprob import analytic, shadowing
from locprob.analytic import VARIANTS, failure_prob_closed
from locprob.cli import main
from locprob.model import NetworkParams, bhat_distribution, make_network, make_shadow_model
from locprob.shadowing import (
    _lognormal_moment,
    _series,
    bhat_moment,
    bhat_pdf,
    failure_prob_shadow,
    integrate,
)
from oracles import (
    alternating_series_reference,
    moment_reference,
    pdf_reference,
    sample_truncated_ratio,
    shadow_failure_reference,
)


@pytest.fixture(scope="module")
def field_model():
    """The reference propagation scenario: sigma1 = 3.43 dB, b_hat_max = 0.483."""
    return make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)


class TestPdf:
    def test_zero_beyond_truncation(self, field_model):
        dist = bhat_distribution(0.2, field_model.sigma1, field_model.b_hat_max)
        assert bhat_pdf(dist, field_model.b_hat_max * 1.0001) == 0.0
        assert bhat_pdf(dist, 0.9) == 0.0

    def test_zero_at_origin(self, field_model):
        dist = bhat_distribution(0.2, field_model.sigma1, field_model.b_hat_max)
        assert bhat_pdf(dist, 0.0) == 0.0

    def test_rejects_negative_argument(self, field_model):
        dist = bhat_distribution(0.2, field_model.sigma1, field_model.b_hat_max)
        with pytest.raises(ValueError):
            bhat_pdf(dist, -0.1)

    def test_degenerate_has_no_density(self):
        dist = bhat_distribution(0.2, 0.0, 0.48)
        with pytest.raises(ValueError, match="degenerate"):
            bhat_pdf(dist, 0.2)

    @pytest.mark.parametrize("b_o,sigma1", [(0.2, 3.43), (0.05, 1.0), (0.4, 5.5)])
    def test_total_probability(self, b_o, sigma1):
        dist = bhat_distribution(b_o, sigma1, 0.48)
        mass = integrate(lambda x: bhat_pdf(dist, x), 1e-12 * b_o, 0.48, 1e-11)
        assert dist.zero_mass + mass == pytest.approx(1.0, abs=1e-9)

    def test_median_of_untruncated_ratio(self):
        # with the truncation point far above b_o, half the continuous mass
        # lies at or below b_o (the decibel perturbation is symmetric)
        dist = bhat_distribution(1e-3, 2.0, 0.99)
        below = integrate(lambda x: bhat_pdf(dist, x), 1e-15, 1e-3, 1e-11)
        assert below == pytest.approx(0.5, abs=1e-6)


class TestMoments:
    def test_order_zero_is_total_mass(self, field_model):
        dist = bhat_distribution(0.3, field_model.sigma1, field_model.b_hat_max)
        assert bhat_moment(dist, 0) == 1.0
        assert _lognormal_moment(dist, 0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("order", [1, 3, -2])
    def test_rejects_odd_or_negative_orders(self, order, field_model):
        dist = bhat_distribution(0.3, field_model.sigma1, field_model.b_hat_max)
        with pytest.raises(ValueError, match="even"):
            bhat_moment(dist, order)

    def test_narrow_fading_collapses_to_power(self):
        dist = bhat_distribution(0.2, 1e-4, 0.48)
        for order in (2, 4):
            assert bhat_moment(dist, order) == pytest.approx(0.2**order, rel=1e-6)
            assert _lognormal_moment(dist, order) == pytest.approx(0.2**order, rel=1e-6)

    def test_degenerate_moments(self):
        inside = bhat_distribution(0.2, 0.0, 0.48)
        assert bhat_moment(inside, 2) == pytest.approx(0.04, rel=1e-15)
        outside = bhat_distribution(0.9, 0.0, 0.48)
        assert bhat_moment(outside, 2) == 0.0
        assert bhat_moment(outside, 0) == 1.0

    def test_quadrature_against_closed_form_when_truncation_negligible(self, field_model):
        # small b_o and moderate fading: the tail beyond the truncation point
        # carries no second-moment mass, so the full log-normal moment applies
        # (at sigma1 = 3.43 that tail holds ~10% of the moment, see the
        # truncation test below)
        dist = bhat_distribution(0.05, 2.0, field_model.b_hat_max)
        quad = bhat_moment(dist, 2)
        closed = _lognormal_moment(dist, 2)
        assert abs(quad - closed) / closed < 0.01

    def test_quadrature_against_sampling_oracle(self, field_model):
        dist = bhat_distribution(0.1, field_model.sigma1, field_model.b_hat_max)
        rng = np.random.default_rng(5)
        draws = sample_truncated_ratio(
            rng, 1_000_000, 0.1, field_model.sigma1, field_model.b_hat_max
        )
        sample_moment = float((draws**2).mean())
        se = float((draws**2).std(ddof=1)) / math.sqrt(draws.size)
        assert abs(bhat_moment(dist, 2) - sample_moment) < 4.0 * se

    def test_truncation_only_reduces_moments(self, field_model):
        dist = bhat_distribution(0.3, field_model.sigma1, field_model.b_hat_max)
        assert bhat_moment(dist, 2) < _lognormal_moment(dist, 2)


class TestFailureProbShadow:
    def test_collapses_without_fading(self, field_model):
        net = make_network(50, 10)
        dist = bhat_distribution(0.2, 0.01 / 3.5, field_model.b_hat_max)
        got = failure_prob_shadow(net, dist).p_f
        want = failure_prob_closed(net, 0.2).p_f
        assert abs(got - want) < 1e-3

    @pytest.mark.parametrize("sigma1", [3.43, 12.0, 20.0, 40.0])
    def test_no_anchors_fail_with_certainty(self, sigma1):
        # with k = 0 every ratio fails, so the whole mass must count, including
        # the log-normal tail below the integration cutoff
        net = make_network(50, 0)
        for b_o in (0.01, 0.2, 0.9):
            p_f = failure_prob_shadow(net, bhat_distribution(b_o, sigma1, 0.483)).p_f
            assert abs(p_f - 1.0) < 1e-9

    def test_degenerate_equals_fixed_coverage(self, field_model):
        net = make_network(50, 10)
        dist = bhat_distribution(0.2, 0.0, field_model.b_hat_max)
        assert failure_prob_shadow(net, dist).p_f == failure_prob_closed(net, 0.2).p_f
        lost = bhat_distribution(0.9, 0.0, field_model.b_hat_max)
        assert failure_prob_shadow(net, lost).p_f == 1.0

    def test_mostly_unmeasurable_coverage_fails(self, field_model):
        net = make_network(50, 10)
        dist = bhat_distribution(5.0 * field_model.b_hat_max, 1.0, field_model.b_hat_max)
        assert dist.zero_mass > 0.999
        assert failure_prob_shadow(net, dist).p_f > 0.999

    def test_series_form_agrees_with_integral(self, field_model):
        net = make_network(8, 4)
        dist = bhat_distribution(0.1, 1.0, field_model.b_hat_max)
        integral = failure_prob_shadow(net, dist, "integrate_conditional").p_f
        series = failure_prob_shadow(net, dist, "alternating_sum").p_f
        assert abs(integral - series) < 1e-6

    def test_moment_form_in_its_validity_range(self, field_model):
        net = make_network(8, 4)
        dist = bhat_distribution(0.1, 1.0, field_model.b_hat_max)
        integral = failure_prob_shadow(net, dist, "integrate_conditional").p_f
        approx = failure_prob_shadow(net, dist, "moment_approx").p_f
        assert abs(approx - integral) / integral < 0.05

    def test_series_restricted_to_small_networks(self, field_model):
        dist = bhat_distribution(0.1, 1.0, field_model.b_hat_max)
        with pytest.raises(ValueError, match="integrate_conditional"):
            failure_prob_shadow(make_network(31, 10), dist, "alternating_sum")

    def test_moment_form_restricted(self, field_model):
        dist = bhat_distribution(0.1, 1.0, field_model.b_hat_max)
        with pytest.raises(ValueError, match="validity"):
            failure_prob_shadow(make_network(11, 5), dist, "moment_approx")

    def test_rejects_unknown_method(self, field_model):
        dist = bhat_distribution(0.1, 1.0, field_model.b_hat_max)
        with pytest.raises(ValueError, match="method"):
            failure_prob_shadow(make_network(8, 4), dist, "bogus")

    def test_mixture_bounds(self, field_model):
        net = make_network(50, 10)
        for b_o in (0.05, 0.2, 0.4):
            dist = bhat_distribution(b_o, field_model.sigma1, field_model.b_hat_max)
            p_f = failure_prob_shadow(net, dist).p_f
            floor = dist.zero_mass + (1.0 - dist.zero_mass) * failure_prob_closed(
                net, dist.b_hat_max
            ).p_f
            assert floor - 1e-9 <= p_f <= 1.0 + 1e-9

    def test_raising_detection_threshold_never_helps(self, field_model):
        # shrinking the measurable range (larger zero mass) cannot lower the
        # failure bound
        net = make_network(50, 10)
        values = [
            failure_prob_shadow(
                net, bhat_distribution(0.2, field_model.sigma1, b_hat_max)
            ).p_f
            for b_hat_max in (0.48, 0.4, 0.3, 0.22)
        ]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))

    def test_published_coefficient_inflates_the_bound(self, field_model):
        net = make_network(50, 10)
        dist = bhat_distribution(0.2, field_model.sigma1, field_model.b_hat_max)
        corrected = failure_prob_shadow(net, dist, variant="corrected").p_f
        published = failure_prob_shadow(net, dist, variant="paper").p_f
        assert published > corrected

    def test_fading_helps_when_coverage_is_scarce(self, field_model):
        # the documented crossover: fading spreads some estimates upward,
        # which rescues nodes whose nominal coverage is hopeless
        net = make_network(50, 10)
        lo = bhat_distribution(0.05, field_model.sigma1, field_model.b_hat_max)
        assert failure_prob_shadow(net, lo).p_loc > failure_prob_closed(net, 0.05).p_loc
        hi = bhat_distribution(0.4, field_model.sigma1, field_model.b_hat_max)
        assert failure_prob_shadow(net, hi).p_loc < failure_prob_closed(net, 0.4).p_loc


def _network(n: int, a: float) -> NetworkParams:
    """Node counts with an arbitrary blind fraction (tiny a included)."""
    return NetworkParams(n=n, k=round(n * (1.0 - a)), a=a)


_blind_fractions = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(1e-300, 1e-6)
)
_distributions = st.builds(
    bhat_distribution,
    b_o=st.floats(1e-3, 1.0),
    sigma1=st.floats(0.05, 40.0),
    b_hat_max=st.floats(0.05, 0.95),
)


class TestFastPathsMatchReference:
    """The hoisted integrands reproduce g(x) * density(x), evaluated call by
    call, bit for bit: every result must be equal, not merely close."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([4, 5, 20, 3000, 5000]), st.integers(4, 400)),
        a=_blind_fractions,
        dist=_distributions,
        variant=st.sampled_from(VARIANTS),
    )
    @example(n=50, a=0.8, dist=bhat_distribution(0.9, 3.43, 0.483), variant="corrected")
    @example(n=3000, a=1e-12, dist=bhat_distribution(0.2, 40.0, 0.483), variant="paper")
    @example(n=5000, a=0.0, dist=bhat_distribution(0.01, 0.05, 0.483), variant="corrected")
    def test_failure_prob_shadow(self, n, a, dist, variant):
        got = failure_prob_shadow(_network(n, a), dist, variant=variant).p_f
        assert got == shadow_failure_reference(n, a, dist, variant)

    @settings(max_examples=100, deadline=None)
    @given(dist=_distributions, order=st.integers(1, 30).map(lambda j: 2 * j))
    @example(dist=bhat_distribution(0.9, 3.43, 0.483), order=2)
    def test_bhat_moment(self, dist, order):
        assert bhat_moment(dist, order) == moment_reference(dist, order)

    @settings(max_examples=200, deadline=None)
    @given(dist=_distributions, x=st.one_of(st.just(0.0), st.floats(1e-300, 1.0)))
    def test_bhat_pdf(self, dist, x):
        assert bhat_pdf(dist, x) == pdf_reference(dist, x)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 30),
        a=_blind_fractions,
        variant=st.sampled_from(VARIANTS),
        b=st.floats(1e-3, 1.0),
    )
    def test_alternating_series(self, n, a, variant, b):
        def moment(j):
            return b**j

        assert _series(_network(n, a), variant, moment) == alternating_series_reference(
            n, a, variant, moment
        )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_alternating_rows_sharing_a_table_equal_standalone_calls(field_model, data):
    # one table integrates each distribution's moments once; a row must not depend
    # on which rows integrated them, in any order
    ratios = data.draw(st.lists(st.floats(0.01, 0.9), min_size=1, max_size=2, unique=True))
    rows = data.draw(st.lists(st.tuples(st.integers(4, 30), st.floats(0.0, 1.0),
                                        st.sampled_from(ratios), st.sampled_from(VARIANTS)),
                              min_size=2, max_size=6))
    order = data.draw(st.permutations(range(len(rows))))

    def row(i):  # a distribution of its own per row, as the CLI builds one
        n, a, b_o, variant = rows[i]
        dist = bhat_distribution(b_o, field_model.sigma1, field_model.b_hat_max)
        return failure_prob_shadow(_network(n, a), dist, "alternating_sum", variant)

    standalone = [row(i) for i in range(len(rows))]
    with analytic._row_invariants():
        shared = {i: row(i) for i in order}
    assert [shared[i] for i in range(len(rows))] == standalone


def test_no_shared_moment_outlives_its_table(tmp_path, monkeypatch, field_model):
    # two identical sweeps integrate alike: the second finds no moment left by the first
    calls = []
    integrate = shadowing.integrate
    monkeypatch.setattr(shadowing, "integrate", lambda *args: calls.append(1) or integrate(*args))
    config = {**_SHADOW_SWEEP, "n": [12, 20], "k": [3, 9], "b_o": [0.1, 0.3],
              "method": "alternating_sum"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    counts = []
    for _ in range(2):
        calls.clear()
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "o.csv"), "--quiet"]) == 0
        counts.append(len(calls))
    calls.clear()  # the same rows outside any table: every row integrates its own moments
    for n, k, b_o in itertools.product(config["n"], config["k"], config["b_o"]):
        dist = bhat_distribution(b_o, field_model.sigma1, field_model.b_hat_max)
        failure_prob_shadow(make_network(n, k), dist, "alternating_sum")
    assert counts[0] == counts[1] < len(calls), (counts, len(calls))
    assert analytic._invariants.get(None) is None


# n = 50, k = 10, b_o = 0.2 under the reference propagation constants
_SHADOW_SWEEP = {"mode": "shadow", "n": 50, "k": 10, "b_o": 0.2, "p0_dbm": 0.0, "gamma_dbm": -80.0,
                 "d0": 0.1, "n_p": 3.5, "sigma_s": 12.0, "R": 40.0}


def _known_failure(raises, reason):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


@pytest.mark.parametrize("change", [
    pytest.param({"sigma_s": 1e-300},
                 marks=_known_failure(AssertionError, "ALPHA / (scale * x) divides by zero: exit 3")),
    pytest.param({"sigma_s": 1e6}, marks=_known_failure(AssertionError, "_split_points overflows: exit 3")),
    pytest.param({"sigma_s": 1000.0},
                 marks=_known_failure(AssertionError, "the quadrature does not converge: exit 2")),
    pytest.param({"b_o": 1e-300},
                 marks=_known_failure(AssertionError, "the integrand is nan near zero: exit 2")),
    pytest.param({"k": 0, "b_o": 1.0},
                 marks=_known_failure(AssertionError, "quadrature error puts p_f above 1")),
], ids=["sigma_s_1e-300", "sigma_s_1e6", "sigma_s_1000", "b_o_1e-300", "k0_b_o_1"])
def test_shadow_sweep_gives_a_probability(tmp_path, change):
    # known failures of the shadow bound's adaptive quadrature; strict, so a fix shows as XPASS
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({**_SHADOW_SWEEP, **change}))
    assert main(["sweep", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, row = out.read_text(encoding="utf-8").splitlines()[1:]
    p_loc = float(dict(zip(header.split(","), row.split(",")))["p_loc"])
    assert 0.0 <= p_loc <= 1.0
