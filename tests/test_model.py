import math
from fractions import Fraction

import numpy as np
import pytest

from locprob.model import (
    ALPHA,
    SHADOW_CHOICES,
    TrialProtocol,
    bhat_distribution,
    make_network,
    make_shadow_model,
)
from oracles import sample_truncated_ratio, z_score


class TestMakeNetwork:
    def test_basic_fraction(self):
        assert make_network(300, 240).a == pytest.approx(0.2, abs=1e-15)

    def test_worked_example_counts(self):
        assert make_network(50, 10).a == pytest.approx(0.8, abs=1e-15)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="n too small"):
            make_network(3, 1)

    @pytest.mark.parametrize("k", [-1, 101, 10.5])
    def test_anchor_count_bounds(self, k):
        with pytest.raises(ValueError):
            make_network(100, k)

    def test_counts_are_integers(self):
        # a float count once made a network that failure_prob_sum and the field probe raised TypeError on
        with pytest.raises(ValueError, match="must be integers"):
            make_network(5.5, 2)
        for n, k in ((10, True), (True, 0)):
            with pytest.raises(ValueError, match="must be integers"):
                make_network(n, k)
        assert make_network(np.int64(50), np.int32(10)).a == pytest.approx(0.8, abs=1e-15)

    def test_degenerate_fractions_accepted(self):
        assert make_network(10, 0).a == 1.0
        assert make_network(10, 10).a == 0.0

    def test_fraction_is_exact(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(4, 5000))
            k = int(rng.integers(0, n + 1))
            net = make_network(n, k)
            assert abs(Fraction(net.a) - (1 - Fraction(k, n))) < Fraction(1, 10**15)


class TestMakeShadowModel:
    def test_reference_scenario(self):
        # 0 dBm at 10 cm, -80 dBm threshold, exponent 3.5, 12 dB fading, 40 m domain
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
        assert model.sigma1 == pytest.approx(3.43, abs=0.01)
        assert model.b_hat_max * 40.0 == pytest.approx(19.3, abs=0.05)
        assert model.b_hat_max == pytest.approx(0.48, abs=0.005)
        assert ALPHA == pytest.approx(10.0 / math.log(10.0), rel=1e-15)

    def test_threshold_at_reference_power(self):
        model = make_shadow_model(-10.0, -10.0, 0.25, 2.0, 3.0, 100.0)
        assert model.b_hat_max == 0.25 / 100.0

    def test_rejects_unmeasurable_domain(self):
        # same scenario with a 10 m domain: the 19.3 m limit does not fit
        with pytest.raises(ValueError, match="b_hat_max"):
            make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_p": 0.0},
            {"n_p": -1.0},
            {"d0": 0.0},
            {"R": -5.0},
            {"sigma_s": -0.1},
            {"sigma_s": math.nan},
            {"p0_dbm": math.nan},  # b_hat_max nan
            {"p0_dbm": -1e6},  # b_hat_max underflows to 0
            {"R": math.inf},  # b_hat_max 0
            {"p0_dbm": 1e6},  # 10 ** exponent overflows: b_hat_max inf
        ],
    )
    def test_rejects_bad_constants(self, kwargs):
        base = dict(p0_dbm=0.0, gamma_dbm=-60.0, d0=0.1, n_p=3.0, sigma_s=6.0, R=50.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            make_shadow_model(**base)

    def test_scale_consistency(self):
        one = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
        two = make_shadow_model(0.0, -80.0, 0.2, 3.5, 12.0, 80.0)
        assert two.b_hat_max == pytest.approx(one.b_hat_max, rel=1e-14)


class TestBhatDistribution:
    def test_zero_mass_at_the_truncation_point(self):
        dist = bhat_distribution(0.48, 3.43, 0.48)
        assert dist.zero_mass == pytest.approx(0.5, abs=1e-15)

    def test_zero_mass_vanishes_far_below(self):
        dist = bhat_distribution(0.01, 0.5, 0.48)
        assert dist.zero_mass < 1e-12

    def test_zero_mass_monotone_in_true_ratio(self):
        masses = [
            bhat_distribution(b_o, 2.7, 0.48).zero_mass
            for b_o in (0.05, 0.1, 0.2, 0.4, 0.48, 0.6)
        ]
        assert all(lo <= hi for lo, hi in zip(masses, masses[1:]))

    def test_zero_mass_against_sampling_oracle(self):
        dist = bhat_distribution(0.24, 3.43, 0.48)
        rng = np.random.default_rng(99)
        draws = sample_truncated_ratio(rng, 1_000_000, 0.24, 3.43, 0.48)
        z = z_score(int((draws == 0.0).sum()), draws.size, dist.zero_mass)
        assert abs(z) < 3.0, z

    def test_from_model_and_coverage_radius(self):
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
        dist = bhat_distribution(8.0 / 40.0, model.sigma1, model.b_hat_max)
        assert dist.b_o == pytest.approx(0.2, rel=1e-15)
        assert dist.sigma1 == model.sigma1
        assert dist.b_hat_max == model.b_hat_max
        assert dist.mu == pytest.approx(10.0 * math.log10(0.2), rel=1e-14)

    def test_degenerate_point_mass(self):
        inside = bhat_distribution(0.2, 0.0, 0.48)
        assert inside.sigma1 == 0.0 and inside.zero_mass == 0.0
        outside = bhat_distribution(0.6, 0.0, 0.48)
        assert outside.sigma1 == 0.0 and outside.zero_mass == 1.0

    def test_zero_sigma1_is_stored_as_positive_zero(self):
        # a fading draw's scale of -0.0 is rejected by numpy's normal sampler
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, -0.0, 40.0)
        dist = bhat_distribution(0.2, -0.0, 0.48)
        assert [math.copysign(1.0, v) for v in (model.sigma1, dist.sigma1)] == [1.0, 1.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bhat_distribution(0.0, 1.0, 0.48)
        with pytest.raises(ValueError):
            bhat_distribution(0.2, -1.0, 0.48)
        with pytest.raises(ValueError):
            bhat_distribution(0.2, 1.0, 1.0)
        with pytest.raises(ValueError, match="sigma1"):  # not a nan zero_mass, reported as non-convergence
            bhat_distribution(0.1, math.nan, 0.5)


@pytest.mark.parametrize("shadow_draw", SHADOW_CHOICES)
@pytest.mark.parametrize("fading", [None, make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)],
                         ids=["no_model", "model"])
def test_trial_protocol_has_a_fading_model_exactly_when_it_draws_fading(shadow_draw, fading):
    if (fading is None) == (shadow_draw == "none"):
        assert TrialProtocol("all_nl_nodes", shadow_draw, fading).fading is fading
    else:
        needs = "requires a" if fading is None else "takes no"
        with pytest.raises(ValueError, match=f"shadow_draw='{shadow_draw}' {needs} fading model"):
            TrialProtocol("all_nl_nodes", shadow_draw, fading)
