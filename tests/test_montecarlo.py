import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_anchor_counts

from locprob import montecarlo
from locprob.analytic import failure_prob_sum
from locprob.model import bhat_distribution, make_network, make_shadow_model
from locprob.montecarlo import (
    SHADOW_CHOICES,
    ProbEstimate,
    Realization,
    TrialProtocol,
    _all_nodes_chunk,
    _anchors_in_range,
    _chunk_rng,
    _count_in_range,
    estimate,
    run_trial,
    sample_center_realization,
    sample_realization,
    wilson_interval,
)
from locprob.shadowing import failure_prob_shadow


def wilson_se(est: ProbEstimate) -> float:
    return (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054


class TestWilsonInterval:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.06
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and 0.94 < lo < 1.0

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = int(rng.integers(1, 10_000))
            s = int(rng.integers(0, t + 1))
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestSampling:
    def test_radii_inside_disk_and_flag_count(self):
        rng = np.random.default_rng(0)
        net = make_network(400, 100)
        real = sample_realization(rng, net)
        assert real.radii.max() <= 1.0
        assert real.radii.min() >= 0.0
        assert np.abs(real.angles).max() <= math.pi
        assert int(real.l_flags.sum()) == 100

    def test_area_uniformity(self):
        # the square-root transform makes P(radius <= rho) = rho^2
        rng = np.random.default_rng(12)
        net = make_network(1000, 0)
        radii = np.concatenate([sample_realization(rng, net).radii for _ in range(1000)])
        for rho in (0.3, 0.7):
            want = rho * rho
            se = math.sqrt(want * (1.0 - want) / radii.size)
            got = float((radii <= rho).mean())
            assert abs(got - want) < 4.0 * se

    def test_same_seed_reproduces_realization(self):
        net = make_network(64, 16)
        one = sample_realization(np.random.default_rng(77), net)
        two = sample_realization(np.random.default_rng(77), net)
        assert np.array_equal(one.radii, two.radii)
        assert np.array_equal(one.angles, two.angles)
        assert np.array_equal(one.l_flags, two.l_flags)

    def test_center_realization_pins_probe(self):
        rng = np.random.default_rng(5)
        net = make_network(200, 50)
        real = sample_center_realization(rng, net)
        assert real.radii[0] == 0.0
        assert not real.l_flags[0]

    def test_center_anchor_labels_are_bernoulli(self):
        rng = np.random.default_rng(6)
        net = make_network(200, 50)
        counts = [sample_center_realization(rng, net).l_flags.sum() for _ in range(4000)]
        mean = float(np.mean(counts))
        want = (net.n - 1) * net.k / net.n
        se = math.sqrt((net.n - 1) * 0.25 * 0.75 / 4000)
        assert abs(mean - want) < 4.0 * se

    def test_coverage_count_is_binomial(self):
        # probe at the center: nodes within the coverage ratio follow
        # binomial(n-1, b^2)
        rng = np.random.default_rng(8)
        net = make_network(100, 30)
        b = 0.3
        counts = [
            int((sample_center_realization(rng, net).radii[1:] <= b).sum())
            for _ in range(20_000)
        ]
        want = (net.n - 1) * b * b
        se = math.sqrt((net.n - 1) * b * b * (1 - b * b) / 20_000)
        assert abs(float(np.mean(counts)) - want) < 4.0 * se


class TestRunTrial:
    def test_too_few_anchors_always_fail(self):
        rng = np.random.default_rng(1)
        net = make_network(50, 2)
        for protocol in (TrialProtocol(), TrialProtocol(probe="all_nl_nodes")):
            real = sample_realization(rng, net)
            assert not run_trial(real, 1.0, protocol).any()

    def test_full_coverage_from_center_succeeds(self):
        rng = np.random.default_rng(2)
        net = make_network(50, 3)
        real = sample_realization(rng, net)
        assert run_trial(real, 1.0, TrialProtocol()).all()

    def test_all_blind_nodes_are_probed(self):
        rng = np.random.default_rng(3)
        net = make_network(40, 15)
        out = run_trial(sample_realization(rng, net), 0.4, TrialProtocol(probe="all_nl_nodes"))
        assert out.shape == (25,)

    def test_shadow_requires_parameters_and_rng(self):
        rng = np.random.default_rng(4)
        net = make_network(20, 10)
        real = sample_realization(rng, net)
        protocol = TrialProtocol(shadow_draw="per_node")
        with pytest.raises(ValueError, match="shadow"):
            run_trial(real, 0.2, protocol, shadow=None, rng=rng)
        dist = bhat_distribution(0.2, 1.0, 0.48)
        with pytest.raises(ValueError, match="rng"):
            run_trial(real, 0.2, protocol, shadow=dist, rng=None)
        with pytest.raises(ValueError, match="does not match"):
            run_trial(real, 0.3, protocol, shadow=dist, rng=rng)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            TrialProtocol(probe="corner")
        with pytest.raises(ValueError):
            TrialProtocol(shadow_draw="sometimes")

    def test_per_link_runs_both_protocols(self):
        rng = np.random.default_rng(9)
        net = make_network(30, 12)
        dist = bhat_distribution(0.25, 2.0, 0.48)
        protocol = TrialProtocol(probe="all_nl_nodes", shadow_draw="per_link")
        out = run_trial(sample_realization(rng, net), 0.25, protocol, dist, rng)
        assert out.shape == (18,)
        center = TrialProtocol(probe="center_node", shadow_draw="per_link")
        out = run_trial(sample_realization(rng, net), 0.25, center, dist, rng)
        assert out.shape == (1,)


class TestEstimate:
    def test_matches_fixed_coverage_theory(self):
        net = make_network(300, 240)
        sim = estimate(net, 0.099, trials=100_000, seed=31)
        want = failure_prob_sum(net, 0.099).p_loc
        assert abs(sim.p_hat - want) <= 3.0 * wilson_se(sim)

    def test_oracle_agreement_across_network_sizes(self):
        # 12 (n, a, b) combinations at 1e5 trials each
        cells = [
            (50, 0.2, 0.2), (50, 0.2, 0.35), (50, 0.5, 0.2), (50, 0.8, 0.35),
            (300, 0.2, 0.099), (300, 0.5, 0.099), (300, 0.8, 0.15), (300, 0.95, 0.3),
            (1000, 0.2, 0.05), (1000, 0.5, 0.06), (1000, 0.8, 0.08), (1000, 0.9, 0.1),
        ]
        for i, (n, a, b) in enumerate(cells):
            net = make_network(n, round(n * (1.0 - a)))
            sim = estimate(net, b, trials=100_000, seed=5000 + i)
            want = failure_prob_sum(net, b).p_loc
            assert abs(sim.p_hat - want) <= 3.0 * wilson_se(sim), (n, a, b)

    def test_deterministic_across_runs_and_workers(self):
        net = make_network(120, 60)
        one = estimate(net, 0.2, trials=9000, seed=17, workers=1)
        again = estimate(net, 0.2, trials=9000, seed=17, workers=1)
        four = estimate(net, 0.2, trials=9000, seed=17, workers=4)
        assert one == again == four

    def test_seed_changes_the_draws(self):
        net = make_network(120, 60)
        assert estimate(net, 0.2, trials=5000, seed=1).successes != estimate(
            net, 0.2, trials=5000, seed=2
        ).successes

    def test_field_protocol_pools_blind_probes(self):
        net = make_network(80, 20)
        sim = estimate(net, 0.3, TrialProtocol(probe="all_nl_nodes"), trials=500, seed=5)
        assert sim.realizations == 500
        assert sim.trials == 500 * 60
        assert 0.0 <= sim.ci_low <= sim.p_hat <= sim.ci_high <= 1.0

    def test_boundary_clipping_depresses_field_protocol(self):
        # boundary probes see a clipped coverage disk, so the field estimate
        # sits below the interior-node protocol
        net = make_network(300, 240)
        interior = estimate(net, 0.099, trials=40_000, seed=23)
        field = estimate(
            net, 0.099, TrialProtocol(probe="all_nl_nodes"), trials=2000, seed=23
        )
        assert field.p_hat < interior.p_hat

    def test_shadowed_center_probe_matches_mixture_integral(self):
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
        net = make_network(50, 10)
        dist = bhat_distribution(0.2, model.sigma1, model.b_hat_max)
        sim = estimate(
            net, 0.2, TrialProtocol(shadow_draw="per_node"), shadow=dist,
            trials=100_000, seed=41,
        )
        want = failure_prob_shadow(net, dist).p_loc
        assert abs(sim.p_hat - want) <= 3.0 * wilson_se(sim)

    def test_validation(self):
        net = make_network(20, 10)
        with pytest.raises(ValueError):
            estimate(net, 0.2, trials=0)
        with pytest.raises(ValueError):
            estimate(net, 0.2, workers=0)
        with pytest.raises(ValueError):
            estimate(net, 1.5)
        with pytest.raises(ValueError, match="blind"):
            estimate(make_network(20, 20), 0.2, TrialProtocol(probe="all_nl_nodes"))


def _scattered(n, k, seed):
    rng = np.random.default_rng(seed)
    flags = np.zeros(n, dtype=bool)
    flags[rng.permutation(n)[:k]] = True
    return Realization(np.sqrt(rng.random(n)), rng.uniform(-np.pi, np.pi, n), flags)


def _on_x_axis(x, k, seed):
    # angle 0 or pi keeps x = +-r exact
    flags = np.zeros(x.size, dtype=bool)
    flags[np.random.default_rng(seed).permutation(x.size)[:k]] = True
    return Realization(np.abs(x), np.where(x < 0, np.pi, 0.0), flags)


@st.composite
def field_cases(draw):
    """(realization, b, shadow_draw, sigma1, b_hat_max) for the field kernel."""
    kind = draw(st.sampled_from(["scattered", "ties", "edges"]))
    # on cell edges only a fixed radius b decides which cells are searched
    mode = "none" if kind == "edges" else draw(st.sampled_from(SHADOW_CHOICES))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "edges":
        # a few ulps off -1 + m b, the cell edges when cells have side b, and
        # whole steps of b from there, so pairs about b apart straddle an edge;
        # enough anchors that cells are no wider than b, and b rarely dyadic
        n, b = int(rng.integers(30, 61)), rng.uniform(0.25, 1.0)
        k = int(rng.integers(n // 2, n))
    else:
        n = draw(st.integers(1, 60))
        k = min(n, draw(st.one_of(st.integers(0, 3), st.integers(0, n))))
    if kind == "scattered":
        low = 0.0 if mode == "none" else 1e-3
        b = draw(st.one_of(st.sampled_from([low, 1.0]), st.floats(low, 1.0)))
        real = _scattered(n, k, seed)
    elif kind == "ties":
        # multiples of 1/64, so anchors at distance b are exact ties
        b = draw(st.integers(0 if mode == "none" else 1, 64)) / 64
        real = _on_x_axis(rng.integers(-64, 65, n) / 64, k, seed)
    else:
        x = -1.0 + rng.integers(0, int(2 / b) + 1, n) * b
        x = x + rng.integers(-3, 4, n) * np.spacing(x) + rng.integers(-1, 2, n) * b
        real = _on_x_axis(x + rng.integers(-3, 4, n) * np.spacing(x), k, seed)
    # sigma1 = 0 with b_hat_max < b zeroes every effective ratio
    sigma1 = draw(st.one_of(st.just(0.0), st.floats(0.5, 12.0)))
    return real, b, mode, sigma1, draw(st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None)
@given(field_cases(), st.integers(0, 2**32 - 1))
# every ratio zeroed (r = 0), per-link fading, b = 1 and b = 0 with few anchors
@example((_scattered(40, 20, 1), 0.5, "per_node", 0.0, 0.25), 0)
@example((_scattered(40, 20, 2), 0.3, "per_link", 2.0, 0.6), 0)
@example((_scattered(30, 3, 3), 1.0, "none", 0.0, 0.5), 0)
@example((_scattered(30, 2, 4), 0.0, "none", 0.0, 0.5), 0)
def test_field_counts_match_brute_force(case, seed):
    real, b, mode, sigma1, b_hat_max = case
    shadow = None if mode == "none" else bhat_distribution(b, sigma1, b_hat_max)
    kernel_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _anchors_in_range(
        real, b, TrialProtocol(probe="all_nl_nodes", shadow_draw=mode), shadow, kernel_rng
    )
    want = brute_force_anchor_counts(
        real.radii, real.angles, real.l_flags, b, mode, oracle_rng, sigma1, b_hat_max
    )
    assert np.array_equal(got, want)
    # both consumed the same fading draws, so later chunks see the same stream
    assert kernel_rng.random() == oracle_rng.random()


# Field-protocol successes recorded from the dense probes x anchors kernel:
# any change to the random-stream layout or to the counting shows here.
@pytest.mark.parametrize(
    "n, k, b, seed, shadow_draw, successes, probes",
    [
        (200, 120, 0.15, 2024, "none", 2399, 5120),
        (200, 120, 0.15, 2024, "per_node", 2177, 5120),
        (200, 120, 0.15, 2024, "per_link", 3640, 5120),
        (500, 260, 0.05, 7, "none", 383, 15360),
        (500, 260, 0.05, 7, "per_node", 3173, 15360),
        (500, 260, 0.05, 7, "per_link", 4519, 15360),
    ],
)
def test_field_protocol_stream_is_frozen(n, k, b, seed, shadow_draw, successes, probes):
    model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
    dist = bhat_distribution(b, model.sigma1, model.b_hat_max)
    sim = estimate(
        make_network(n, k), b, TrialProtocol(probe="all_nl_nodes", shadow_draw=shadow_draw),
        shadow=None if shadow_draw == "none" else dist, trials=64, seed=seed,
    )
    assert (sim.successes, sim.trials) == (successes, probes)


_REFERENCE_FADING = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)


@pytest.mark.parametrize("m", [1, 2, 5, 32])
@pytest.mark.parametrize(
    "n, k, b, shadow_draw",
    [(500, 260, 0.1, mode) for mode in SHADOW_CHOICES] + [(3010, 3000, 0.0, "none")],
)
def test_field_chunk_matches_per_realization_replay(monkeypatch, m, n, k, b, shadow_draw):
    # b = 0 with 3000 anchors makes the cell-count floor, not b, set the cell side
    net = make_network(n, k)
    model = _REFERENCE_FADING
    shadow = None if shadow_draw == "none" else bhat_distribution(b, model.sigma1, model.b_hat_max)
    protocol = TrialProtocol(probe="all_nl_nodes", shadow_draw=shadow_draw)
    chunk_rngs = []

    def recorded_rng(*key):
        chunk_rngs.append(_chunk_rng(*key))
        return chunk_rngs[-1]

    monkeypatch.setattr(montecarlo, "_chunk_rng", recorded_rng)
    got = _all_nodes_chunk((11, 3, m, net, b, protocol, shadow))
    replay = _chunk_rng(11, 3)
    successes = 0
    for _ in range(m):
        real = sample_realization(replay, net)
        counts = brute_force_anchor_counts(
            real.radii, real.angles, real.l_flags, b, shadow_draw, replay,
            model.sigma1, model.b_hat_max,
        )
        successes += int((counts >= 3).sum())
    assert got == (successes, m * (n - k))
    assert chunk_rngs[0].random() == replay.random()


def _on_grid_border(n, k, rng):
    # every point on y = +-1 or x = +-1, so the top row of one realization's
    # band and the bottom row of the next are both occupied
    along, across = rng.uniform(-1.0, 1.0, n), rng.choice([-1.0, 1.0], n)
    swap = rng.random(n) < 0.5
    x, y = np.where(swap, across, along), np.where(swap, along, across)
    flags = np.zeros(n, dtype=bool)
    flags[rng.permutation(n)[:k]] = True
    return Realization(np.hypot(x, y), np.arctan2(y, x), flags)


@pytest.mark.parametrize(
    "n, k, b, shadow_draw",
    [(40, 20, b, mode) for b in (0.3, 0.5, 1.0) for mode in ("none", "per_node")]
    + [(60, 3, 0.7, "none"), (3010, 3000, 0.0, "none"), (3010, 3000, 0.005, "none")],
)
def test_batched_count_keeps_realizations_apart(n, k, b, shadow_draw):
    model = _REFERENCE_FADING
    shadow = None if shadow_draw == "none" else bhat_distribution(b, model.sigma1, 0.9)
    place = np.random.default_rng(n + k)
    reals = [_on_grid_border(n, k, place) if n < 100 else _scattered(n, k, g) for g in range(6)]
    kernel_rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    draws = [
        None if shadow is None else kernel_rng.normal(0.0, shadow.sigma1, n - k) for _ in reals
    ]
    got = _count_in_range(
        reals, draws, b, TrialProtocol(probe="all_nl_nodes", shadow_draw=shadow_draw), shadow
    )
    want = [
        brute_force_anchor_counts(
            r.radii, r.angles, r.l_flags, b, shadow_draw, oracle_rng, model.sigma1, 0.9
        )
        for r in reals
    ]
    assert np.array_equal(got, want)
