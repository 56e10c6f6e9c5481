import math
import os
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_anchor_counts, per_link_center_failure

from locprob import montecarlo
from locprob.analytic import failure_prob_sum
from locprob.model import bhat_distribution, make_network, make_shadow_model
from locprob.montecarlo import (
    SHADOW_CHOICES,
    ProbEstimate,
    Realization,
    TrialProtocol,
    _all_nodes_chunk,
    _center_chunk,
    _chunk_rng,
    _count_in_range,
    _fading_draws,
    estimate,
    sample_realization,
    wilson_interval,
    worker_pool,
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


class TestRunTrial:
    """Outcomes every trial must share, observed through estimate."""

    def test_too_few_anchors_always_fail(self):
        # the field protocol places exactly k anchors; the centre protocol
        # makes each node an anchor with probability k/n, so only k = 0 caps it
        for k, probe in ((2, "all_nl_nodes"), (0, "center_node")):
            sim = estimate(make_network(50, k), 1.0, TrialProtocol(probe=probe), trials=200, seed=1)
            assert sim.successes == 0

    def test_full_coverage_from_center_succeeds(self):
        # with k = n every other node is an anchor, and b = 1 reaches them all
        sim = estimate(make_network(50, 50), 1.0, trials=200, seed=2)
        assert sim.successes == sim.trials == 200

    def test_all_blind_nodes_are_probed(self):
        sim = estimate(make_network(40, 15), 0.4, TrialProtocol(probe="all_nl_nodes"),
                       trials=3, seed=3)
        assert (sim.trials, sim.realizations) == (3 * 25, 3)

    def test_shadow_requires_matching_parameters(self):
        net = make_network(20, 10)
        protocol = TrialProtocol(shadow_draw="per_node")
        with pytest.raises(ValueError, match="shadow"):
            estimate(net, 0.2, protocol, shadow=None)
        dist = bhat_distribution(0.2, 1.0, 0.48)
        with pytest.raises(ValueError, match="does not match"):
            estimate(net, 0.3, protocol, shadow=dist)
        with pytest.raises(ValueError, match="shadow_draw"):
            estimate(net, 0.2, TrialProtocol(), shadow=dist)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            TrialProtocol(probe="corner")
        with pytest.raises(ValueError):
            TrialProtocol(shadow_draw="sometimes")

    def test_per_link_runs_both_protocols(self):
        net = make_network(30, 12)
        dist = bhat_distribution(0.25, 2.0, 0.48)
        for probe, probes in (("all_nl_nodes", 18), ("center_node", 1)):
            protocol = TrialProtocol(probe=probe, shadow_draw="per_link")
            sim = estimate(net, 0.25, protocol, dist, trials=50, seed=9)
            assert sim.trials == 50 * probes
            assert 0 <= sim.successes <= sim.trials


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
        one = estimate(net, 0.2, trials=9000, seed=17)
        again = estimate(net, 0.2, trials=9000, seed=17)
        with worker_pool(4) as pool:
            four = estimate(net, 0.2, trials=9000, seed=17, pool=pool)
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

    def test_fading_draws_match_their_theories(self):
        # per_link against the exact centre theory, per_node against the mixture
        # integral, with b_o on both sides of b_hat_max = 0.483 (at 0.6 the zero
        # mass, 0.61, dominates).  Eight comparisons: a family-wise false-alarm
        # rate of 1e-3, split evenly (Bonferroni), bounds each two-sided |z| by 3.84.
        # Each comparison has a seed of its own; comparisons that shared one seed
        # gave z values all of one sign.
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / 8 / 2)
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)
        cells = [(n, k, trials, b_o, draw) for n, k, trials in ((50, 40, 100_000), (300, 60, 40_000))
                 for b_o in (0.2, 0.6) for draw in ("per_link", "per_node")]
        for seed, (n, k, trials, b_o, draw) in enumerate(cells, start=7100):
            net = make_network(n, k)
            dist = bhat_distribution(b_o, model.sigma1, model.b_hat_max)
            sim = estimate(net, b_o, TrialProtocol(shadow_draw=draw), shadow=dist,
                           trials=trials, seed=seed)
            if draw == "per_link":
                want = 1.0 - per_link_center_failure(n, net.a, dist)
            else:
                want = failure_prob_shadow(net, dist).p_loc
            z = (sim.p_hat - want) / math.sqrt(want * (1.0 - want) / sim.trials)
            assert abs(z) < bound, (n, b_o, draw, z)

    def test_validation(self):
        net = make_network(20, 10)
        with pytest.raises(ValueError):
            estimate(net, 0.2, trials=0)
        with pytest.raises(ValueError), worker_pool(0):
            pass
        with pytest.raises(ValueError):
            estimate(net, 1.5)
        with pytest.raises(ValueError, match="blind"):
            estimate(make_network(20, 20), 0.2, TrialProtocol(probe="all_nl_nodes"))

    def test_worker_pool_holds_at_most_one_process_per_cpu(self, monkeypatch):
        # a stub pool records its size and starts no process
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        with worker_pool(10**6) as pool:
            assert isinstance(pool, RecordingPool)
        assert asked == [os.cpu_count() or 1]


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
    protocol = TrialProtocol(probe="all_nl_nodes", shadow_draw=mode)
    anchors = int(real.l_flags.sum())
    draws = _fading_draws(protocol, shadow, kernel_rng, real.l_flags.size - anchors, anchors)
    got = _count_in_range([real], [draws], b, protocol, shadow)[0]
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


# Centre-protocol successes recorded from the dense per-pair kernel; both
# points span two chunks (chunk sizes 3495 and 1048).
@pytest.mark.parametrize(
    "n, k, b, seed, trials, shadow_draw, successes",
    [
        (300, 150, 0.15, 2024, 5000, "none", 3239),
        (300, 150, 0.15, 2024, 5000, "per_node", 2515),
        (300, 150, 0.15, 2024, 5000, "per_link", 4516),
        (1000, 420, 0.08, 7, 1500, "none", 737),
        (1000, 420, 0.08, 7, 1500, "per_node", 732),
        (1000, 420, 0.08, 7, 1500, "per_link", 1448),
    ],
)
def test_center_protocol_stream_is_frozen(n, k, b, seed, trials, shadow_draw, successes):
    model = _REFERENCE_FADING
    dist = bhat_distribution(b, model.sigma1, model.b_hat_max)
    sim = estimate(
        make_network(n, k), b, TrialProtocol(probe="center_node", shadow_draw=shadow_draw),
        shadow=None if shadow_draw == "none" else dist, trials=trials, seed=seed,
    )
    assert (sim.successes, sim.trials) == (successes, trials)


def _dense_center_chunk(rng, m, net, b, sigma1, b_hat_max, shadow_draw="per_link"):
    """Centre trials drawn as whole (m, n-1) blocks, with the effective ratio
    of every trial (per_node) or every (trial, node) pair (per_link)."""
    sq_radii = rng.random((m, net.n - 1))
    anchor = rng.random((m, net.n - 1)) < (net.k / net.n)
    if shadow_draw == "none":
        eff = b
    else:
        shape = (m, 1) if shadow_draw == "per_node" else (m, net.n - 1)
        ratio = b * 10.0 ** (-rng.normal(0.0, sigma1, shape) / 10.0)
        eff = np.where(ratio <= b_hat_max, ratio, 0.0)
    counts = ((sq_radii <= eff * eff) & anchor).sum(axis=1)
    return int((counts >= 3).sum()), m


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(4, 200),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.just(0.0), st.floats(0.5, 12.0)),
    st.floats(0.01, 0.99),
    st.integers(0, 2**32 - 1),
)
# b = b_hat_max without fading: every anchor ratio sits exactly on the mask's bound
@example(200, 60, 1.0, 0.5, 0.0, 0.5, 1)
@example(50, 40, 0.9, 1.0, 3.0, 0.99, 2)
@example(50, 40, 0.9, 0.0, 3.0, 0.5, 3)
def test_center_per_link_chunk_matches_dense_replay(m, n, anchors, b, sigma1, b_hat_max, seed):
    net = make_network(n, round(anchors * n))
    # the chunk reads only sigma1 and b_hat_max; b_o must be positive
    shadow = bhat_distribution(max(b, 1e-3), sigma1, b_hat_max)
    protocol = TrialProtocol(probe="center_node", shadow_draw="per_link")
    chunk_rngs = []

    def recorded_rng(*key):
        chunk_rngs.append(_chunk_rng(*key))
        return chunk_rngs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_chunk_rng", recorded_rng)
        got = _center_chunk((seed, 5, m, net, b, protocol, shadow))
    replay = _chunk_rng(seed, 5)
    assert got == _dense_center_chunk(replay, m, net, b, sigma1, b_hat_max)
    assert chunk_rngs[0].random() == replay.random()


_BLOCK = montecarlo._CENTER_BLOCK_PAIRS


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHADOW_CHOICES),
    st.integers(1, 1500),
    st.integers(4, 400),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.just(0.0), st.floats(0.5, 12.0)),
    st.floats(0.01, 0.99),
    st.integers(0, 2**32 - 1),
)
# n - 1 = 128 divides the block: exactly two whole blocks, or one and a partial last one
@example("none", 2 * _BLOCK // 128, 129, 0.5, 0.3, 0.0, 0.5, 1)
@example("per_node", 2 * _BLOCK // 128, 129, 0.5, 0.3, 4.0, 0.5, 2)
@example("per_link", _BLOCK // 128 + 45, 129, 0.5, 0.3, 4.0, 0.5, 3)
# n - 1 above the block: one trial per block
@example("none", 3, _BLOCK + 2, 0.99, 0.02, 0.0, 0.5, 4)
@example("per_link", 3, _BLOCK + 2, 0.99, 0.02, 3.0, 0.5, 5)
@example("per_node", 1, 40, 0.5, 0.4, 3.0, 0.9, 6)
def test_center_chunk_matches_dense_replay_in_every_mode(
    shadow_draw, m, n, anchors, b, sigma1, b_hat_max, seed
):
    net = make_network(n, round(anchors * n))
    shadow = None if shadow_draw == "none" else bhat_distribution(max(b, 1e-3), sigma1, b_hat_max)
    protocol = TrialProtocol(probe="center_node", shadow_draw=shadow_draw)
    chunk_rngs = []

    def recorded_rng(*key):
        chunk_rngs.append(_chunk_rng(*key))
        return chunk_rngs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_chunk_rng", recorded_rng)
        got = _center_chunk((seed, 5, m, net, b, protocol, shadow))
    replay = _chunk_rng(seed, 5)
    assert got == _dense_center_chunk(replay, m, net, b, sigma1, b_hat_max, shadow_draw)
    # the chunk's own generator drew the fading values and ends where the dense draws end
    assert [r.bit_generator.state for r in chunk_rngs] == [replay.bit_generator.state]
