import dataclasses
import math
import os
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_anchor_counts, center_theory, z_score

from locprob import montecarlo
from locprob.model import SHADOW_CHOICES, TrialProtocol, make_network, make_shadow_model
from locprob.montecarlo import (
    Realization,
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

_REFERENCE_FADING = make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0)


def _fading(sigma1, b_hat_max):
    """A fading model with these draw parameters, the only ones the kernels read."""
    return dataclasses.replace(_REFERENCE_FADING, sigma1=sigma1, b_hat_max=b_hat_max)


class TestWilsonInterval:
    @pytest.mark.parametrize("successes, trials", [(50, 100), (1, 10), (999, 1000), (3, 10**6)])
    def test_matches_the_score_formula(self, successes, trials):
        # the Wilson score interval at 40 digits, with the two-sided 95 % z
        with mpmath.workdps(40):
            z, p = mpmath.mpf(NormalDist().inv_cdf(0.975)), mpmath.mpf(successes) / trials
            denom = 1 + z * z / trials
            center = (p + z * z / (2 * trials)) / denom
            half = z * mpmath.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / denom
            want = (float(center - half), float(center + half))
        assert wilson_interval(successes, trials) == pytest.approx(want, rel=1e-12)

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
            z = z_score(int((radii <= rho).sum()), radii.size, rho * rho)
            assert abs(z) < 4.0, (rho, z)

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

    @pytest.mark.parametrize("probe", ["center_node", "all_nl_nodes"])
    def test_n_past_the_protocols_limit_is_refused_before_any_chunk(self, monkeypatch, probe):
        # a chunk's memory grows with n: at n = 10**9 one centre chunk would need gigabytes
        def no_chunk(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(montecarlo, "_center_chunk", no_chunk)
        monkeypatch.setattr(montecarlo, "_all_nodes_chunk", no_chunk)
        n = montecarlo._MAX_N[probe] + 1
        with pytest.raises(ValueError, match=f"simulates n <= {n - 1}, got n = {n}"):
            estimate(make_network(n, 10), 0.2, TrialProtocol(probe), trials=1)

    def test_shadow_requires_matching_parameters(self):
        # a fading draw without a fading model, or a model without a draw, is no protocol
        with pytest.raises(ValueError, match="requires a fading model"):
            TrialProtocol(shadow_draw="per_node")
        with pytest.raises(ValueError, match="takes no fading model"):
            TrialProtocol(fading=_REFERENCE_FADING)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            TrialProtocol(probe="corner")
        with pytest.raises(ValueError):
            TrialProtocol(shadow_draw="sometimes")

    def test_per_link_runs_both_protocols(self):
        net = make_network(30, 12)
        for probe, probes in (("all_nl_nodes", 18), ("center_node", 1)):
            protocol = TrialProtocol(probe, "per_link", _fading(2.0, 0.48))
            sim = estimate(net, 0.25, protocol, trials=50, seed=9)
            assert sim.trials == 50 * probes
            assert 0 <= sim.successes <= sim.trials

    @pytest.mark.parametrize("probe, shadow_draw", [
        ("center_node", "per_node"), ("center_node", "per_link"), ("all_nl_nodes", "per_node"),
    ])
    def test_a_fading_draw_past_the_float_range_is_a_zero_ratio(self, probe, shadow_draw):
        # at sigma_s = 1e6 dB half the draws lie below -3083 dB, where 10^(-X1/10)
        # overflows to inf; the ratio is zeroed there without a warning (an error here)
        model = make_shadow_model(0.0, -80.0, 0.1, 3.5, 1e6, 40.0)
        sim = estimate(make_network(50, 10), 0.2, TrialProtocol(probe, shadow_draw, model),
                       trials=200, seed=4)
        assert sim.p_hat < 0.05  # nearly every ratio is 0 or past b_hat_max


class TestEstimate:
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


# Every centre-probe cell the oracle simulates, against its protocol's theory; criterion 3 gates
# n = 300, b = 0.099.  Each row has a seed of its own: cells that shared one gave z values all of one
# sign.  The fading rows put b_o on both sides of b_hat_max = 0.483 (at 0.6 the zero mass, 0.61,
# dominates).  They are one family of eight: a family-wise false-alarm rate of 1e-3, split evenly
# (Bonferroni), bounds each two-sided |z| by 3.84.  A 0.5 % error in b moves the last row, p_loc 0.48
# with b_o just under b_hat_max, by about 2.7 SE, and the other nine fading rows by 1.4 SE at most.
_FAMILY_OF_8 = NormalDist().inv_cdf(1.0 - 1e-3 / 8 / 2)
_CENTER_CELLS = [
    (50, 40, 0.2, "none", 100_000, 5000, 3.0),
    (50, 40, 0.35, "none", 100_000, 5001, 3.0),
    (50, 25, 0.2, "none", 100_000, 5002, 3.0),
    (50, 10, 0.35, "none", 100_000, 5003, 3.0),
    (300, 60, 0.15, "none", 100_000, 5006, 3.0),
    (300, 15, 0.3, "none", 100_000, 5007, 3.0),
    (1000, 800, 0.05, "none", 100_000, 5008, 3.0),
    (1000, 500, 0.06, "none", 100_000, 5009, 3.0),
    (1000, 200, 0.08, "none", 100_000, 5010, 3.0),
    (1000, 100, 0.1, "none", 100_000, 5011, 3.0),
    (50, 10, 0.2, "per_node", 100_000, 41, 3.0),
    (50, 40, 0.2, "per_link", 100_000, 7100, _FAMILY_OF_8),
    (50, 40, 0.2, "per_node", 100_000, 7101, _FAMILY_OF_8),
    (50, 40, 0.6, "per_link", 100_000, 7102, _FAMILY_OF_8),
    (50, 40, 0.6, "per_node", 100_000, 7103, _FAMILY_OF_8),
    (300, 60, 0.2, "per_link", 40_000, 7104, _FAMILY_OF_8),
    (300, 60, 0.2, "per_node", 40_000, 7105, _FAMILY_OF_8),
    (300, 60, 0.6, "per_link", 40_000, 7106, _FAMILY_OF_8),
    (300, 60, 0.6, "per_node", 40_000, 7107, _FAMILY_OF_8),
    (300, 270, 0.47, "per_node", 400_000, 7108, 3.0),
]


@pytest.mark.parametrize("n, k, b, shadow_draw, trials, seed, bound", _CENTER_CELLS,
                         ids=[f"{n}-{k}-{b}-{draw}-{seed}" for n, k, b, draw, _, seed, _ in _CENTER_CELLS])
def test_center_cell_agrees_with_its_theory(n, k, b, shadow_draw, trials, seed, bound):
    net = make_network(n, k)
    protocol = TrialProtocol("center_node", shadow_draw, None if shadow_draw == "none" else _REFERENCE_FADING)
    sim = estimate(net, b, protocol, trials=trials, seed=seed)
    z = z_score(sim.successes, sim.trials, center_theory(net, b, protocol))
    assert abs(z) <= bound, f"cell (n, k, b) = ({n}, {k}, {b}), {shadow_draw}, seed {seed}: z = {z:+.2f}"


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
        b = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        real = _scattered(n, k, seed)
    elif kind == "ties":
        # multiples of 1/64, so anchors at distance b are exact ties
        b = draw(st.integers(0, 64)) / 64
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
    fading = None if mode == "none" else _fading(sigma1, b_hat_max)
    kernel_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    protocol = TrialProtocol("all_nl_nodes", mode, fading)
    anchors = int(real.l_flags.sum())
    draws = _fading_draws(protocol, kernel_rng, real.l_flags.size - anchors, anchors)
    got = _count_in_range([real], [draws], b, protocol)[0]
    want = brute_force_anchor_counts(
        real.radii, real.angles, real.l_flags, b, mode, oracle_rng, sigma1, b_hat_max
    )
    assert np.array_equal(got, want)
    # both consumed the same fading draws, so later chunks see the same stream
    assert kernel_rng.random() == oracle_rng.random()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["per_node", "per_link"]),
    st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 3.43, 1e6]), st.floats(0.0, 1e6)),
    st.integers(0, 120),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
@example("per_link", 3.43, 109, 299, 0)
@example("per_link", 3.43, 3, 0, 0)
@example("per_node", 5e-324, 7, 0, 0)
def test_fading_draws_match_scaled_normals(shadow_draw, sigma1, probes, anchors, seed):
    # the draws read as rng.normal(0.0, sigma1, shape) always did, and leave the
    # stream where it did; 0.0 + (-0.0) is +0.0, so only a zero's sign may differ
    kernel_rng, normal_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    protocol = TrialProtocol("center_node", shadow_draw, _fading(sigma1, 0.5))
    got = _fading_draws(protocol, kernel_rng, probes, anchors)
    want = normal_rng.normal(0.0, sigma1, probes if shadow_draw == "per_node" else (probes, anchors))
    assert got.shape == want.shape and np.array_equal(got, want)
    assert kernel_rng.random() == normal_rng.random()


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
    fading = None if shadow_draw == "none" else _REFERENCE_FADING
    sim = estimate(
        make_network(n, k), b, TrialProtocol("all_nl_nodes", shadow_draw, fading), trials=64,
        seed=seed,
    )
    assert (sim.successes, sim.trials) == (successes, probes)


def test_chunk_rng_skip_jumps_that_many_outputs_into_the_chunk_stream():
    # skip counts 64-bit outputs, one per uniform, which is how _center_chunk's offsets count
    for seed, index, skip in [(0, 0, 0), (7, 3, 1), (7, 3, 299), (2**32 - 1, 12, 3 * 299 + 5)]:
        drawn = _chunk_rng(seed, index).random(skip + 4)[skip:]
        np.testing.assert_array_equal(_chunk_rng(seed, index, skip).random(4), drawn)
    seq = np.random.SeedSequence(entropy=7, spawn_key=(3,))
    np.testing.assert_array_equal(_chunk_rng(7, 3).random(4), np.random.default_rng(seq).random(4))


def _record_chunk_rngs(patch):
    """Patches montecarlo._chunk_rng to keep every generator it opens; returns that list."""
    opened = []

    def recorded_rng(*key):
        opened.append(_chunk_rng(*key))
        return opened[-1]

    patch.setattr(montecarlo, "_chunk_rng", recorded_rng)
    return opened


@pytest.mark.parametrize("m", [1, 2, 5, 32])
@pytest.mark.parametrize(
    "n, k, b, shadow_draw",
    [(500, 260, 0.1, mode) for mode in SHADOW_CHOICES] + [(3010, 3000, 0.0, "none")],
)
def test_field_chunk_matches_per_realization_replay(monkeypatch, m, n, k, b, shadow_draw):
    # b = 0 with 3000 anchors makes the cell-count floor, not b, set the cell side
    net = make_network(n, k)
    model = _REFERENCE_FADING
    protocol = TrialProtocol("all_nl_nodes", shadow_draw, None if shadow_draw == "none" else model)
    chunk_rngs = _record_chunk_rngs(monkeypatch)
    got = _all_nodes_chunk((11, 3, m, net, b, protocol))
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
    fading = None if shadow_draw == "none" else _fading(model.sigma1, 0.9)
    place = np.random.default_rng(n + k)
    reals = [_on_grid_border(n, k, place) if n < 100 else _scattered(n, k, g) for g in range(6)]
    kernel_rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    draws = [
        None if fading is None else kernel_rng.normal(0.0, fading.sigma1, n - k) for _ in reals
    ]
    got = _count_in_range(reals, draws, b, TrialProtocol("all_nl_nodes", shadow_draw, fading))
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
    fading = None if shadow_draw == "none" else _REFERENCE_FADING
    sim = estimate(
        make_network(n, k), b, TrialProtocol("center_node", shadow_draw, fading), trials=trials,
        seed=seed,
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


_BLOCK = montecarlo._CENTER_BLOCK_PAIRS


def _block_pairs(shape, n):
    """(trial, node) pairs per centre block: one pair, one trial, three trials
    and a pair (a ragged last block), the default, or a whole chunk."""
    return {"1": 1, "n-1": n - 1, "3(n-1)+1": 3 * (n - 1) + 1, "default": _BLOCK, "2**22": 2**22}[shape]


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
    st.sampled_from(["1", "n-1", "3(n-1)+1", "default", "2**22"]),
)
# n - 1 = 128 divides the block: exactly two whole blocks, or one and a partial last one
@example("none", 2 * _BLOCK // 128, 129, 0.5, 0.3, 0.0, 0.5, 1, "default")
@example("per_node", 2 * _BLOCK // 128, 129, 0.5, 0.3, 4.0, 0.5, 2, "default")
@example("per_link", _BLOCK // 128 + 45, 129, 0.5, 0.3, 4.0, 0.5, 3, "default")
# n - 1 above the block: one trial per block
@example("none", 3, _BLOCK + 2, 0.99, 0.02, 0.0, 0.5, 4, "default")
@example("per_link", 3, _BLOCK + 2, 0.99, 0.02, 3.0, 0.5, 5, "default")
@example("per_node", 1, 40, 0.5, 0.4, 3.0, 0.9, 6, "default")
# per_link at b = b_hat_max without fading: every anchor ratio sits exactly on the mask's bound
@example("per_link", 200, 60, 1.0, 0.5, 0.0, 0.5, 1, "default")
@example("per_link", 50, 40, 0.9, 1.0, 3.0, 0.99, 2, "default")
@example("per_link", 50, 40, 0.9, 0.0, 3.0, 0.5, 3, "default")
# every mode with a ragged last block of one trial
@example("none", 200, 60, 0.5, 0.3, 0.0, 0.5, 1, "3(n-1)+1")
@example("per_node", 200, 60, 0.5, 0.3, 4.0, 0.5, 2, "3(n-1)+1")
@example("per_link", 200, 60, 0.5, 0.3, 4.0, 0.5, 3, "3(n-1)+1")
def test_center_chunk_matches_dense_replay_in_every_mode(
    shadow_draw, m, n, anchors, b, sigma1, b_hat_max, seed, block
):
    # the dense replay has no blocks, so matching it at every block size shows a pair's trial is its
    # flat index // (n-1), whatever rows a block holds
    net = make_network(n, round(anchors * n))
    fading = None if shadow_draw == "none" else _fading(sigma1, b_hat_max)
    protocol = TrialProtocol("center_node", shadow_draw, fading)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_CENTER_BLOCK_PAIRS", _block_pairs(block, n))
        chunk_rngs = _record_chunk_rngs(patch)
        got = _center_chunk((seed, 5, m, net, b, protocol))
    replay = _chunk_rng(seed, 5)
    assert got == _dense_center_chunk(replay, m, net, b, sigma1, b_hat_max, shadow_draw)
    # the radius run ends where the anchor run starts, the anchor run where the fading run starts, and
    # the fading run where the dense draws end
    uniforms, run_ends = _chunk_rng(seed, 5), []
    for _ in range(2):
        uniforms.random(m * (n - 1))
        run_ends.append(uniforms.bit_generator.state)
    assert [r.bit_generator.state for r in chunk_rngs] == [*run_ends, replay.bit_generator.state]
