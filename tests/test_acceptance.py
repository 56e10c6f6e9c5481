"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from locprob.analytic import (
    failure_prob_closed,
    failure_prob_sum,
    iterative_failure_floor,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from locprob.cli import main, run_sweep
from locprob.model import bhat_distribution, make_network, make_shadow_model
from locprob.montecarlo import ProbEstimate, estimate
from locprob.shadowing import bhat_pdf, failure_prob_shadow, integrate
from oracles import exact_binomial_cdf

ROOT_HALF = math.sqrt(0.5)
GRID_N = (4, 10, 50, 300, 1000, 3000)
GRID_A = (0.0, 0.2, 0.5, 0.8, 1.0)
GRID_B = (0.0, 0.05, 0.099, 0.3, 0.878, 1.0)


def report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def wilson_se(est: ProbEstimate) -> float:
    return (est.ci_high - est.ci_low) / 2.0 / 1.959963984540054


def grid_networks():
    for n in GRID_N:
        for a in GRID_A:
            yield make_network(n, round(n * (1.0 - a)))


def reference_model(sigma_s: float = 12.0):
    return make_shadow_model(0.0, -80.0, 0.1, 3.5, sigma_s, 40.0)


def test_criterion_01_series_equals_closed_form():
    worst = 0.0
    for net in grid_networks():
        for b in GRID_B:
            gap = abs(failure_prob_sum(net, b).p_f - failure_prob_closed(net, b).p_f)
            worst = max(worst, gap)
    assert worst <= 1e-12
    report("01 series/closed identity", f"max |sum - closed| = {worst:.2e} over 180 points")


def test_criterion_02_hand_anchor_with_monte_carlo():
    net = make_network(4, 4)
    series = failure_prob_sum(net, ROOT_HALF).p_f
    closed = failure_prob_closed(net, ROOT_HALF, "corrected").p_f
    assert series == pytest.approx(0.875, abs=1e-12)
    assert closed == pytest.approx(0.875, abs=1e-12)
    published = failure_prob_closed(net, ROOT_HALF, "paper").p_f
    assert published == pytest.approx(1.125, abs=1e-12)
    sim = estimate(net, ROOT_HALF, trials=1_000_000, seed=20240801)
    gap = abs(sim.p_hat - 0.125)
    assert gap <= 3.0 * wilson_se(sim)
    report(
        "02 hand anchor",
        f"p_f = 0.875 both forms, published variant pinned at 1.125, "
        f"MC gap {gap:.2e} <= 3se",
    )


def test_criterion_03_theory_vs_simulation_grid():
    worst = 0.0
    for a in (0.2, 0.5, 0.8):
        for b in (0.099, 0.3, 0.878):
            net = make_network(300, round(300 * (1.0 - a)))
            sim = estimate(net, b, trials=100_000, seed=int(1000 * a + 10_000 * b))
            want = failure_prob_sum(net, b).p_loc
            ratio = abs(sim.p_hat - want) / (3.0 * wilson_se(sim))
            worst = max(worst, ratio)
            assert abs(sim.p_hat - want) <= 3.0 * wilson_se(sim)
    report("03 theory vs simulation", f"worst |gap|/3se = {worst:.2f} over 9 cells at 1e5 trials")


def test_criterion_04_blind_fraction_threshold():
    for b in (0.1, 0.15, 0.2):
        closed = threshold_a_star(300, b)
        root = threshold_a_star_numeric(300, b)
        assert abs(root - closed) <= 1e-3
    assert threshold_a_star(300, 0.15) == pytest.approx(0.70172, abs=1e-3)
    report("04 threshold on blind fraction", "FD root within 1e-3 at b in {0.1, 0.15, 0.2}; 0.70172 anchor holds")


def test_criterion_05_coverage_threshold():
    large = threshold_b_star(300, 0.5, form="large_n")
    assert large == pytest.approx(0.12444, abs=1e-4)
    exact_hi = threshold_b_star(10_000, 0.5, form="exact")
    large_hi = threshold_b_star(10_000, 0.5, form="large_n")
    assert abs(exact_hi - large_hi) / exact_hi < 0.02
    exact = threshold_b_star(300, 0.5, form="exact")
    root = threshold_b_star_numeric(300, 0.5)
    gap = exact - root
    assert math.isfinite(root)  # gap recorded, equality deliberately not asserted
    report(
        "05 threshold on coverage",
        f"large-n anchor 0.12444; forms within 2% at n=1e4; numeric root gap {gap:+.2e}",
    )


def test_criterion_06_shadowing_constants():
    model = reference_model()
    assert model.sigma1 == pytest.approx(3.43, abs=0.01)
    assert model.d_hat_max == pytest.approx(19.3, abs=0.05)
    assert model.b_hat_max == pytest.approx(0.48, abs=0.005)
    report(
        "06 shadowing constants",
        f"sigma1 = {model.sigma1:.4f} dB, d_hat_max = {model.d_hat_max:.4f} m, "
        f"b_hat_max = {model.b_hat_max:.4f}",
    )


def test_criterion_07_mixed_pdf_normalization():
    rng = np.random.default_rng(20240807)
    worst = 0.0
    for _ in range(20):
        b_hat_max = float(rng.uniform(0.1, 0.95))
        b_o = float(rng.uniform(0.02, 1.2) * b_hat_max)
        sigma1 = float(rng.uniform(0.3, 6.0))
        dist = bhat_distribution(b_o, sigma1, b_hat_max)
        mass = integrate(
            lambda x: bhat_pdf(dist, x),
            1e-12 * b_o,
            b_hat_max,
            1e-11,
        )
        worst = max(worst, abs(dist.zero_mass + mass - 1.0))
    assert worst <= 1e-9
    report("07 mixed-pdf normalization", f"max |zero_mass + integral - 1| = {worst:.2e} over 20 triples")


def test_criterion_08_shadow_method_equivalence():
    rng = np.random.default_rng(42)
    b_hat_max = reference_model().b_hat_max
    worst_series = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 21))
        k = int(rng.integers(0, n + 1))
        net = make_network(n, k)
        dist = bhat_distribution(
            float(rng.uniform(0.02, 0.45)), float(rng.uniform(0.5, 4.0)), b_hat_max
        )
        integral = failure_prob_shadow(net, dist, "integrate_conditional").p_f
        series = failure_prob_shadow(net, dist, "alternating_sum").p_f
        worst_series = max(worst_series, abs(integral - series))
    assert worst_series <= 1e-6

    worst_moment = 0.0
    for n in (5, 8):
        for b_o in (0.05, 0.1, b_hat_max / 4.0):
            for sigma1 in (0.5, 1.0):
                net = make_network(n, n // 2)
                dist = bhat_distribution(b_o, sigma1, b_hat_max)
                integral = failure_prob_shadow(net, dist, "integrate_conditional").p_f
                approx = failure_prob_shadow(net, dist, "moment_approx").p_f
                worst_moment = max(worst_moment, abs(approx - integral) / integral)
    assert worst_moment <= 0.05
    report(
        "08 shadow method equivalence",
        f"max |integral - series| = {worst_series:.2e} (n <= 20); "
        f"moment approx within {100 * worst_moment:.3f}%",
    )


def test_criterion_09_fading_crossover():
    model = reference_model()
    net = make_network(50, 10)
    diffs = []
    for i in range(1, 48):
        b_o = 0.01 * i
        dist = bhat_distribution(b_o, model.sigma1, model.b_hat_max)
        shadowed = failure_prob_shadow(net, dist).p_loc
        plain = failure_prob_closed(net, b_o).p_loc
        diffs.append(shadowed - plain)
    flips = sum(1 for lo, hi in zip(diffs, diffs[1:]) if (lo > 0) != (hi > 0))
    assert diffs[0] > 0.0
    assert diffs[-1] < 0.0
    assert flips >= 1
    report(
        "09 fading crossover",
        f"gain at low coverage ({diffs[0]:+.2e}), loss at high ({diffs[-1]:+.2e}), "
        f"{flips} sign change(s)",
    )


def test_criterion_10_vanishing_fading_limit():
    model = reference_model(sigma_s=0.01)
    worst = 0.0
    for n, k in ((10, 5), (50, 10)):
        net = make_network(n, k)
        for b_o in (0.1, 0.2):
            assert b_o <= model.b_hat_max / 2.0
            dist = bhat_distribution(b_o, model.sigma1, model.b_hat_max)
            gap = abs(failure_prob_shadow(net, dist).p_f - failure_prob_closed(net, b_o).p_f)
            worst = max(worst, gap)
    assert worst <= 1e-3
    report("10 vanishing-fading limit", f"max |shadow - fixed| = {worst:.2e} at sigma_s = 0.01 dB")


@pytest.fixture(scope="module")
def fig6_rows():
    _, rows = run_sweep({"mode": "figure", "figure": "fig6", "trials": 1000, "seed": 0, "workers": 2})
    return rows


def test_criterion_11_density_sweep_shape(fig6_rows):
    curvature = {}
    worst_excess = -math.inf
    for n in (500, 1000, 3000):
        sub = sorted((r for r in fig6_rows if r["n"] == n), key=lambda r: r["a"])
        f = [r["p_loc_sim"] for r in sub]
        second = [f[i + 1] - 2.0 * f[i] + f[i - 1] for i in range(1, len(f) - 1)]
        curvature[n] = sum(second) / len(second)
        for r in sub:
            se = (r["ci_high"] - r["ci_low"]) / 2.0 / 1.959963984540054
            worst_excess = max(worst_excess, (r["p_loc_sim"] - r["p_loc_theory"]) / se)
    assert curvature[500] > 0.0
    assert curvature[3000] < 0.0
    assert worst_excess <= 3.0
    report(
        "11 density sweep shape",
        f"mean curvature {curvature[500]:+.4f} (n=500) / {curvature[3000]:+.4f} (n=3000); "
        f"max (sim - theory)/se = {worst_excess:+.2f}",
    )


def test_criterion_12_iterative_floor():
    for n in (4, 9, 17, 30):
        for b in (0.1, 0.45, 0.9):
            want = float(exact_binomial_cdf(2, n - 1, b * b))
            got = iterative_failure_floor(n, b)
            assert got == pytest.approx(want, rel=1e-12)
    for net in grid_networks():
        for b in GRID_B:
            assert failure_prob_sum(net, b).p_f >= iterative_failure_floor(net.n, b) - 1e-12
    report(
        "12 iterative floor",
        "matches exact big-integer binomial tail (n <= 30) and lower-bounds the failure bound",
    )


def test_criterion_13_deterministic_csv(tmp_path):
    paths = [tmp_path / name for name in ("one.csv", "two.csv", "four.csv")]
    base = [
        "estimate", "--n", "300", "--a", "0.2", "--b", "0.099",
        "--trials", "1000", "--seed", "1", "--quiet",
    ]
    assert main(base + ["--out", str(paths[0])]) == 0
    assert main(base + ["--out", str(paths[1])]) == 0
    assert main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
    first = paths[0].read_bytes()
    assert first == paths[1].read_bytes() == paths[2].read_bytes()
    report("13 deterministic output", f"{len(first)} bytes identical across reruns and workers 1/4")
