"""Workload definitions: the CLI invocations one pass of each workload makes.

A workload is a list of steps.  Each step is one `locprob` CLI invocation,
made in-process through `locprob.cli.main`; a sweep step also carries the
JSON config the benchmark writes for it.  The inputs are a pure function of
(workload, seed, size): the seed is the Monte Carlo master seed of the two
simulation workloads and picks the seeded parameter grids of
`analytic_tables`.  The canned figure tables have no inputs beyond their
name, so their bytes are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("fig6_field", "center_sweep", "analytic_tables")
SIZES = ("full", "smoke")

# The pinned seed: reference CSV digests in refs.json were recorded for it.
PINNED_SEED = 0

# The kind of reference slice timed alongside each workload (reference.py):
# the same kind of work as the workload's, so that machine drift slows both alike.
REFERENCE_KIND = {"fig6_field": "numpy", "center_sweep": "mixed", "analytic_tables": "scalar"}

# Reference propagation scenario of the fig_shadow table (sigma1 ~ 3.43 dB).
SHADOW_MODEL = {"p0_dbm": 0, "gamma_dbm": -80, "d0": 0.1, "n_p": 3.5, "sigma_s": 12, "R": 40}

# Rows of the canned figure tables; fig6 has 3 network sizes x 11 blind fractions.
_FIGURE_ROWS = {"fig1": 18 * 51, "fig2": 159, "fig3": 20 * 51, "fig4": 20, "fig_shadow": 2 * 47}
_FIG6_ROWS = 33


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what its CSV must look like."""

    label: str
    argv: tuple[str, ...]  # "{config}" stands for the path of `config` once written
    rows: int
    config: dict | None = None
    # the trials each row must report as its realization count (Monte Carlo steps)
    realizations: int | None = None


def _grid(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """Seeded values, one drawn in each of `count` equal strata of [lo, hi].

    Stratifying keeps the work of a sweep nearly seed-independent: with plain
    uniform draws the shadow quadrature's integrand evaluations varied by 14 %
    across seeds, with strata by 0.3 %.  Rounded so the config stays readable.
    """
    width = (hi - lo) / count
    return [round(lo + (i + rng.random()) * width, 6) for i in range(count)]


def _sweep(label: str, config: dict, rows: int, *flags: str, **kw) -> Step:
    return Step(label, ("sweep", "{config}", *flags, "--quiet"), rows, config, **kw)


def fig6_field(seed: int, size: str) -> list[Step]:
    # The paper's headline validation: fig6's full grid under the field
    # protocol, one worker, so the dense probes x anchors count dominates.
    # Four trials keep a pass near a second, so a run has enough passes for
    # a steady median.
    trials = 4 if size == "full" else 1
    argv = ("figure", "fig6", "--trials", str(trials), "--seed", str(seed),
            "--workers", "1", "--quiet")
    return [Step("fig6", argv, _FIG6_ROWS, realizations=trials)]


def center_sweep(seed: int, size: str) -> list[Step]:
    # Centre-probe simulation in all three fading-draw modes at 2 workers:
    # many small cells (pool start-up dominates) plus a few 1e5-trial cells
    # (the vectorised kernel and the fading draws dominate).
    small, large = (2000, 100_000) if size == "full" else (200, 2000)
    flags = ("--workers", "2", "--seed", str(seed))
    plain = {"mode": "simulate", "protocol": "center", "n": [50, 300, 1000],
             "a": [0.2, 0.5, 0.8], "b": [0.1, 0.2], "trials": small}
    per_node = {"mode": "simulate", "protocol": "center", "n": 300, "a": 0.5,
                "b": [0.1, 0.2], "trials": large, "shadow_draw": "per_node", **SHADOW_MODEL}
    per_link = {"mode": "simulate", "protocol": "center", "n": 300, "a": 0.5,
                "b": [0.15], "trials": large, "shadow_draw": "per_link", **SHADOW_MODEL}
    return [
        _sweep("none", plain, 18, *flags, realizations=small),
        _sweep("per_node", per_node, 2, *flags, realizations=large),
        _sweep("per_link", per_link, 1, *flags, realizations=large),
    ]


def analytic_tables(seed: int, size: str) -> list[Step]:
    # Deterministic tables only, no Monte Carlo: closed forms and thresholds
    # (fig1-fig4), shadow quadrature (fig_shadow and the shadow sweeps), the
    # n = 3000 series and numeric threshold roots.
    rng = random.Random(seed)
    full = size == "full"
    n_bo, n_small_bo, n_b, n_thr = (100, 25, 20, 20) if full else (4, 2, 2, 2)
    steps = [Step(name, ("figure", name, "--quiet"), rows) for name, rows in _FIGURE_ROWS.items()]

    shadow = {"mode": "shadow", "n": [50, 300, 3000], "a": [0.2, 0.8],
              "b_o": _grid(rng, n_bo, 0.01, 0.47), "method": "integrate_conditional",
              **SHADOW_MODEL}
    steps.append(_sweep("shadow", shadow, 6 * n_bo))
    # alternating_sum is only stable for n <= 30; at n = 20 it cross-checks the integral.
    small_bo = _grid(rng, n_small_bo, 0.01, 0.47)
    for method in ("integrate_conditional", "alternating_sum"):
        config = {"mode": "shadow", "n": 20, "a": [0.2, 0.8], "b_o": small_bo,
                  "method": method, **SHADOW_MODEL}
        steps.append(_sweep(f"shadow_n20_{method}", config, 2 * n_small_bo))

    b_values = _grid(rng, n_b, 0.001, 0.999)
    for method in ("sum", "closed"):
        config = {"mode": "analytic", "method": method, "n": 3000, "a": [0.2, 0.5, 0.8],
                  "b": b_values}
        steps.append(_sweep(f"analytic_{method}", config, 3 * n_b))

    # b in [0.15, 0.55] keeps a* inside (0, 1) with a bracketable root for every n here.
    threshold = {"mode": "threshold", "n": [100, 300, 1000], "b": _grid(rng, n_thr, 0.15, 0.55)}
    steps.append(_sweep("threshold", threshold, 3 * n_thr))
    return steps


def build(workload: str, seed: int, size: str) -> list[Step]:
    """Steps of one pass of `workload` for this seed and size."""
    return {"fig6_field": fig6_field, "center_sweep": center_sweep,
            "analytic_tables": analytic_tables}[workload](seed, size)
