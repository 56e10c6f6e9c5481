"""Seeded Monte Carlo oracle for localization probabilities.

Node configurations are sampled on the unit disk with the square-root radial
transform (area-uniform placement).  Two probe protocols are implemented:

* "center_node" reproduces the interior-node model behind the closed forms:
  the probe sits at the origin and every other node is an anchor
  independently with probability k/n, so the anchors-in-range count is
  binomial(n-1, (1-a) b^2) exactly.
* "all_nl_nodes" is the field protocol: n nodes, exactly k anchors chosen
  uniquely at random, every blind node probed, and the per-configuration
  statistic is the fraction of blind nodes that localize.  Boundary nodes
  see a clipped coverage disk, which depresses this estimate below the
  interior-node theory -- that gap is intentional and measurable.

Shadowed coverage draws one fading value per probe ("per_node", matching the
mixed-ratio analysis: the probe's effective ratio is b * 10^(-X1/10), zeroed
when it exceeds b_hat_max) or one per link ("per_link", a different model,
kept behind the flag for comparison).

The field protocol counts anchors in range on a uniform grid: anchors are
bucketed into square cells a little wider than the largest effective radius,
and each probe measures only the anchors in its 3 x 3 block of cells.  Without
fading several realizations share one grid pass, each in its own band of rows.
The squared distances use the same float operations as a full probes x anchors
block, so counts (and CSVs) are identical to a dense count; one kernel serves
all three fading modes.  "per_link" still draws its full probes x anchors
block of fading values, so the random-stream layout does not depend on which
pairs the grid measures, but turns only the measured ones into ratios; the
centre kernel likewise computes them only for anchors within b_hat_max.

The centre kernel walks its trials in row blocks of about 2^15 (trial, node)
pairs, so each block is drawn and counted while it sits in cache.  A chunk's
stream holds all its radius uniforms, then all its anchor uniforms, then its
fading draws; a float64 uniform takes exactly one PCG64 output, so each
uniform run is read from a copy of the stream advanced to its offset and the
blocks draw the same numbers as whole-chunk draws.

Determinism: trials are partitioned into fixed-size chunks and chunk i draws
from an independent stream spawned from the master seed, so results are
identical for any worker count.  Chunks run in-process unless the caller
passes a `worker_pool`, which a sweep or figure shares across its cells.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analytic import _check_ratio
from .model import BhatDistribution, NetworkParams

PROBE_CHOICES = ("center_node", "all_nl_nodes")
SHADOW_CHOICES = ("none", "per_node", "per_link")

# Chunk sizes define the random-stream layout; they are pure functions of the
# run parameters, so changing them changes the sampled numbers (not the
# distribution) and is part of the reproducibility contract.
_ALL_NODES_CHUNK = 32
# Nodes per unfaded field-protocol grid pass: larger passes measured slower.
_FIELD_PASS_NODES = 4096

_WILSON_Z = 1.959963984540054  # two-sided 95%


def _center_chunk_size(n: int) -> int:
    # fixes only the stream layout (see the chunk note above); memory is
    # bounded by _CENTER_BLOCK_PAIRS
    return min(4096, max(128, 2**20 // n))


# (trial, node) pairs per block of centre trials: one block's draws stay in cache
_CENTER_BLOCK_PAIRS = 2**15


@dataclass(frozen=True)
class TrialProtocol:
    """Probe selection and fading-draw granularity for one trial."""

    probe: str = "center_node"
    shadow_draw: str = "none"

    def __post_init__(self) -> None:
        if self.probe not in PROBE_CHOICES:
            raise ValueError(f"probe must be one of {PROBE_CHOICES}, got {self.probe!r}")
        if self.shadow_draw not in SHADOW_CHOICES:
            raise ValueError(
                f"shadow_draw must be one of {SHADOW_CHOICES}, got {self.shadow_draw!r}"
            )


@dataclass(frozen=True)
class Realization:
    """One sampled configuration: polar positions plus anchor flags."""

    radii: np.ndarray
    angles: np.ndarray
    l_flags: np.ndarray


@dataclass(frozen=True)
class ProbEstimate:
    """Pooled trial outcomes with a Wilson 95% interval.

    trials counts pooled probe outcomes (equal to realizations for the
    center protocol; realizations * blind-node count for all_nl_nodes).
    p_hat estimates the localization (success) probability.
    """

    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    realizations: int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Score-based binomial 95% confidence interval, valid at the extremes."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p, z = successes / trials, _WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def sample_realization(rng: np.random.Generator, net: NetworkParams) -> Realization:
    """Uniform positions on the unit disk with exactly net.k anchor flags.

    Radial coordinates are square roots of uniform draws so that point
    density is uniform in area; anchors are k unique indices chosen at
    random, re-drawn for every realization.
    """
    radii = np.sqrt(rng.random(net.n))
    angles = rng.uniform(-np.pi, np.pi, net.n)
    l_flags = np.zeros(net.n, dtype=bool)
    l_flags[rng.choice(net.n, size=net.k, replace=False)] = True
    return Realization(radii=radii, angles=angles, l_flags=l_flags)


def _effective_ratios(
    b: float, shadow: BhatDistribution, draws: np.ndarray
) -> np.ndarray:
    """Per-draw effective coverage ratio b * 10^(-X1/10), zeroed past b_hat_max."""
    ratio = b * 10.0 ** (-draws / 10.0)
    return np.where(ratio <= shadow.b_hat_max, ratio, 0.0)


def _fading_draws(protocol, shadow, rng, probes, anchors):
    """Fading draws in stream order: none, one per probe, or one per (probe, anchor) pair."""
    if protocol.shadow_draw == "none":
        return None
    shape = probes if protocol.shadow_draw == "per_node" else (probes, anchors)
    return rng.normal(0.0, shadow.sigma1, shape)


def _check_shadow_args(protocol, shadow, b):
    """Shadow parameters come exactly with a fading draw, and at the coverage ratio b."""
    if (shadow is None) != (protocol.shadow_draw == "none"):
        needs = "requires" if shadow is None else "takes no"
        raise ValueError(f"shadow_draw={protocol.shadow_draw!r} {needs} shadow parameters")
    if shadow is not None and not math.isclose(shadow.b_o, b, rel_tol=1e-12):
        raise ValueError(f"shadow.b_o = {shadow.b_o} does not match the coverage ratio b = {b}")


def _grid_pairs(px, py, ax, ay, reach):
    """Probe/anchor pairs whose anchor lies in the probe's 3x3 cell block.

    Rows of px, py (m, P) and ax, ay (m, K) are realizations.  Anchors are
    bucketed into square cells of side h > reach on [-1, 1]^2 (edge cells
    absorb anything outside), so every anchor within reach of a probe sits in
    the probe's cell or one of its eight neighbours.  The 1e-9 margin keeps
    that true under rounding of the cell index; the 0.5/sqrt(K) floor caps a
    grid at 16 K cells when reach is tiny.  Each realization has its own band
    of rows with an empty row above and below, so blocks never mix them.
    Returns the flat probe and anchor index of each pair, grouped by probe.
    """
    m, k = ax.shape
    side = max(reach * (1.0 + 1e-9), 0.5 / math.sqrt(max(k, 1)))
    cells = max(1, int(2.0 / side))

    def row_col(vx, vy):
        # first row of the realization's band, plus the row and column inside it
        band = np.arange(m)[:, None] * (cells + 2)
        cx, cy = (np.clip((v + 1.0) / side, 0, cells - 1).astype(np.intp) for v in (vx, vy))
        return (band + cy).ravel(), cx.ravel()

    row, col = row_col(ax, ay)
    anchor_cell = (row + 1) * cells + col
    order = np.argsort(anchor_cell)
    # cells c0..c1 hold order[start[c0]:start[c1 + 1]]
    start = np.cumsum(np.bincount(anchor_cell + 1, minlength=m * (cells + 2) * cells + 1))
    row, col = row_col(px, py)
    rows = (row[:, None] + np.arange(3)) * cells
    lo = start[rows + np.maximum(col - 1, 0)[:, None]].ravel()
    length = start[rows + np.minimum(col + 1, cells - 1)[:, None] + 1].ravel() - lo
    owner = np.repeat(np.arange(row.size).repeat(3), length)
    pos = np.arange(owner.size) + np.repeat(lo - np.cumsum(length) + length, length)
    return owner, order[pos]


def _count_in_range(realizations, draws, b, protocol, shadow):
    """Anchors within each blind probe's effective radius, shape (m, P).

    The m realizations share one anchor count (per_link: m = 1); draws[g] is
    realization g's _fading_draws.  Per-link ratios are computed only at the
    pairs _grid_pairs returns.
    """
    m = len(realizations)
    radii = np.stack([r.radii for r in realizations])
    angles = np.stack([r.angles for r in realizations])
    flags = np.stack([r.l_flags for r in realizations])
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)
    px, py = x[~flags].reshape(m, -1), y[~flags].reshape(m, -1)
    ax, ay = x[flags].reshape(m, -1), y[flags].reshape(m, -1)
    if protocol.shadow_draw == "none":
        owner, anchor = _grid_pairs(px, py, ax, ay, b)
        limit = b
    elif protocol.shadow_draw == "per_node":
        eff = _effective_ratios(b, shadow, np.stack(draws)).ravel()
        owner, anchor = _grid_pairs(px, py, ax, ay, float(np.max(eff, initial=0.0)))
        limit = eff[owner]
    else:
        # b_hat_max bounds every effective ratio before any is computed
        owner, anchor = _grid_pairs(px, py, ax, ay, shadow.b_hat_max)
        limit = _effective_ratios(b, shadow, draws[0][owner, anchor])
    dx = px.ravel()[owner] - ax.ravel()[anchor]
    dy = py.ravel()[owner] - ay.ravel()[anchor]
    hit = owner[dx * dx + dy * dy <= limit * limit]
    return np.bincount(hit, minlength=px.size).reshape(px.shape)


def _cell_seed(seed: int, index: int) -> int:
    """Master seed of a sweep's cell `index`, spawned from the sweep's seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    # default_rng's generator, spelled out because _center_chunk relies on PCG64.advance
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _stream_at(rng: np.random.Generator, outputs: int) -> np.random.Generator:
    """A generator on a copy of rng's stream, moved on by `outputs` 64-bit outputs."""
    bit_generator = copy.deepcopy(rng.bit_generator)
    bit_generator.advance(outputs)
    return np.random.Generator(bit_generator)


def _center_chunk(args) -> tuple[int, int]:
    """Vectorised centered-probe trials in row blocks; returns (successes, probes).

    The m*(n-1) radius and m*(n-1) anchor uniforms are read from copies of the
    stream at their offsets.  rng itself skips both runs and draws the fading
    values, whose normals take a variable number of outputs, so it ends where
    whole-chunk draws would.
    """
    seed, index, m, net, b, protocol, shadow = args
    rng = _chunk_rng(seed, index)
    n_other = net.n - 1
    radii_rng, anchor_rng = _stream_at(rng, 0), _stream_at(rng, m * n_other)
    rng.bit_generator.advance(2 * m * n_other)
    rows = max(1, _CENTER_BLOCK_PAIRS // n_other)
    successes = 0
    for start in range(0, m, rows):
        block = min(rows, m - start)
        sq_radii = radii_rng.random((block, n_other))
        anchor = anchor_rng.random((block, n_other)) < (net.k / net.n)
        draws = _fading_draws(protocol, shadow, rng, block, n_other)
        if protocol.shadow_draw == "per_link":
            # every effective ratio is <= b_hat_max or 0, so no other pair can hit
            bhm = shadow.b_hat_max
            row, col = np.nonzero(anchor & (sq_radii <= bhm * bhm))
            eff = _effective_ratios(b, shadow, draws[row, col])
            counts = np.bincount(row[sq_radii[row, col] <= eff * eff], minlength=block)
        else:
            eff = b if draws is None else _effective_ratios(b, shadow, draws).reshape(block, 1)
            anchor &= sq_radii <= eff * eff
            counts = np.count_nonzero(anchor, axis=1)
        successes += int(np.count_nonzero(counts >= 3))
    return successes, m


def _all_nodes_chunk(args) -> tuple[int, int]:
    """Field-protocol trials, each realization drawn before its fading values.

    With fading the reach is near b_hat_max and a grid pass measures a large
    share of all pairs, so one realization per pass keeps memory flat in m.
    """
    seed, index, m, net, b, protocol, shadow = args
    rng = _chunk_rng(seed, index)
    probes = net.n - net.k
    batch = math.ceil(_FIELD_PASS_NODES / net.n) if protocol.shadow_draw == "none" else 1
    successes = 0
    for done in range(0, m, batch):
        realizations, draws = [], []
        for _ in range(min(batch, m - done)):
            realizations.append(sample_realization(rng, net))
            draws.append(_fading_draws(protocol, shadow, rng, probes, net.k))
        counts = _count_in_range(realizations, draws, b, protocol, shadow)
        successes += int((counts >= 3).sum())
    return successes, m * probes


@contextmanager
def worker_pool(workers: int):
    """Process pool shared by a run of estimate calls; None at one worker, ValueError below."""
    if workers == 1:
        yield None
        return
    # at most one process per CPU: a fork-started pool starts them all at its first submit
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        yield pool


def estimate(
    net: NetworkParams,
    b: float,
    protocol: TrialProtocol = TrialProtocol(),
    shadow: BhatDistribution | None = None,
    trials: int = 1000,
    seed: int = 0,
    pool: ProcessPoolExecutor | None = None,
) -> ProbEstimate:
    """Monte Carlo estimate of the localization probability.

    trials counts sampled realizations.  For all_nl_nodes the outcomes of
    every blind probe are pooled (the per-realization statistic is the
    localized fraction) and the realization count is reported alongside.
    The result is a pure function of (seed, trials, parameters, protocol):
    the chunked stream layout makes it independent of the worker count.
    Chunks map on pool when given (see worker_pool), else in this process.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_ratio(b)
    _check_shadow_args(protocol, shadow, b)
    if protocol.probe == "all_nl_nodes" and net.k == net.n:
        raise ValueError("all_nl_nodes protocol needs at least one blind node (k < n)")

    if protocol.probe == "center_node":
        chunk_size, kernel = _center_chunk_size(net.n), _center_chunk
    else:
        chunk_size, kernel = _ALL_NODES_CHUNK, _all_nodes_chunk
    jobs = [
        (seed, i, min(chunk_size, trials - i * chunk_size), net, b, protocol, shadow)
        for i in range((trials + chunk_size - 1) // chunk_size)
    ]
    results = list((map if pool is None else pool.map)(kernel, jobs))
    successes = sum(r[0] for r in results)
    probes = sum(r[1] for r in results)
    ci_low, ci_high = wilson_interval(successes, probes)
    return ProbEstimate(
        trials=probes,
        successes=successes,
        p_hat=successes / probes,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed,
        realizations=trials,
    )
