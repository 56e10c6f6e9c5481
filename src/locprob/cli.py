"""Experiment runner emitting deterministic CSV tables.

Verbs: `figure <name>` rebuilds one of the canned curve families as a data
table, `sweep <config.json>` runs a custom parameter grid, `threshold` and
`estimate` answer single queries.  A figure is a named sweep config (fig2,
a bare list of a* values, aside), `threshold` a one-cell sweep, and
`estimate` a simulate cell drawn from the master seed rather than from a
per-cell seed.  Every table re-runs byte-identically for the same seed:
floats carry 12 significant digits, line endings are LF, the leading
comment records the semantic configuration (worker count and output path
are execution details and deliberately excluded), and row order follows
grid order regardless of any parallelism.

A sweep config may hold only the fields its mode reads.  Only a simulating
command imports the Monte Carlo layer, and with it numpy, and it does so
while checking its config; the analytic, shadow and threshold commands run
on the standard library alone.

Exit codes: 0 success, 1 invalid configuration or an output file in a
missing directory (both caught before any row) or another unwritable output
file, 2 numerical non-convergence or a failed figure self-check.  Any other
error is an internal fault and ends in a traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from itertools import product

from . import __version__
from .analytic import (
    VARIANTS,
    _small_coverage_load,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from .model import bhat_distribution, make_network, make_shadow_model
from .shadowing import (ALTERNATING_SUM_MAX_N, METHODS, MOMENT_APPROX_MAX_N, NonConvergenceError,
                        failure_prob_shadow)

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig6", "fig_shadow")

_PROTOCOLS = {"center": "center_node", "all": "all_nl_nodes"}
_SHADOW_FIELDS = ("p0_dbm", "gamma_dbm", "d0", "n_p", "sigma_s", "R")
_RUN_FIELDS = ("trials", "seed", "workers")
# the fields each sweep mode reads besides 'mode' and 'variant'; any other is a config error
_MODE_FIELDS = {
    "analytic": ("n", "k", "a", "b", "method"),
    "simulate": ("n", "k", "a", "b", "protocol", "shadow_draw", *_RUN_FIELDS, *_SHADOW_FIELDS),
    "shadow": ("n", "k", "a", "b_o", "method", *_SHADOW_FIELDS),
    "threshold": ("n", "b", "a"),
    "figure": ("figure", *_RUN_FIELDS),
}
SWEEP_MODES = tuple(_MODE_FIELDS)
# the largest n at which each series form of the shadow bound holds
_SHADOW_MAX_N = {"alternating_sum": ALTERNATING_SUM_MAX_N, "moment_approx": MOMENT_APPROX_MAX_N}
# flags that override the sweep config's field of the same name
_SWEEP_FLAGS = ("trials", "seed", "variant", "workers", "protocol")


class CliError(Exception):
    """Invalid configuration or arguments (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's own failures onto exit code 1
        raise CliError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(out_path, config, header, rows, quiet):
    lines = [f"# locprob {__version__} config={json.dumps(config, sort_keys=True, separators=(',', ':'))}"]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(row.get(h)) for h in header) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file: {exc}") from exc
        if not quiet:
            print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)


def _check_out(out_path):
    """Fail an output file in a missing directory before any row is computed."""
    if out_path is not None and not os.path.isdir(os.path.dirname(out_path) or "."):
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)
        raise CliError(f"cannot write output file: {missing}")


def _cell_seed(seed: int, index: int) -> int:
    from numpy.random import SeedSequence

    return int(SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def estimate(net, b, protocol, **options):
    """`montecarlo.estimate`, imported at the first call so that only simulating loads numpy."""
    from . import montecarlo

    return montecarlo.estimate(net, b, protocol, **options)


# ---------------------------------------------------------------------------
# rows: one builder per table kind.  Layer functions are looked up in this
# module's globals at call time, so per-layer tracing can wrap them here.

_ANALYTIC_HEADER = ["n", "k", "a", "b", "p_f", "p_loc", "method", "variant"]
_A_STAR_HEADER = ["n", "b", "a_star", "a_star_fd", "gap"]
_B_STAR_HEADER = ["n", "a", "b_star_exact", "b_star_large_n", "b_star_fd", "gap_exact_fd"]
_FADING_COLUMNS = ["sigma1", "b_hat_max", "zero_mass"]
_SHADOW_HEADER = ["n", "k", "a", "b_o", *_FADING_COLUMNS, "p_f", "p_loc", "method", "variant"]
_SIMULATE_HEADER = ["n", "k", "a", "b", "p_f", "p_loc", "trials", "successes",
                    "ci_low", "ci_high", "realizations", "seed", "protocol"]


def _analytic_row(net, b, method, variant):
    if method == "closed":
        res = failure_prob_closed(net, b, variant)
    elif method == "sum":
        res = failure_prob_sum(net, b)
    else:
        res = failure_prob_approx_small(net, b)
    return {"n": net.n, "k": net.k, "a": net.a, "b": b, "p_f": res.p_f,
            "p_loc": res.p_loc, "method": res.method, "variant": res.variant}


def _a_star_row(n, b, variant):
    a_star = threshold_a_star(n, b)
    fd = threshold_a_star_numeric(n, b, variant) if a_star is not None else None
    return {"n": n, "b": b, "a_star": a_star, "a_star_fd": fd,
            "gap": None if fd is None else a_star - fd}


def _b_star_row(n, a, variant):
    exact = threshold_b_star(n, a, form="exact")
    approx = threshold_b_star(n, a, form="large_n")
    fd = threshold_b_star_numeric(n, a, variant)
    return {"n": n, "a": a, "b_star_exact": exact, "b_star_large_n": approx,
            "b_star_fd": fd, "gap_exact_fd": None if fd is None else exact - fd}


def _fading(dist):
    return {"sigma1": dist.sigma1, "b_hat_max": dist.b_hat_max, "zero_mass": dist.zero_mass}


def _shadow_row(net, b_o, model, method, variant):
    dist = bhat_distribution(b_o, model.sigma1, model.b_hat_max)
    res = failure_prob_shadow(net, dist, method, variant)
    return {"n": net.n, "k": net.k, "a": net.a, "b_o": b_o, **_fading(dist), "p_f": res.p_f,
            "p_loc": res.p_loc, "method": res.method, "variant": res.variant}


def _simulate_header(model):
    return _SIMULATE_HEADER[:4] + (_FADING_COLUMNS if model else []) + _SIMULATE_HEADER[4:]


def _simulate_row(net, b, protocol, model, trials, seed, pool):
    """One Monte Carlo cell; with a shadow model b is the true ratio b_o."""
    dist = bhat_distribution(b, model.sigma1, model.b_hat_max) if model else None
    sim = estimate(net, b, protocol, shadow=dist, trials=trials, seed=seed, pool=pool)
    row = {"n": net.n, "k": net.k, "a": net.a, "b": b, "p_f": 1.0 - sim.p_hat,
           "p_loc": sim.p_hat, "trials": sim.trials, "successes": sim.successes,
           "ci_low": sim.ci_low, "ci_high": sim.ci_high, "realizations": sim.realizations,
           "seed": sim.seed, "protocol": protocol.probe}
    return {**row, **_fading(dist)} if dist else row


# ---------------------------------------------------------------------------
# figures: each is a named sweep config, run by run_sweep's own branch

def _geometric_grid(j_lo: int, j_hi: int) -> list[float]:
    """The doubling grid 2^(j/22) - 1 used for both coverage and blind-fraction sweeps."""
    return [2.0 ** (j / 22.0) - 1.0 for j in range(j_lo, j_hi + 1)]


_FIGURE_SWEEPS = {
    "fig1": {"mode": "analytic", "n": 300, "a": [i / 50.0 for i in range(51)],
             "b": _geometric_grid(3, 20)},
    "fig3": {"mode": "analytic", "n": 300, "a": _geometric_grid(1, 20),
             "b": [i / 50.0 for i in range(51)]},
    "fig4": {"mode": "threshold", "n": 300, "a": [0.05 * i for i in range(20)]},
    "fig6": {"mode": "simulate", "n": [500, 1000, 3000], "a": [0.08 * j for j in range(1, 12)],
             "b": 0.05, "protocol": "all"},
    # the worked-example fraction (k = 10, a = 0.8) and the captioned one (k = 40, a = 0.2)
    "fig_shadow": {"mode": "shadow", "n": 50, "k": [10, 40], "b_o": [0.01 * i for i in range(1, 48)],
                   "p0_dbm": 0.0, "gamma_dbm": -80.0, "d0": 0.1, "n_p": 3.5, "sigma_s": 12.0,
                   "R": 40.0},
}


def _figure(name, variant, trials, seed, workers):
    """Header and rows of one figure: its sweep plus the figure's own columns."""
    if name == "fig2":  # a* alone; a threshold sweep would add a bisection per row
        return ["n", "b", "a_star"], [{"n": 300, "b": b, "a_star": threshold_a_star(300, b)}
                                      for b in (0.085 + 0.005 * i for i in range(159))]
    sweep = {**_FIGURE_SWEEPS[name], "variant": variant}
    if sweep["mode"] == "simulate":
        sweep.update(trials=trials, seed=seed, workers=workers)
    header, rows = run_sweep(sweep)

    def closed_p_loc(row, ratio):
        return failure_prob_closed(make_network(row["n"], row["k"]), row[ratio], variant).p_loc

    if name == "fig1":
        rows.sort(key=lambda row: row["b"])  # one curve per coverage ratio, a ascending
    elif name == "fig6":
        header = [*header[:4], "p_loc_theory", "p_loc_sim", *header[6:]]
        rows = [{**row, "p_loc_sim": row["p_loc"], "p_loc_theory": closed_p_loc(row, "b")}
                for row in rows]
    elif name == "fig_shadow":
        header = [*header[:7], "p_loc_shadow", "p_loc_noshadow", *header[9:]]
        rows = [{**row, "p_loc_shadow": row["p_loc"], "p_loc_noshadow": closed_p_loc(row, "b_o")}
                for row in rows]
    return header, rows


def _non_increasing(values):
    return all(y <= x for x, y in zip(values, values[1:]))


def _non_decreasing(values):
    return all(y >= x for x, y in zip(values, values[1:]))


def check_figure(name, rows) -> list[str]:
    """Post-emission self-test of the caption-level monotonicity claims.

    Only deterministic (theory) columns are checked; Monte Carlo columns are
    left to the statistical tests.
    """
    problems = []
    if name in ("fig1", "fig3"):
        by_b, by_a = {}, {}
        for row in rows:
            by_b.setdefault(row["b"], []).append((row["a"], row["p_loc"]))
            by_a.setdefault(row["a"], []).append((row["b"], row["p_loc"]))
        for b, pts in by_b.items():
            if not _non_increasing([p for _, p in sorted(pts)]):
                problems.append(f"{name}: p_loc not non-increasing in a at b={b:.6g}")
        for a, pts in by_a.items():
            if not _non_decreasing([p for _, p in sorted(pts)]):
                problems.append(f"{name}: p_loc not non-decreasing in b at a={a:.6g}")
    elif name == "fig2":
        if not _non_decreasing([row["a_star"] for row in rows]):
            problems.append("fig2: a_star not non-decreasing in b")
    elif name == "fig4":
        if not _non_decreasing([row["b_star_exact"] for row in rows]):
            problems.append("fig4: b_star not non-decreasing in a")
    elif name == "fig6":
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append((row["a"], row["p_loc_theory"]))
        for n, pts in by_n.items():
            if not _non_increasing([p for _, p in sorted(pts)]):
                problems.append(f"fig6: theory p_loc not non-increasing in a at n={n}")
    elif name == "fig_shadow":
        by_k = {}
        for row in rows:
            by_k.setdefault(row["k"], []).append(
                (row["b_o"], row["p_loc_noshadow"], row["p_loc_shadow"])
            )
        for k, pts in by_k.items():
            pts.sort()
            if not _non_decreasing([p for _, p, _ in pts]):
                problems.append(f"fig_shadow: unshadowed p_loc not non-decreasing (k={k})")
            diffs = [ps - pn for _, pn, ps in pts]
            if not (diffs[0] > 0.0 > diffs[-1]):
                problems.append(f"fig_shadow: no gain-to-loss crossing across b_o (k={k})")
    return problems


# ---------------------------------------------------------------------------
# sweep configs

def _listify(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _require(config, field, types, check=None, describe=""):
    if field not in config:
        raise CliError(f"missing required field '{field}'")
    values = _listify(config[field])
    if not values:
        raise CliError(f"empty grid: field '{field}' has no values")
    for v in values:
        if not isinstance(v, types) or isinstance(v, bool) or (check and not check(v)):
            raise CliError(f"invalid value for field '{field}': {v!r} {describe}".rstrip())
    return values


def _n_values(config, low=4):
    return _require(config, "n", int, lambda v: v >= low, f"(must be an integer >= {low})")


def _networks_from(config):
    n_values = _n_values(config)
    if "k" in config and "a" in config:
        raise CliError("give either field 'k' or field 'a', not both")
    nets = []
    if "k" in config:
        k_values = _require(config, "k", int, lambda v: v >= 0, "(must be a non-negative integer)")
        for n, k in product(n_values, k_values):
            if k > n:
                raise CliError(f"invalid value for field 'k': {k} (exceeds n={n})")
            nets.append(make_network(n, k))
    else:
        a_values = _require(config, "a", (int, float), lambda v: 0.0 <= v <= 1.0, "(must lie in [0, 1])")
        # the integer anchor count closest to the requested blind fraction
        nets.extend(make_network(n, round(n * (1.0 - float(a)))) for n, a in product(n_values, a_values))
    return nets


def _shadow_model_from(config):
    missing = [f for f in _SHADOW_FIELDS if f not in config]
    if missing:
        raise CliError(f"missing required field '{missing[0]}' (shadowing parameters)")
    vals = {}
    for f in _SHADOW_FIELDS:
        v = config[f]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise CliError(f"invalid value for field '{f}': {v!r} (must be a finite number)")
        vals[f] = float(v)
    try:
        return make_shadow_model(**vals)
    except ValueError as exc:
        raise CliError(f"invalid shadowing parameters: {exc}") from exc


def _simulate_config(config):
    """Validated (networks, protocol, shadow model or None, b values) of a simulate config."""
    protocol_name = config.get("protocol", "center")
    if protocol_name not in tuple(_PROTOCOLS):  # an unhashable value is a config error too
        raise CliError(f"invalid value for field 'protocol': {protocol_name!r} (expected 'center' or 'all')")
    nets = _networks_from(config)
    blindless = [net for net in nets if net.k == net.n] if protocol_name == "all" else []
    if blindless:
        raise CliError(f"invalid value for field '{'k' if 'k' in config else 'a'}': "
                       f"n={blindless[0].n}, k={blindless[0].k} leaves no blind node for protocol 'all'")
    shadowed = any(f in config for f in _SHADOW_FIELDS)
    model = _shadow_model_from(config) if shadowed else None
    draw = config.get("shadow_draw", "per_node" if shadowed else "none")
    if draw not in (("per_node", "per_link") if shadowed else ("none",)):
        why = ("expected 'per_node' or 'per_link'" if shadowed
               else f"needs the shadowing parameters {', '.join(_SHADOW_FIELDS)}")
        raise CliError(f"invalid value for field 'shadow_draw': {draw!r} ({why})")
    from .montecarlo import TrialProtocol  # a simulate command loads numpy here, before any row

    protocol = TrialProtocol(probe=_PROTOCOLS[protocol_name], shadow_draw=draw)
    # a shadowed b is the true ratio b_o, which must be positive
    if shadowed:
        b_values = _require(config, "b", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
    else:
        b_values = _require(config, "b", (int, float), lambda v: 0.0 <= v <= 1.0, "(must lie in [0, 1])")
    return nets, protocol, model, [float(b) for b in b_values]


def _run_settings(config):
    """Validated (trials, seed, workers) of a Monte Carlo or figure sweep."""
    settings = []
    for field, default, low in (("trials", 1000, 1), ("seed", 0, 0), ("workers", 1, 1)):
        v = config.get(field, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            kind = "positive" if low else "non-negative"
            raise CliError(f"invalid value for field '{field}': {v!r} (must be a {kind} integer)")
        settings.append(v)
    return settings


def run_sweep(config: dict):
    """Header and rows for a JSON-configured sweep (grid in declaration order)."""
    mode = config.get("mode")
    if mode not in SWEEP_MODES:
        raise CliError(f"invalid value for field 'mode': {mode!r} (expected one of {SWEEP_MODES})")
    unread = [field for field in config if field not in ("mode", "variant", *_MODE_FIELDS[mode])]
    if unread:
        raise CliError(f"unknown field {unread[0]!r} for {mode} mode")
    variant = config.get("variant", "corrected")
    if variant not in VARIANTS:
        raise CliError(f"invalid value for field 'variant': {variant!r}")

    if mode == "figure":
        name = config.get("figure")
        if name not in FIGURES:
            raise CliError(f"invalid value for field 'figure': {name!r} (expected one of {FIGURES})")
        return _figure(name, variant, *_run_settings(config))

    if mode == "threshold":
        # a* needs n >= 5, b* needs n >= 10
        if "b" in config and "a" in config:
            raise CliError("give either field 'b' or field 'a', not both")
        if "b" in config:
            n_values = _n_values(config, 5)
            b_values = _require(config, "b", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
            return _A_STAR_HEADER, [_a_star_row(n, float(b), variant)
                                    for n, b in product(n_values, b_values)]
        if "a" in config:
            n_values = _n_values(config, 10)
            a_values = _require(config, "a", (int, float), lambda v: 0.0 <= v < 1.0, "(must lie in [0, 1))")
            return _B_STAR_HEADER, [_b_star_row(n, float(a), variant)
                                    for n, a in product(n_values, a_values)]
        raise CliError("missing required field 'b' or 'a' for threshold mode")

    if mode == "simulate":
        trials, seed, workers = _run_settings(config)
        nets, protocol, model, b_values = _simulate_config(config)
        from .montecarlo import worker_pool

        with worker_pool(workers) as pool:
            rows = [_simulate_row(net, b, protocol, model, trials, _cell_seed(seed, i), pool)
                    for i, (net, b) in enumerate(product(nets, b_values))]
        return _simulate_header(model), rows

    nets = _networks_from(config)

    if mode == "analytic":
        method = config.get("method", "closed")
        if method not in ("closed", "sum", "approx_small"):
            raise CliError(f"invalid value for field 'method': {method!r}")
        b_values = _require(config, "b", (int, float), lambda v: 0.0 <= v <= 1.0, "(must lie in [0, 1])")
        cells = [(net, float(b)) for net, b in product(nets, b_values)]
        if method == "approx_small":
            for net, b in cells:
                s, limit = _small_coverage_load(net.n, net.a, b)
                if s >= limit:
                    raise CliError(f"invalid value for field 'b': {b!r} (approx_small needs (1-a) b^2 "
                                   f"< 2/n, got {s:.4g} >= {limit:.4g} at n={net.n}, k={net.k})")
        return _ANALYTIC_HEADER, [_analytic_row(net, b, method, variant) for net, b in cells]

    # mode == "shadow"
    method = config.get("method", "integrate_conditional")
    if method not in METHODS:
        raise CliError(f"invalid value for field 'method': {method!r} (expected one of {METHODS})")
    if method in _SHADOW_MAX_N:
        limit = _SHADOW_MAX_N[method]
        _require(config, "n", int, lambda v: v <= limit, f"({method} needs n <= {limit})")
    model = _shadow_model_from(config)
    b_values = _require(config, "b_o", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
    return _SHADOW_HEADER, [_shadow_row(net, float(b_o), model, method, variant)
                            for net, b_o in product(nets, b_values)]


# ---------------------------------------------------------------------------
# verbs

def _cmd_figure(args):
    config = {"figure": args.name, "trials": args.trials, "seed": args.seed,
              "variant": args.variant}
    header, rows = run_sweep({**config, "mode": "figure", "workers": args.workers})
    _write_table(args.out, config, header, rows, args.quiet)
    problems = check_figure(args.name, rows)
    if problems:
        for p in problems:
            print(f"self-check FAILED: {p}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"self-check ok: {args.name}", file=sys.stderr)
    return 0


def _cmd_sweep(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    for flag in _SWEEP_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    out = config.pop("out", None)  # read here, not by the sweep; --out overrides it
    if out is not None and not isinstance(out, str):  # open() would take an int as a descriptor
        raise CliError(f"invalid value for field 'out': {out!r} (must be a file path)")
    out = out if args.out is None else args.out
    _check_out(out)
    header, rows = run_sweep(config)
    emitted = {k: v for k, v in config.items() if k != "workers"}
    _write_table(out, emitted, header, rows, args.quiet)
    return 0


def _cmd_threshold(args):
    if (args.b is None) == (args.a is None):
        raise CliError("give exactly one of --b (threshold on a) or --a (threshold on b)")
    axis = "b" if args.b is not None else "a"
    config = {"mode": "threshold", "n": args.n, axis: getattr(args, axis), "variant": args.variant}
    header, rows = run_sweep(config)
    _write_table(args.out, config, header, rows, args.quiet)
    return 0


def _cmd_estimate(args):
    trials, seed, workers = _run_settings(vars(args))
    if (args.k is None) == (args.a is None):
        raise CliError("give exactly one of --k or --a")
    axis = "k" if args.k is not None else "a"
    config = {"mode": "simulate", "n": args.n, axis: getattr(args, axis), "b": args.b,
              "trials": trials, "seed": seed, "protocol": args.protocol}
    shadow = {f: getattr(args, f) for f in _SHADOW_FIELDS}
    missing = [f for f, v in shadow.items() if v is None]
    if len(missing) < len(shadow):
        if missing:
            raise CliError(f"shadowed estimate needs --{missing[0].replace('_', '-')}")
        config.update(shadow, shadow_draw=args.shadow_draw or "per_node")
    elif args.shadow_draw is not None:
        config["shadow_draw"] = args.shadow_draw  # rejected: nothing to draw without shadowing
    [net], protocol, model, [b] = _simulate_config(config)
    from .montecarlo import worker_pool

    # the master seed itself drives the one cell, as the printed seed says
    with worker_pool(workers) as pool:
        row = _simulate_row(net, b, protocol, model, trials, seed, pool)
    config = {**{f: v for f, v in config.items() if f != "a"}, "k": net.k}  # record the anchor count
    _write_table(args.out, config, _simulate_header(model), [row], args.quiet)
    return 0


def _add_common(parser: _Parser, names: tuple[str, ...], defer_to_config: bool = False) -> None:
    """--out, --quiet and the shared value flags in `names`.

    A verb registers only the flags it reads, so a flag it would ignore is
    rejected as unrecognized (exit 1) rather than accepted silently.  With
    defer_to_config the value defaults become None so a sweep config file
    wins unless the flag is given explicitly.
    """
    dflt = (lambda v: None) if defer_to_config else (lambda v: v)
    flags = {
        "seed": dict(type=int, default=dflt(0), help="master seed (default 0)"),
        "trials": dict(type=int, default=dflt(1000),
                       help="Monte Carlo realizations per point (default 1000)"),
        "variant": dict(choices=VARIANTS, default=dflt("corrected"),
                        help="closed-form coefficient variant"),
        "protocol": dict(choices=sorted(_PROTOCOLS), default=dflt("center"),
                         help="probe protocol for simulations"),
        "workers": dict(type=int, default=dflt(1),
                        help="parallel workers (results are worker-count independent)"),
    }
    for name in names:
        parser.add_argument(f"--{name}", **flags[name])
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    parser.add_argument("--quiet", action="store_true", help="suppress status messages")


def _build_parser() -> _Parser:
    parser = _Parser(prog="locprob", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fig = sub.add_parser("figure", help="emit a canned figure table")
    _add_common(p_fig, ("seed", "trials", "variant", "workers"))
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="run a JSON-configured sweep")
    _add_common(p_sweep, _SWEEP_FLAGS, defer_to_config=True)
    p_sweep.add_argument("config", help="path to the JSON sweep configuration")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_thr = sub.add_parser("threshold", help="transition-threshold query")
    _add_common(p_thr, ("variant",))
    p_thr.add_argument("--n", type=int, required=True)
    p_thr.add_argument("--b", type=float, default=None, help="coverage ratio (query a*)")
    p_thr.add_argument("--a", type=float, default=None, help="blind fraction (query b*)")
    p_thr.set_defaults(func=_cmd_threshold)

    p_est = sub.add_parser("estimate", help="Monte Carlo estimate query")
    _add_common(p_est, ("seed", "trials", "protocol", "workers"))
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--k", type=int, default=None, help="anchor count")
    p_est.add_argument("--a", type=float, default=None, help="blind fraction (alternative to --k)")
    p_est.add_argument("--b", type=float, required=True, help="coverage ratio (b_o when shadowed)")
    for field in _SHADOW_FIELDS:
        p_est.add_argument(f"--{field.replace('_', '-')}", type=float, default=None)
    p_est.add_argument("--shadow-draw", choices=("per_node", "per_link"), default=None,
                       help="fading-draw granularity when shadowed (default per_node)")
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
