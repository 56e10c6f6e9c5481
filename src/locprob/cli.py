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

Exit codes: 0 success; 1 invalid configuration or an unwritable output path
(a config, and a path that is a directory or lies in a missing or unwritable
one, fail before any row); 2 numerical non-convergence, or a figure that fails
a caption claim, under the `figure` verb and a `figure` sweep alike.  Any
other error is an internal fault and ends in a traceback.
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
    """Fail an output path that open() would reject as a directory or for its directory."""
    if out_path is None:
        return
    folder = os.path.dirname(out_path) or "."
    for failed, code in ((os.path.isdir(out_path), errno.EISDIR),
                         (not os.path.isdir(folder), errno.ENOENT),
                         (not os.access(folder, os.W_OK), errno.EACCES)):
        if failed:
            raise CliError(f"cannot write output file: {OSError(code, os.strerror(code), out_path)}")


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


# The caption claims of each figure, on its deterministic (theory) columns only;
# Monte Carlo columns are left to the statistical tests.  A claim is (series
# column or None for one series, x column, y column, sign): within each series,
# y never falls (+1) or never rises (-1) as x grows.
_CLAIMS = {
    "fig1": (("b", "a", "p_loc", -1), ("a", "b", "p_loc", +1)),
    "fig2": ((None, "b", "a_star", +1),),
    "fig3": (("b", "a", "p_loc", -1), ("a", "b", "p_loc", +1)),
    "fig4": ((None, "a", "b_star_exact", +1),),
    "fig6": (("n", "a", "p_loc_theory", -1),),
    "fig_shadow": (("k", "b_o", "p_loc_noshadow", +1),),
}


def check_figure(name, rows) -> list[str]:
    """Post-emission self-test of a figure's caption claims (`_CLAIMS`)."""
    problems = []
    for series, x, y, sign in _CLAIMS[name]:
        groups = {}
        for row in rows:
            groups.setdefault(row.get(series), []).append(row)  # row.get(None) is None
        for key, group in groups.items():
            group.sort(key=lambda row: row[x])
            where = "" if series is None else f" at {series}={key:.6g}"
            # comparisons, not a signed difference, so that a nan fails the claim
            values = [sign * row[y] for row in group]
            if not all(later >= earlier for earlier, later in zip(values, values[1:])):
                problems.append(f"{name}: {y} not non-{'de' if sign > 0 else 'in'}creasing in {x}{where}")
            if name == "fig_shadow":  # fading gains coverage at small b_o and loses it at large
                diffs = [row["p_loc_shadow"] - row["p_loc_noshadow"] for row in group]
                if not diffs[0] > 0.0 > diffs[-1]:
                    problems.append(f"fig_shadow: no gain-to-loss crossing across b_o{where}")
    return problems


# ---------------------------------------------------------------------------
# sweep configs

def _require(config, field, types, check=None, describe=""):
    if field not in config:
        raise CliError(f"missing required field '{field}'")
    values = config[field]
    values = list(values) if isinstance(values, (list, tuple)) else [values]
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
    if ("k" in config) == ("a" in config):
        raise CliError("give either field 'k' or field 'a', not both" if "k" in config
                       else "missing required field 'k' or 'a'")
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
        if ("b" in config) == ("a" in config):
            raise CliError("give either field 'b' or field 'a', not both" if "b" in config
                           else "missing required field 'b' or 'a' for threshold mode")
        if "b" in config:
            n_values = _n_values(config, 5)
            b_values = _require(config, "b", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
            return _A_STAR_HEADER, [_a_star_row(n, float(b), variant)
                                    for n, b in product(n_values, b_values)]
        n_values = _n_values(config, 10)
        a_values = _require(config, "a", (int, float), lambda v: 0.0 <= v < 1.0, "(must lie in [0, 1))")
        return _B_STAR_HEADER, [_b_star_row(n, float(a), variant) for n, a in product(n_values, a_values)]

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

def _run_and_write(config, emitted, out, quiet) -> int:
    """Run a sweep config, write its table and self-check a figure; the exit code."""
    header, rows = run_sweep(config)
    _write_table(out, emitted, header, rows, quiet)
    if config["mode"] != "figure":
        return 0
    problems = check_figure(config["figure"], rows)
    for p in problems:
        print(f"self-check FAILED: {p}", file=sys.stderr)
    if not (problems or quiet):
        print(f"self-check ok: {config['figure']}", file=sys.stderr)
    return 2 if problems else 0


def _cmd_figure(args):
    config = {"figure": args.name, "trials": args.trials, "seed": args.seed,
              "variant": args.variant}
    return _run_and_write({**config, "mode": "figure", "workers": args.workers}, config,
                          args.out, args.quiet)


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
    config.update(_given(args, *_SWEEP_FLAGS))
    out = config.pop("out", None)  # read here, not by the sweep; --out overrides it
    if out is not None and not isinstance(out, str):  # open() would take an int as a descriptor
        raise CliError(f"invalid value for field 'out': {out!r} (must be a file path)")
    out = out if args.out is None else args.out
    _check_out(out)
    emitted = {k: v for k, v in config.items() if k != "workers"}
    return _run_and_write(config, emitted, out, args.quiet)


def _given(args, *fields):
    """The flags among `fields` given on the command line, by field name."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _cmd_threshold(args):
    config = {"mode": "threshold", "n": args.n, **_given(args, "b", "a"), "variant": args.variant}
    return _run_and_write(config, config, args.out, args.quiet)


def _cmd_estimate(args):
    trials, seed, workers = _run_settings(vars(args))
    config = {"mode": "simulate", "n": args.n, **_given(args, "k", "a"), "b": args.b,
              "trials": trials, "seed": seed, "protocol": args.protocol}
    shadow = _given(args, *_SHADOW_FIELDS, "shadow_draw")
    missing = [f for f in _SHADOW_FIELDS if f not in shadow]
    if len(missing) < len(_SHADOW_FIELDS):
        if missing:
            raise CliError(f"shadowed estimate needs --{missing[0].replace('_', '-')}")
        shadow.setdefault("shadow_draw", "per_node")
    config.update(shadow)  # a draw without shadowing is left for the sweep to reject
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
