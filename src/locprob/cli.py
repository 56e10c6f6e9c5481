"""Experiment runner emitting deterministic CSV tables.

Verbs: `figure <name>` rebuilds one of the canned curve families as a data
table, `sweep <config.json>` runs a custom parameter grid, `threshold` and
`estimate` answer single queries.  `figure` runs as a figure sweep and
`threshold` as a one-cell sweep; `estimate` builds the sweep's simulate row
but draws from the master seed, not from a per-cell seed.  Every table re-runs
byte-identically for the same seed: floats carry 12 significant digits, line
endings are LF, the leading comment records the semantic configuration
(worker count and output path are execution details and deliberately
excluded), and row order follows grid order regardless of any parallelism.

Exit codes: 0 success, 1 invalid configuration, 2 numerical non-convergence
or a failed figure self-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product

import numpy as np

from . import __version__
from .analytic import (
    VARIANTS,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from .model import bhat_distribution, make_network, make_shadow_model
from .montecarlo import TrialProtocol, estimate, worker_pool
from .numerics import NonConvergenceError
from .shadowing import METHODS, failure_prob_shadow

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig6", "fig_shadow")
SWEEP_MODES = ("analytic", "simulate", "shadow", "threshold", "figure")

_PROTOCOLS = {"center": "center_node", "all": "all_nl_nodes"}
_SHADOW_FIELDS = ("p0_dbm", "gamma_dbm", "d0", "n_p", "sigma_s", "R")
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
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if not quiet:
            print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)


def _network_for(n: int, a: float):
    """Integer anchor count closest to the requested blind fraction."""
    k = round(n * (1.0 - a))
    return make_network(n, k)


def _cell_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


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
            "gap": None if a_star is None else a_star - fd}


def _b_star_row(n, a, variant):
    exact = threshold_b_star(n, a, form="exact")
    approx = threshold_b_star(n, a, form="large_n")
    fd = threshold_b_star_numeric(n, a, variant)
    return {"n": n, "a": a, "b_star_exact": exact, "b_star_large_n": approx,
            "b_star_fd": fd, "gap_exact_fd": exact - fd}


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
# figures

def _geometric_grid(j_lo: int, j_hi: int) -> list[float]:
    """The doubling grid 2^(j/22) - 1 used for both coverage and blind-fraction sweeps."""
    return [2.0 ** (j / 22.0) - 1.0 for j in range(j_lo, j_hi + 1)]


def _fig1(trials, seed, variant, workers):
    rows = [_analytic_row(_network_for(300, i / 50.0), b, "closed", variant)
            for b in _geometric_grid(3, 20) for i in range(51)]
    return _ANALYTIC_HEADER, rows


def _fig2(trials, seed, variant, workers):
    n = 300
    rows = []
    for i in range(159):
        b = 0.085 + 0.005 * i
        rows.append({"n": n, "b": b, "a_star": threshold_a_star(n, b)})
    return ["n", "b", "a_star"], rows


def _fig3(trials, seed, variant, workers):
    nets = [_network_for(300, a) for a in _geometric_grid(1, 20)]
    rows = [_analytic_row(net, i / 50.0, "closed", variant) for net in nets for i in range(51)]
    return _ANALYTIC_HEADER, rows


def _fig4(trials, seed, variant, workers):
    return _B_STAR_HEADER, [_b_star_row(300, 0.05 * i, variant) for i in range(20)]


def _fig6(trials, seed, variant, workers):
    b = 0.05
    protocol = TrialProtocol(probe="all_nl_nodes")
    nets = [_network_for(n, 0.08 * j) for n in (500, 1000, 3000) for j in range(1, 12)]
    rows = []
    with worker_pool(workers) as pool:
        for cell, net in enumerate(nets):
            row = _simulate_row(net, b, protocol, None, trials, _cell_seed(seed, cell), pool)
            rows.append({**row, "p_loc_sim": row["p_loc"],
                         "p_loc_theory": failure_prob_closed(net, b, variant).p_loc})
    return [*_SIMULATE_HEADER[:4], "p_loc_theory", "p_loc_sim", *_SIMULATE_HEADER[6:]], rows


def _fig_shadow(trials, seed, variant, workers):
    model = make_shadow_model(
        p0_dbm=0.0, gamma_dbm=-80.0, d0=0.1, n_p=3.5, sigma_s=12.0, R=40.0
    )
    rows = []
    # the worked-example fraction (a = 0.8) and the captioned one (a = 0.2)
    for k in (10, 40):
        net = make_network(50, k)
        for i in range(1, 48):
            row = _shadow_row(net, 0.01 * i, model, "integrate_conditional", variant)
            rows.append({**row, "p_loc_shadow": row["p_loc"],
                         "p_loc_noshadow": failure_prob_closed(net, row["b_o"], variant).p_loc})
    return [*_SHADOW_HEADER[:7], "p_loc_shadow", "p_loc_noshadow", *_SHADOW_HEADER[9:]], rows


_FIGURE_BUILDERS = {
    "fig1": _fig1, "fig2": _fig2, "fig3": _fig3,
    "fig4": _fig4, "fig6": _fig6, "fig_shadow": _fig_shadow,
}


def build_figure(name, trials=1000, seed=0, variant="corrected", workers=1):
    """Header and rows for one canned figure table.

    run_sweep checks the name, variant and run settings first; every verb
    that emits a figure goes through it.
    """
    return _FIGURE_BUILDERS[name](trials, seed, variant, workers)


def _non_increasing(values, slack=0.0):
    return all(y <= x + slack for x, y in zip(values, values[1:]))


def _non_decreasing(values, slack=0.0):
    return all(y >= x - slack for x, y in zip(values, values[1:]))


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


def _n_values(config):
    return _require(config, "n", int, lambda v: v >= 4, "(must be an integer >= 4)")


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
        nets.extend(_network_for(n, float(a)) for n, a in product(n_values, a_values))
    return nets


def _shadow_model_from(config):
    missing = [f for f in _SHADOW_FIELDS if f not in config]
    if missing:
        raise CliError(f"missing required field '{missing[0]}' (shadowing parameters)")
    vals = {}
    for f in _SHADOW_FIELDS:
        v = config[f]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise CliError(f"invalid value for field '{f}': {v!r} (must be a number)")
        vals[f] = float(v)
    try:
        return make_shadow_model(**vals)
    except ValueError as exc:
        raise CliError(f"invalid shadowing parameters: {exc}") from exc


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
    variant = config.get("variant", "corrected")
    if variant not in VARIANTS:
        raise CliError(f"invalid value for field 'variant': {variant!r}")

    if mode == "figure":
        name = config.get("figure")
        if name not in FIGURES:
            raise CliError(f"invalid value for field 'figure': {name!r} (expected one of {FIGURES})")
        trials, seed, workers = _run_settings(config)
        return build_figure(name, trials=trials, seed=seed, variant=variant, workers=workers)

    if mode == "threshold":
        n_values = _n_values(config)
        if "b" in config:
            b_values = _require(config, "b", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
            return _A_STAR_HEADER, [_a_star_row(n, float(b), variant)
                                    for n, b in product(n_values, b_values)]
        if "a" in config:
            a_values = _require(config, "a", (int, float), lambda v: 0.0 <= v < 1.0, "(must lie in [0, 1))")
            return _B_STAR_HEADER, [_b_star_row(n, float(a), variant)
                                    for n, a in product(n_values, a_values)]
        raise CliError("missing required field 'b' or 'a' for threshold mode")

    nets = _networks_from(config)

    if mode == "analytic":
        method = config.get("method", "closed")
        if method not in ("closed", "sum", "approx_small"):
            raise CliError(f"invalid value for field 'method': {method!r}")
        b_values = _require(config, "b", (int, float), lambda v: 0.0 <= v <= 1.0, "(must lie in [0, 1])")
        return _ANALYTIC_HEADER, [_analytic_row(net, float(b), method, variant)
                                  for net, b in product(nets, b_values)]

    if mode == "shadow":
        method = config.get("method", "integrate_conditional")
        if method not in METHODS:
            raise CliError(f"invalid value for field 'method': {method!r} (expected one of {METHODS})")
        model = _shadow_model_from(config)
        b_values = _require(config, "b_o", (int, float), lambda v: 0.0 < v <= 1.0, "(must lie in (0, 1])")
        return _SHADOW_HEADER, [_shadow_row(net, float(b_o), model, method, variant)
                                for net, b_o in product(nets, b_values)]

    # mode == "simulate"
    trials, seed, workers = _run_settings(config)
    protocol_name = config.get("protocol", "center")
    if protocol_name not in _PROTOCOLS:
        raise CliError(f"invalid value for field 'protocol': {protocol_name!r} (expected 'center' or 'all')")
    shadowed = any(f in config for f in _SHADOW_FIELDS)
    model = _shadow_model_from(config) if shadowed else None
    draw = config.get("shadow_draw", "per_node" if shadowed else "none")
    if shadowed and draw not in ("per_node", "per_link"):
        raise CliError(f"invalid value for field 'shadow_draw': {draw!r}")
    protocol = TrialProtocol(probe=_PROTOCOLS[protocol_name], shadow_draw=draw)
    b_values = _require(config, "b", (int, float), lambda v: 0.0 <= v <= 1.0, "(must lie in [0, 1])")
    with worker_pool(workers) as pool:
        rows = [_simulate_row(net, float(b), protocol, model, trials, _cell_seed(seed, i), pool)
                for i, (net, b) in enumerate(product(nets, b_values))]
    return _simulate_header(model), rows


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
    header, rows = run_sweep(config)
    out = args.out if args.out is not None else config.get("out")
    emitted = {k: v for k, v in config.items() if k not in ("out", "workers")}
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
    [net] = _networks_from({"n": args.n, axis: getattr(args, axis)})
    config = {"mode": "simulate", "n": net.n, "k": net.k, "b": args.b,
              "trials": trials, "seed": seed, "protocol": args.protocol}
    model, draw = None, "none"
    if any(getattr(args, f) is not None for f in _SHADOW_FIELDS):
        shadow = {f: getattr(args, f) for f in _SHADOW_FIELDS}
        missing = [f for f, v in shadow.items() if v is None]
        if missing:
            raise CliError(f"shadowed estimate needs --{missing[0].replace('_', '-')}")
        model = _shadow_model_from(shadow)
        draw = args.shadow_draw
        config.update(shadow, shadow_draw=draw)
    protocol = TrialProtocol(probe=_PROTOCOLS[args.protocol], shadow_draw=draw)
    # the master seed itself drives the one cell, as the printed seed says
    with worker_pool(workers) as pool:
        row = _simulate_row(net, args.b, protocol, model, trials, seed, pool)
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
    p_est.add_argument("--sigma-s", dest="sigma_s", type=float, default=None)
    p_est.add_argument("--n-p", dest="n_p", type=float, default=None)
    p_est.add_argument("--gamma-dbm", dest="gamma_dbm", type=float, default=None)
    p_est.add_argument("--p0-dbm", dest="p0_dbm", type=float, default=None)
    p_est.add_argument("--d0", type=float, default=None)
    p_est.add_argument("--R", type=float, default=None)
    p_est.add_argument("--shadow-draw", choices=("per_node", "per_link"), default="per_node")
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
