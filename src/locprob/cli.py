"""Experiment runner emitting deterministic CSV tables.

Verbs: `figure <name>` rebuilds one of the canned curve families as a data
table, `sweep <config.json>` runs a custom parameter grid, `threshold` and
`estimate` answer single queries.  A figure is a named sweep config, and
`threshold` and `estimate` are one-cell threshold and simulate sweeps; each
verb's flags are its mode's fields.  Every table re-runs byte-identically
for the same seed: floats carry 12 significant digits, line endings are LF,
the leading comment records the semantic configuration (worker count and
output path are execution details and deliberately excluded), and row order
follows grid order regardless of any parallelism.

A sweep is its cells, then its rows.  Each mode's reader checks the whole
config, which may hold only the fields the mode reads, and only then hands
back its cells; one loop, `_rows`, builds every table's rows from them, so no
row is computed before the config is checked.  A simulate config becomes one
`TrialProtocol`, and only its reader imports the Monte Carlo layer, and with
it numpy; the analytic, shadow and threshold commands run on the standard
library alone.

Exit codes: 0 success; 1 invalid configuration or an output path that open()
refuses (both fail before any row); 2 numerical non-convergence, or a figure
that fails a caption claim, under the `figure` verb and a `figure` sweep
alike; 3 an internal fault (any other error), after its traceback.  A run
that raises leaves no new output file and an existing one unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import product

from . import __version__
from .analytic import (
    _approx_small_domain,
    _row_invariants,
    _sum_domain,
    failure_prob_approx_small,
    failure_prob_closed,
    failure_prob_sum,
    threshold_a_star,
    threshold_a_star_numeric,
    threshold_b_star,
    threshold_b_star_numeric,
)
from .model import (PROBE_CHOICES, SHADOW_CHOICES, TrialProtocol, bhat_distribution, make_network,
                    make_shadow_model)
from .shadowing import METHODS, SERIES_MAX_N, NonConvergenceError, failure_prob_shadow

_PROTOCOLS = dict(zip(("center", "all"), PROBE_CHOICES))
_SHADOW_FIELDS = ("p0_dbm", "gamma_dbm", "d0", "n_p", "sigma_s", "R")
_RUN_FIELDS = ("trials", "seed", "workers")
# the fields with a default, used wherever a config or a verb leaves one out
_DEFAULTS = {"trials": 1000, "seed": 0, "workers": 1, "protocol": "center"}
_REQUIRED = object()  # the default of a field that has none
# flags that override the sweep config's field of the same name
_SWEEP_FLAGS = tuple(_DEFAULTS)
# The closed form's one coefficient, named in the `variant` column and every verb's config comment but sweep's;
# bench/refs.json and tests/pinned/ pin those bytes, so the label goes with re-record A (ROADMAP.md).
_VARIANT = "corrected"


class CliError(Exception):
    """Invalid configuration or arguments (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own failures exit 1, on one line: repr quotes text after its label
        label, _, text = message.partition(": ")
        raise CliError(message if message.isprintable() else f"{label}: {text!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(out_path, config, rows, quiet):
    """Write rows under the config comment; their keys, in order, are the columns (a grid is never empty)."""
    lines = [f"# locprob {__version__} config={json.dumps(config, sort_keys=True, separators=(',', ':'))}"]
    lines.append(",".join(rows[0]))
    lines.extend(",".join(map(_fmt, row.values())) for row in rows)
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


@contextmanager
def _held_output(out_path):
    """The output path, held open from before the first row; a run that raises removes a file it created."""
    created = out_path is not None and not os.path.lexists(out_path)
    try:  # append mode changes no byte; a FIFO closed and reopened would wait for a reader that has gone
        held = nullcontext() if out_path is None else open(out_path, "ab")
    except (OSError, ValueError) as exc:  # open()'s own refusal; ValueError is a NUL in the path
        raise CliError(f"cannot write output file: {exc}") from exc
    with held:
        try:
            yield
        except BaseException:
            if created:
                os.remove(out_path)
            raise


def estimate(net, b, protocol, **options):
    """`montecarlo.estimate`, imported at the first call so that only simulating loads numpy."""
    from . import montecarlo

    return montecarlo.estimate(net, b, protocol, **options)


# ---------------------------------------------------------------------------
# rows: one builder per table kind, whose keys in order are the table's columns.  Layer
# functions are looked up in this module's globals at call time, so per-layer tracing can wrap them.

def _analytic_row(net, b, method):
    res = (failure_prob_closed(net, b) if method == "closed"
           else failure_prob_sum(net, b) if method == "sum" else failure_prob_approx_small(net, b))
    return {"n": net.n, "k": net.k, "a": net.a, "b": b, "p_f": res.p_f, "p_loc": res.p_loc,
            "method": method, "variant": _VARIANT if method == "closed" else None}


def _a_star_row(n, b):
    a_star = threshold_a_star(n, b)
    fd = threshold_a_star_numeric(n, b)
    return {"n": n, "b": b, "a_star": a_star, "a_star_fd": fd,
            "gap": None if fd is None else a_star - fd}


def _b_star_row(n, a):
    exact = threshold_b_star(n, a, form="exact")
    approx = threshold_b_star(n, a, form="large_n")
    fd = threshold_b_star_numeric(n, a)
    return {"n": n, "a": a, "b_star_exact": exact, "b_star_large_n": approx,
            "b_star_fd": fd, "gap_exact_fd": None if fd is None else exact - fd}


def _fading(dist):
    return {"sigma1": dist.sigma1, "b_hat_max": dist.b_hat_max, "zero_mass": dist.zero_mass}


def _shadow_row(net, b_o, model, method):
    dist = bhat_distribution(b_o, model.sigma1, model.b_hat_max)
    res = failure_prob_shadow(net, dist, method)
    return {"n": net.n, "k": net.k, "a": net.a, "b_o": b_o, **_fading(dist), "p_f": res.p_f,
            "p_loc": res.p_loc, "method": method, "variant": _VARIANT}


def _simulate_row(net, b, protocol, trials, seed, pool):
    """One Monte Carlo cell; with a fading model b is the true ratio b_o, followed by its fading columns."""
    sim = estimate(net, b, protocol, trials=trials, seed=seed, pool=pool)
    model = protocol.fading
    fading = _fading(bhat_distribution(b, model.sigma1, model.b_hat_max)) if model else {}
    return {"n": net.n, "k": net.k, "a": net.a, "b": b, **fading, "p_f": 1.0 - sim.p_hat,
            "p_loc": sim.p_hat, "trials": sim.trials, "successes": sim.successes,
            "ci_low": sim.ci_low, "ci_high": sim.ci_high, "realizations": sim.realizations,
            "seed": seed, "protocol": protocol.probe}


# ---------------------------------------------------------------------------
# figures: each is a named sweep config, read by the figure mode's reader

def _geometric_grid(j_lo: int, j_hi: int) -> list[float]:
    """The doubling grid 2^(j/22) - 1 used for both coverage and blind-fraction sweeps."""
    return [2.0 ** (j / 22.0) - 1.0 for j in range(j_lo, j_hi + 1)]


_FIGURE_SWEEPS = {
    "fig1": {"mode": "analytic", "n": 300, "a": [i / 50.0 for i in range(51)],
             "b": _geometric_grid(3, 20)},
    "fig2": {"mode": "threshold", "n": 300, "b": [0.085 + 0.005 * i for i in range(159)]},
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
FIGURES = tuple(_FIGURE_SWEEPS)


def _beside_closed(row, columns):
    """`row` with columns(its p_loc, the closed form's p_loc at its cell) in place of its p_f and p_loc."""
    def figure_row(net, ratio, *rest):
        own = row(net, ratio, *rest)
        beside = columns(own["p_loc"], failure_prob_closed(net, ratio).p_loc)
        return dict(item for key, value in own.items() if key != "p_loc"
                    for item in (beside.items() if key == "p_f" else [(key, value)]))
    return figure_row


def _figure_cells(config):
    """The cells of a figure's sweep, whose rows get the figure's own columns."""
    name = _choice(config, "figure", FIGURES)
    trials, seed, workers = _run_settings(config)
    sweep = dict(_FIGURE_SWEEPS[name])
    if sweep["mode"] == "simulate":
        sweep.update(trials=trials, seed=seed, workers=workers)
    with _reader(sweep) as (row, cells):
        if name == "fig1":
            cells.sort(key=lambda cell: cell[1])  # one curve per coverage ratio, a ascending
        elif name == "fig2":  # a* alone; the threshold row would add a bisection per row
            row = lambda n, b: {"n": n, "b": b, "a_star": threshold_a_star(n, b)}
        elif name == "fig6":
            row = _beside_closed(row, lambda sim, closed: {"p_loc_theory": closed, "p_loc_sim": sim})
        elif name == "fig_shadow":
            row = _beside_closed(row, lambda shadow, closed: {"p_loc_shadow": shadow, "p_loc_noshadow": closed})
        yield row, cells


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

def _field(config, field, check, describe, default=_REQUIRED, grid=False):
    """`field`'s value or default, once it passes `check`; with grid=True, its non-empty list of values."""
    if field not in config and default is _REQUIRED:
        raise CliError(f"missing required field '{field}'")
    value = config.get(field, default)
    values = list(value) if grid and isinstance(value, (list, tuple)) else [value]
    if not values:
        raise CliError(f"empty grid: field '{field}' has no values")
    for v in values:
        if not check(v):
            raise CliError(f"invalid value for field '{field}': {v!r} ({describe})")
    return values if grid else value


def _number(types, check):
    """The check that a value is a number of `types` (a bool is not) that passes `check`."""
    return lambda v: isinstance(v, types) and not isinstance(v, bool) and check(v)


def _unit(config, field, ends="[]"):
    """The grid of `field` as floats in the unit interval, open at an end marked '(' or ')'."""
    low, high = ends
    inside = _number((int, float),
                     lambda v: (v > 0 if low == "(" else v >= 0) and (v < 1 if high == ")" else v <= 1))
    return [float(v) for v in _field(config, field, inside, f"must lie in {low}0, 1{high}", grid=True)]


def _choice(config, field, allowed, default=_REQUIRED, why=None):
    """The value of `field`, one of the tuple `allowed`, so that a list or an object fails too."""
    return _field(config, field, lambda v: v in allowed,
                  why or f"expected one of {', '.join(map(repr, allowed))}", default)


def _either(config, one, other, where=""):
    """Whether the config gives field `one` rather than `other`; it must give exactly one."""
    if (one in config) == (other in config):
        raise CliError(f"give either field '{one}' or field '{other}', not both" if one in config
                       else f"missing required field '{one}' or '{other}'{where}")
    return one in config


def _n_values(config, low=4):
    _field(config, "n", _number(int, lambda v: v >= low), f"must be an integer >= {low}", grid=True)
    # the largest n exact as a float; the closed forms and thresholds stay finite up to it
    return _field(config, "n", lambda v: v <= 2 ** 53, "must be at most 2**53", grid=True)


def _networks_from(config):
    n_values = _n_values(config)
    if _either(config, "k", "a"):
        smallest = min(n_values)  # every k meets every n in the grid
        k_values = _field(config, "k", _number(int, lambda v: 0 <= v <= smallest),
                          f"must be an integer from 0 to the smallest n, {smallest}", grid=True)
        return [make_network(n, k) for n, k in product(n_values, k_values)]
    # the integer anchor count closest to the requested blind fraction
    return [make_network(n, round(n * (1.0 - a))) for n, a in product(n_values, _unit(config, "a"))]


def _shadow_model_from(config):
    if missing := [f for f in _SHADOW_FIELDS if f not in config]:
        raise CliError(f"missing required field '{missing[0]}' (shadowing parameters)")
    finite = _number((int, float), math.isfinite)
    values = {f: float(_field(config, f, finite, "must be a finite number")) for f in _SHADOW_FIELDS}
    try:
        return make_shadow_model(**values)
    except ValueError as exc:
        raise CliError(f"invalid shadowing parameters: {exc}") from exc


def _run_settings(config):
    """Validated (trials, seed, workers) of a Monte Carlo or figure sweep."""
    return [_field(config, field, _number(int, lambda v: v >= low),
                   f"must be a {'positive' if low else 'non-negative'} integer", _DEFAULTS[field])
            for field, low in zip(_RUN_FIELDS, (1, 0, 1))]


def _analytic_cells(config):
    nets = _networks_from(config)
    method = _choice(config, "method", ("closed", "sum", "approx_small"), "closed")
    cells = [(net, b, method) for net, b in product(nets, _unit(config, "b"))]
    for net, b, _ in cells:
        if method == "approx_small" and (reason := _approx_small_domain(net.n, net.a, b)):
            raise CliError(f"invalid value for field 'b': {b!r} ({reason} at n={net.n}, k={net.k})")
        if method == "sum" and (reason := _sum_domain(net.n, b)):
            raise CliError(f"invalid value for field 'n': {net.n!r} ({reason} at b={b!r})")
    yield _analytic_row, cells


def _shadow_cells(config):
    nets = _networks_from(config)
    method = _choice(config, "method", METHODS, "integrate_conditional")
    if method == "alternating_sum":
        _field(config, "n", lambda v: v <= SERIES_MAX_N, f"{method} needs n <= {SERIES_MAX_N}", grid=True)
    model = _shadow_model_from(config)
    yield _shadow_row, [(net, b_o, model, method)
                        for net, b_o in product(nets, _unit(config, "b_o", "(]"))]


def _threshold_cells(config):
    # a* at each (n, b) needs n >= 5, b* at each (n, a) needs n >= 10
    row, low, axis, ends = ((_a_star_row, 5, "b", "(]") if _either(config, "b", "a", " for threshold mode")
                            else (_b_star_row, 10, "a", "[)"))
    yield row, [(n, x) for n, x in product(_n_values(config, low), _unit(config, axis, ends))]


def _simulate_cells(config):
    """Monte Carlo cells of one `TrialProtocol` in one worker pool."""
    trials, seed, workers = _run_settings(config)
    protocol_name = _choice(config, "protocol", tuple(_PROTOCOLS), _DEFAULTS["protocol"])
    nets = _networks_from(config)
    if protocol_name == "all" and (blindless := [net for net in nets if net.k == net.n]):
        raise CliError(f"invalid value for field '{'k' if 'k' in config else 'a'}': "
                       f"n={blindless[0].n}, k={blindless[0].k} leaves no blind node for protocol 'all'")
    shadowed = any(f in config for f in _SHADOW_FIELDS)
    model = _shadow_model_from(config) if shadowed else None
    draws = SHADOW_CHOICES[1:] if shadowed else SHADOW_CHOICES[:1]
    draw = _choice(config, "shadow_draw", draws, draws[0],
                   None if shadowed else f"needs the shadowing parameters {', '.join(_SHADOW_FIELDS)}")
    protocol = TrialProtocol(_PROTOCOLS[protocol_name], draw, model)
    b_values = _unit(config, "b", "(]" if shadowed else "[]")  # a shadowed b is b_o, which must be positive
    from .montecarlo import _MAX_N, _cell_seed, worker_pool  # numpy loads here, before the pool and any row
    limit = _MAX_N[protocol.probe]  # a chunk's memory grows with n
    _field(config, "n", lambda v: v <= limit, f"protocol {protocol_name!r} simulates n <= {limit}", grid=True)

    with worker_pool(workers) as pool:
        yield _simulate_row, [(net, b, protocol, trials, _cell_seed(seed, i), pool)
                              for i, (net, b) in enumerate(product(nets, b_values))]


# Each sweep mode: the fields it reads besides 'mode' (any other is a config error), and its
# reader.  A reader checks the whole config, then yields once, from inside whatever its rows
# need, its row builder and its cells: each cell is the arguments of one row.
_MODES = {
    "analytic": (("n", "k", "a", "b", "method"), _analytic_cells),
    "simulate": (("n", "k", "a", "b", "protocol", "shadow_draw", *_RUN_FIELDS, *_SHADOW_FIELDS),
                 _simulate_cells),
    "shadow": (("n", "k", "a", "b_o", "method", *_SHADOW_FIELDS), _shadow_cells),
    "threshold": (("n", "b", "a"), _threshold_cells),
    "figure": (("figure", *_RUN_FIELDS), _figure_cells),
}


def _reader(config):
    """The config's mode's reader, entered to get (row builder, cells), after the checks every mode shares."""
    mode = _choice(config, "mode", tuple(_MODES))
    fields, read = _MODES[mode]
    if unread := [field for field in config if field not in ("mode", *fields)]:
        raise CliError(f"unknown field {unread[0]!r} for {mode} mode")
    return contextmanager(read)(config)


@_row_invariants()  # each row invariant is computed once per table
def _rows(row, cells):
    """The row loop: every table's rows are built here, one per cell, from a reader's checked cells."""
    return [row(*cell) for cell in cells]


def run_sweep(config: dict):
    """Rows for a JSON-configured sweep (grid in declaration order)."""
    with _reader(config) as (row, cells):
        return _rows(row, cells)


# ---------------------------------------------------------------------------
# verbs

def _run_and_write(config, emitted, out, quiet) -> int:
    """Run a sweep config, write its table and self-check a figure; the exit code."""
    rows = run_sweep(config)
    _write_table(out, emitted, rows, quiet)
    if config["mode"] != "figure":
        return 0
    problems = check_figure(config["figure"], rows)
    for p in problems:
        print(f"self-check FAILED: {p}", file=sys.stderr)
    if not (problems or quiet):
        print(f"self-check ok: {config['figure']}", file=sys.stderr)
    return 2 if problems else 0


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
    emitted = {k: v for k, v in config.items() if k != "workers"}
    return _run_and_write(config, emitted, args.out, args.quiet)


def _given(args, *fields):
    """The flags among `fields` given on the command line, by field name."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _cmd_mode(args):
    """`figure`, `threshold` and `estimate`: the flags given are their mode's config."""
    config = {"mode": args.mode, **_given(args, *_MODES[args.mode][0])}
    # no table records its worker count, and a figure's names the figure rather than its mode
    emitted = {f: v for f, v in config.items() if f != "workers" and (f, v) != ("mode", "figure")}
    emitted["variant"] = _VARIANT
    return _run_and_write(config, emitted, args.out, args.quiet)


# every value flag, by the config field it sets (a figure's name is positional)
_FLAGS = {
    "figure": dict(help=f"the canned figure: {', '.join(FIGURES)}"),
    "n": dict(type=int, help="node count"),
    "k": dict(type=int, help="anchor count"),
    "a": dict(type=float, help="blind fraction (in place of --k; threshold: query b*)"),
    "b": dict(type=float, help="coverage ratio (b_o when shadowed; threshold: query a*)"),
    "protocol": dict(help="probe protocol for simulations: center or all"),
    "shadow_draw": dict(help="fading draw when shadowed: per_node or per_link (default per_node)"),
    "trials": dict(type=int, help="Monte Carlo realizations per point"),
    "seed": dict(type=int, help="master seed"),
    "workers": dict(type=int, help="parallel workers (results are worker-count independent)"),
    **{field: dict(type=float, help="shadowing parameter") for field in _SHADOW_FIELDS},
}


def _build_parser() -> _Parser:
    """Each verb takes the flags of its mode's fields, so a flag it would ignore is an error (exit 1)."""
    parser = _Parser(prog="locprob", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, mode, func, summary in (
            ("figure", "figure", _cmd_mode, "emit a canned figure table"),
            ("sweep", None, _cmd_sweep, "run a JSON-configured sweep"),
            ("threshold", "threshold", _cmd_mode, "transition-threshold query"),
            ("estimate", "simulate", _cmd_mode, "Monte Carlo estimate query")):
        p = sub.add_parser(verb, help=summary)
        if mode is None:
            p.add_argument("config", help="path to the JSON sweep configuration")
        for field in _MODES[mode][0] if mode else _SWEEP_FLAGS:
            spec = _FLAGS[field]
            if field in _DEFAULTS:  # a sweep's flag defaults to None: its config wins unless given
                spec = {**spec, "help": f"{spec['help']} (default {_DEFAULTS[field]})",
                        "default": _DEFAULTS[field] if mode else None}
            p.add_argument(field if field == "figure" else f"--{field.replace('_', '-')}", **spec)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress status messages")
        p.set_defaults(func=func, mode=mode)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _held_output(args.out):
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an internal fault, not bad input
        import traceback  # only a fault loads it

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
