import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import check_pinned
from locprob import cli, montecarlo
from locprob.analytic import FailureProbResult
from locprob.cli import FIGURES, _build_parser, main, run_sweep
from locprob.shadowing import SERIES_MAX_N, NonConvergenceError
from oracles import closed_value_reference

_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def stub_row_builders(monkeypatch, message):
    """Make every row builder, each `cli` name ending in `_row`, fail the test when called."""
    def no_rows(*args, **kwargs):
        raise AssertionError(message)

    builders = [name for name in vars(cli) if name.endswith("_row")]
    assert builders
    for name in builders:
        monkeypatch.setattr(cli, name, no_rows)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# locprob ")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


def _unequal_pair(rows, series, y):
    """Indices of the lowest and highest y in the first series whose y values differ."""
    for key in dict.fromkeys(row.get(series) for row in rows):
        members = [i for i, row in enumerate(rows) if row.get(series) == key]
        low, high = (pick(members, key=lambda i: rows[i][y]) for pick in (min, max))
        if rows[low][y] != rows[high][y]:
            return low, high
    raise AssertionError(f"every series of {y} is constant")


class TestFigureTables:
    def test_fig1_coverage_grid_endpoints(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("figure", "fig1", "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        b_values = sorted({float(r["b"]) for r in rows})
        assert len(b_values) == 18
        assert b_values[0] == pytest.approx(0.099, abs=5e-4)
        assert b_values[-1] == pytest.approx(0.878, abs=5e-4)

    def test_fig2_threshold_rises_sharply_in_the_transition_zone(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("figure", "fig2", "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        curve = {round(float(r["b"]), 3): float(r["a_star"]) for r in rows}
        assert curve[0.2] - curve[0.1] > 0.4
        assert curve[0.5] - curve[0.4] < 0.1

    def test_fig4_reports_both_forms_and_the_numeric_root(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli("figure", "fig4", "--out", str(out), "--quiet") == 0
        header, rows = read_rows(out)
        assert {"b_star_exact", "b_star_large_n", "b_star_fd", "gap_exact_fd"} <= set(header)
        assert len(rows) == 20

    def test_fig6_structure_with_tiny_run(self):
        rows = run_sweep({"mode": "figure", "figure": "fig6", "trials": 4, "seed": 1})
        assert {"p_loc_theory", "p_loc_sim", "realizations"} <= set(rows[0])
        assert len(rows) == 33
        assert all(row["realizations"] == 4 for row in rows)
        assert not check_pinned.check_figure("fig6", rows)

    def test_fig_shadow_emits_both_series(self, tmp_path):
        out = tmp_path / "fig_shadow.csv"
        assert run_cli("figure", "fig_shadow", "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert {r["k"] for r in rows} == {"10", "40"}
        diffs = [
            float(r["p_loc_shadow"]) - float(r["p_loc_noshadow"])
            for r in rows
            if r["k"] == "10"
        ]
        assert diffs[0] > 0.0 > diffs[-1]

    @pytest.mark.parametrize("name", FIGURES)
    @pytest.mark.parametrize("variant", ["corrected", "paper"])
    def test_figure_verb_and_sweep_agree_and_the_claim_check_names_broken_claims(self, tmp_path, capsys,
                                                                                 monkeypatch, name, variant):
        # the published bracket coefficient (the oracle's erratum), in place of the closed form, bends
        # fig3's and fig_shadow's closed-form curves: both tables still exit 0, and the claim check of
        # the pinned tables names the claims they break
        if variant == "paper":
            def published(net, b):
                p_f = closed_value_reference(net.n, net.a, b, "paper")
                return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f)

            monkeypatch.setattr(cli, "failure_prob_closed", published)
        broken = variant == "paper" and name in ("fig3", "fig_shadow")
        trials = {"trials": 1} if name == "fig6" else {}
        cfg, verb, sweep = tmp_path / "cfg.json", tmp_path / "verb.csv", tmp_path / "sweep.csv"
        cfg.write_text(json.dumps({"mode": "figure", "figure": name, **trials}))
        flags = [arg for field, value in trials.items() for arg in (f"--{field}", str(value))]
        assert run_cli("figure", name, *flags, "--out", str(verb), "--quiet") == 0
        assert run_cli("sweep", str(cfg), "--out", str(sweep), "--quiet") == 0
        assert capsys.readouterr().err == ""
        table = verb.read_bytes()
        assert table.split(b"\n", 1)[1] == sweep.read_bytes().split(b"\n", 1)[1]
        problems = check_pinned.check_figure(name, check_pinned.table_rows(table))
        assert bool(problems) == broken and all(p.startswith(f"{name}: ") for p in problems), problems
        if broken:  # the pin reports the broken claims, and --repin leaves its file as it was
            original = (check_pinned.PINNED / f"{name}.csv").read_bytes()
            (tmp_path / f"{name}.csv").write_bytes(original)
            monkeypatch.setattr(check_pinned, "PINNED", tmp_path)
            assert check_pinned.check(name, repin=True) == f"{name}.csv: {'; '.join(problems)}"
            assert (tmp_path / f"{name}.csv").read_bytes() == original

    @pytest.mark.parametrize("mutation", ["swap", "nan"])
    def test_the_pinned_claim_check_names_a_broken_fig3(self, mutation):
        pinned = (check_pinned.PINNED / "fig3.csv").read_bytes()
        comment, header, *lines = pinned.decode().splitlines()
        column = header.split(",").index("p_loc")
        cells = [line.split(",") for line in lines]
        low, high = _unequal_pair(check_pinned.table_rows(pinned), "b", "p_loc")  # two points of one curve
        if mutation == "swap":
            cells[low][column], cells[high][column] = cells[high][column], cells[low][column]
        else:
            cells[low][column] = "nan"
        table = "\n".join([comment, header, *map(",".join, cells)]) + "\n"
        problems = check_pinned.check_figure("fig3", check_pinned.table_rows(table.encode()))
        assert any(p.startswith("fig3: p_loc not non-increasing in a at b=") for p in problems), problems

    @pytest.mark.parametrize("name", FIGURES)
    def test_every_caption_claim_fires(self, name):
        rows = run_sweep({"mode": "figure", "figure": name, "trials": 1})
        assert not check_pinned.check_figure(name, rows)
        # the first row's keys are the table's header, so every row must share their order
        assert all(list(row) == list(rows[0]) for row in rows)
        assert check_pinned.CLAIMS[name], f"{name} checks no claim"

        def broken(index, column, value):
            copy = [dict(row) for row in rows]
            copy[index][column] = value
            return copy

        for series, x, y, sign in check_pinned.CLAIMS[name]:
            low, high = _unequal_pair(rows, series, y)
            swapped = broken(low, y, rows[high][y])
            swapped[high][y] = rows[low][y]
            for table in (swapped, broken(low, y, float("nan"))):
                problems = check_pinned.check_figure(name, table)
                assert any(p.startswith(f"{name}: {y} not non-") for p in problems), (series, x, y)
        if name == "fig_shadow":  # the one claim that is not monotonicity
            flat = [{**row, "p_loc_shadow": row["p_loc_noshadow"]} for row in rows]
            assert any("no gain-to-loss crossing" in p for p in check_pinned.check_figure(name, flat))

    def test_default_trials_follow_the_reference_protocol(self):
        args = _build_parser().parse_args(["figure", "fig6"])
        assert args.trials == 1000


class TestSweep:
    def test_analytic_sweep_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"mode": "analytic", "n": 300, "a": [0.2, 0.5], "b": [0.099, 0.3]})
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out1), "--quiet") == 0
        assert run_cli("sweep", str(cfg), "--out", str(out2), "--quiet") == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, rows = read_rows(out1)
        assert len(rows) == 4

    def test_simulate_sweep_respects_seed_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "simulate", "n": 50, "k": [10], "b": [0.3]}))
        out = tmp_path / "sim.csv"
        assert run_cli("sweep", str(cfg), "--seed", "9", "--trials", "200",
                       "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert rows[0]["protocol"] == "center_node"
        assert int(rows[0]["realizations"]) == 200

    def test_threshold_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "threshold", "n": 300, "b": [0.1, 0.15]}))
        out = tmp_path / "thr.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert float(rows[1]["a_star"]) == pytest.approx(0.70172, abs=1e-4)

    def test_shadow_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "shadow", "n": 50, "k": [10], "b_o": [0.1, 0.2],
            "p0_dbm": 0, "gamma_dbm": -80, "d0": 0.1, "n_p": 3.5,
            "sigma_s": 12, "R": 40,
        }))
        out = tmp_path / "sh.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out), "--quiet") == 0
        header, rows = read_rows(out)
        assert {"zero_mass", "b_hat_max", "sigma1"} <= set(header)
        assert len(rows) == 2


class TestThresholdVerb:
    def test_blind_fraction_threshold(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("threshold", "--n", "300", "--b", "0.15", "--out", str(out),
                       "--quiet") == 0
        header, rows = read_rows(out)
        assert header == ["n", "b", "a_star", "a_star_fd", "gap"]
        assert float(rows[0]["a_star"]) == pytest.approx(0.70172, abs=1e-4)
        assert abs(float(rows[0]["gap"])) < 1e-3

    def test_coverage_threshold(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("threshold", "--n", "300", "--a", "0.5", "--out", str(out),
                       "--quiet") == 0
        header, rows = read_rows(out)
        assert float(rows[0]["b_star_large_n"]) == pytest.approx(0.12444, abs=1e-4)


class TestEstimateVerb:
    def test_accepts_anchor_count(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run_cli("estimate", "--n", "50", "--k", "10", "--b", "0.3",
                       "--trials", "100", "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert rows[0]["k"] == "10"

    def test_shadowed_estimate(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run_cli(
            "estimate", "--n", "50", "--k", "10", "--b", "0.2",
            "--sigma-s", "12", "--n-p", "3.5", "--gamma-dbm", "-80",
            "--p0-dbm", "0", "--d0", "0.1", "--R", "40",
            "--trials", "500", "--out", str(out), "--quiet",
        ) == 0
        header, rows = read_rows(out)
        assert {"zero_mass", "sigma1", "b_hat_max"} <= set(header)


@pytest.fixture
def pools(monkeypatch):
    """The process pools that the Monte Carlo layer opens, in order."""
    opened = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.mark.parametrize("argv", [
    ["sweep", "{cfg}"],
    ["figure", "fig6", "--trials", "1"],
    ["estimate", "--n", "300", "--a", "0.2", "--b", "0.099", "--trials", "9000"],
], ids=["simulate_sweep", "fig6", "estimate"])
def test_one_worker_pool_per_command(tmp_path, pools, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "simulate", "n": [60, 80], "k": [20], "b": [0.2, 0.3, 0.4], "trials": 300}
    ))
    argv = [arg.format(cfg=cfg) for arg in argv]
    serial, pooled = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(*argv, "--workers", "1", "--out", str(serial), "--quiet") == 0
    assert not pools
    assert run_cli(*argv, "--workers", "2", "--out", str(pooled), "--quiet") == 0
    assert len(pools) == 1
    assert not multiprocessing.active_children()
    assert pooled.read_bytes() == serial.read_bytes()


_SHADOW_FLAGS = ["--sigma-s", "12", "--n-p", "3.5", "--gamma-dbm", "-80", "--p0-dbm", "0",
                 "--d0", "0.1", "--R", "40"]


_SHADOW_CONFIG = {"p0_dbm": 0, "gamma_dbm": -80, "d0": 0.1, "n_p": 3.5, "sigma_s": 12, "R": 40}


_CENTER_MAX_N, _FIELD_MAX_N = montecarlo._MAX_N["center_node"], montecarlo._MAX_N["all_nl_nodes"]
_CENTER_LIMIT = f"(protocol 'center' simulates n <= {_CENTER_MAX_N})"
_FIELD_LIMIT = f"(protocol 'all' simulates n <= {_FIELD_MAX_N})"
# cells past their protocol's n limit, whose chunk memory would grow with n; never run one
_SIMULATE_N_CASES = [
    (["estimate", "--n", str(_CENTER_MAX_N + 1), "--k", "10", "--b", "0.2"], None,
     f"invalid value for field 'n': {_CENTER_MAX_N + 1} {_CENTER_LIMIT}"),
    (["estimate", "--n", str(_FIELD_MAX_N + 1), "--a", "0.5", "--b", "0.2", "--protocol", "all",
      *_SHADOW_FLAGS, "--shadow-draw", "per_link"], None,
     f"invalid value for field 'n': {_FIELD_MAX_N + 1} {_FIELD_LIMIT}"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": [50, _FIELD_MAX_N + 1], "a": 0.5, "b": 0.2,
                          "protocol": "all"}, f"invalid value for field 'n': {_FIELD_MAX_N + 1} {_FIELD_LIMIT}"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": [10 ** 9, 50], "k": 10, "b": 0.2, **_SHADOW_CONFIG},
     f"invalid value for field 'n': {10 ** 9} {_CENTER_LIMIT}"),
]
_SIMULATE_N_IDS = ["estimate_center_n_above_limit", "estimate_field_n_above_limit",
                   "simulate_field_n_above_limit", "simulate_center_n_above_limit"]


@pytest.mark.parametrize("argv, config", [
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, "shadow_draw": "per_node"}),
    (["estimate", "--n", "50", "--k", "50", "--protocol", "all", "--b", "0.2"], None),
    (["figure", "fig6", "--trials", "0"], None),
    *[case[:2] for case in _SIMULATE_N_CASES],
], ids=["simulate_sweep_unshadowed_draw", "estimate_all_without_blind", "fig6_no_trials", *_SIMULATE_N_IDS])
def test_a_bad_simulating_config_opens_no_worker_pool(tmp_path, capsys, pools, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv], "--workers", "2", "--quiet") == 1
    assert capsys.readouterr().err.startswith("error: invalid value for field ")
    assert not pools
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("argv", [
    ["--n", str(_CENTER_MAX_N), "--k", "10", "--b", "0.2"],
    ["--n", str(_FIELD_MAX_N), "--a", "0.5", "--b", "0.01", "--protocol", "all"],
], ids=["center", "field"])
def test_a_cell_at_its_protocols_n_limit_runs(tmp_path, argv):
    out = tmp_path / "o.csv"
    assert run_cli("estimate", *argv, "--trials", "1", "--out", str(out), "--quiet") == 0
    _, [row] = read_rows(out)
    assert row["n"] == argv[1]


def test_stdout_emission(capsys):
    assert run_cli("threshold", "--n", "300", "--b", "0.15", "--quiet") == 0
    out = capsys.readouterr().out
    assert out.startswith("# locprob ")
    assert out.count("\n") == 3


@pytest.mark.parametrize("argv", [
    ["threshold", "--n", "300", "--b", "0.15", "--workers", "0", "--trials", "-5", "--seed", "-2"],
    ["threshold", "--n", "300", "--b", "0.15", "--protocol", "all"],
    ["figure", "fig2", "--protocol", "all"],
    ["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--variant", "paper"],
    ["figure", "fig3", "--variant", "paper"],
    ["threshold", "--n", "300", "--b", "0.15", "--variant", "corrected"],
], ids=["threshold_run_settings", "threshold_protocol", "figure_protocol", "estimate_variant",
        "figure_variant", "threshold_variant"])
def test_verbs_reject_flags_they_ignore(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, fields", [
    ("figure", cli._MODES["figure"][0]),
    ("threshold", cli._MODES["threshold"][0]),
    ("estimate", cli._MODES["simulate"][0]),
    ("sweep", (*cli._SWEEP_FLAGS, "config")),
])
def test_each_verb_takes_the_fields_of_its_mode(verb, fields):
    [verbs] = [action for action in _build_parser()._actions if action.dest == "verb"]
    assert {action.dest for action in verbs.choices[verb]._actions} == {*fields, "out", "quiet", "help"}


@pytest.mark.parametrize("argv", [
    ["figure", "fig2"],
    ["estimate", "--n", "50", "--k", "10", "--b", "0.3", "--trials", "20"],
], ids=["figure", "estimate"])
def test_an_omitted_flag_gives_the_bytes_of_its_default(capsys, argv):
    fields = cli._MODES[{"estimate": "simulate"}.get(argv[0], argv[0])][0]
    explicit = [arg for field in fields if field in cli._DEFAULTS and f"--{field}" not in argv
                for arg in (f"--{field}", str(cli._DEFAULTS[field]))]
    assert explicit
    tables = []
    for args in (argv, argv + explicit):
        assert run_cli(*args, "--quiet") == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


# Every pinned table, tests/pinned/<name>.csv, byte for byte (see tests/check_pinned.py).
@pytest.mark.parametrize("name", check_pinned.INDEX)
def test_table_bytes(name):
    problem = check_pinned.check(name)
    assert problem is None, problem


def test_every_pinned_table_has_an_entry():
    assert sorted(path.stem for path in check_pinned.PINNED.glob("*.csv")) == sorted(check_pinned.INDEX)


# the benchmark step that records each pinned figure (bench/refs.json, which only the benchmark updates)
@pytest.mark.parametrize("name, step", [
    (name, "fig6_field/full/fig6" if name == "fig6" else f"analytic_tables/full/{name}") for name in FIGURES])
def test_a_pinned_figure_is_the_benchmarks_reference(name, step):
    refs = json.loads((_ROOT / "bench" / "refs.json").read_text(encoding="utf-8"))
    [digest] = [ref["sha256"] for ref in refs.values() if ref["step"] == step]
    assert hashlib.sha256((check_pinned.PINNED / f"{name}.csv").read_bytes()).hexdigest() == digest


def test_the_stdlib_tables_match_with_numpy_unloadable():
    run = ("import runpy, sys; sys.modules['numpy'] = None; sys.argv[:] = [sys.argv[1], '--stdlib']; "
           "runpy.run_path(sys.argv[0], run_name='__main__')")
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run([sys.executable, "-B", "-c", run, check_pinned.__file__], env=env, capture_output=True,
                          text=True)
    stdlib = sum(entry["stdlib"] for entry in check_pinned.INDEX.values())
    assert (done.returncode, done.stdout) == (0, f"{stdlib} of {stdlib} pinned tables match\n"), done.stderr


_SWEEP = ["sweep", "{cfg}"]
_SHADOW_SWEEP = {"mode": "shadow", "n": 50, "k": 10, "b_o": 0.2, **_SHADOW_CONFIG}
_SIM = {"mode": "simulate", "n": 50, "k": 10, "b": 0.2}
_SIM_FLAGS = ["--n", "50", "--k", "10", "--b", "0.2"]
_ANALYTIC = {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2}
_SUM = {"mode": "analytic", "method": "sum", "a": [0.2, 0.5, 0.8]}
_UNSHADOWED_DRAW = "(needs the shadowing parameters p0_dbm, gamma_dbm, d0, n_p, sigma_s, R)"
_TOO_BIG = "(must be at most 2**53)"


def _not_one_of(field, bad, allowed):
    return f"invalid value for field '{field}': {bad!r} (expected one of {', '.join(map(repr, allowed))})"


_MODE_CHOICES = ("analytic", "simulate", "shadow", "threshold", "figure")
_FIGURE_CHOICES = ("fig1", "fig2", "fig3", "fig4", "fig6", "fig_shadow")
_PROTOCOL_CHOICES, _DRAW_CHOICES = ("center", "all"), ("per_node", "per_link")
_ANALYTIC_METHODS, _SHADOW_METHODS = ("closed", "sum", "approx_small"), ("integrate_conditional", "alternating_sum")
# each enumerated field: (its name, a config that reads it, its allowed values)
_CHOICE_FIELDS = [
    ("mode", {"n": 50, "a": 0.5, "b": 0.2}, _MODE_CHOICES),
    ("figure", {"mode": "figure"}, _FIGURE_CHOICES),
    ("protocol", _SIM, _PROTOCOL_CHOICES),
    ("shadow_draw", {**_SIM, **_SHADOW_CONFIG}, _DRAW_CHOICES),
    ("method", _ANALYTIC, _ANALYTIC_METHODS),
    ("method", _SHADOW_SWEEP, _SHADOW_METHODS),
]

# Every refusal at the config boundary, from a sweep file and, where a flag sets the field, from a
# verb: (id, argv, config, the whole error line). "{cfg}" in argv is the config file; a verb's config is None.
_REFUSALS = [
    # a missing field, a conflict, a config that is no JSON object
    ("missing_sweep", _SWEEP, {"mode": "analytic", "a": 0.5, "b": 0.2}, "missing required field 'n'"),
    ("missing_verb", ["estimate", "--n", "50", "--k", "10"], None, "missing required field 'b'"),
    ("missing_n_verb", ["estimate", "--k", "10", "--b", "0.3"], None, "missing required field 'n'"),
    ("missing_threshold_verb", ["threshold", "--b", "0.15"], None, "missing required field 'n'"),
    ("missing_mode_sweep", _SWEEP, {"n": 50, "a": 0.5, "b": 0.2}, "missing required field 'mode'"),
    ("missing_figure_sweep", _SWEEP, {"mode": "figure"}, "missing required field 'figure'"),
    ("missing_axis_verb", ["threshold", "--n", "300"], None, "missing required field 'b' or 'a'"),
    ("missing_axis_sweep", _SWEEP, {"mode": "threshold", "n": 300}, "missing required field 'b' or 'a'"),
    ("missing_k_or_a_verb", ["estimate", "--n", "50", "--b", "0.2"], None, "missing required field 'k' or 'a'"),
    ("threshold_b_and_a", _SWEEP, {"mode": "threshold", "n": 300, "b": 0.15, "a": 0.5},
     "give either field 'b' or field 'a', not both"),
    ("b_and_a_verb", ["threshold", "--n", "300", "--b", "0.1", "--a", "0.5"], None,
     "give either field 'b' or field 'a', not both"),
    ("k_and_a_verb", ["estimate", "--n", "50", "--k", "5", "--a", "0.5", "--b", "0.2"], None,
     "give either field 'k' or field 'a', not both"),
    ("missing_file", ["sweep", "nope.json"], None,
     "cannot read config file: [Errno 2] No such file or directory: 'nope.json'"),
    ("bad_json", _SWEEP, "{not json",
     "config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("config_not_object", _SWEEP, [_ANALYTIC], "config must be a JSON object"),
    ("empty_config_file", _SWEEP, "", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    # a flag that argparse cannot read; a non-printable one is quoted, so the message stays one line
    ("flag_int_verb", ["estimate", "--n", "x", *_SIM_FLAGS[2:]], None, "argument --n: invalid int value: 'x'"),
    ("flag_float_verb", ["estimate", *_SIM_FLAGS[:4], "--b", "x"], None, "argument --b: invalid float value: 'x'"),
    ("stray_nonprintable_verb", ["estimate", *_SIM_FLAGS, "--x\x00"], None, "unrecognized arguments: '--x\\x00'"),
    ("stray_newline_verb", ["figure", "fig1", "\n"], None, "unrecognized arguments: '\\n'"),
    ("missing_figure_verb", ["figure"], None, "the following arguments are required: figure"),
    # an empty grid, a grid value out of its range
    ("empty_grid_sweep", _SWEEP, {**_ANALYTIC, "b": []}, "empty grid: field 'b' has no values"),
    ("empty_grid_beside_lists_sweep", _SWEEP, {"mode": "analytic", "n": 300, "a": [0.2], "b": []},
     "empty grid: field 'b' has no values"),
    ("empty_grid_n_sweep", _SWEEP, {"mode": "threshold", "n": [], "b": 0.5}, "empty grid: field 'n' has no values"),
    ("empty_grid_k_sweep", _SWEEP, {"mode": "analytic", "n": 50, "k": [], "b": 0.2},
     "empty grid: field 'k' has no values"),
    ("empty_grid_b_o_sweep", _SWEEP, {**_SHADOW_SWEEP, "b_o": []}, "empty grid: field 'b_o' has no values"),
    ("grid_value_sweep", _SWEEP, {**_ANALYTIC, "a": [0.5, 1.5]},
     "invalid value for field 'a': 1.5 (must lie in [0, 1])"),
    ("grid_b_sweep", _SWEEP, {"mode": "analytic", "n": 300, "a": [0.2], "b": [1.5]},
     "invalid value for field 'b': 1.5 (must lie in [0, 1])"),
    ("grid_value_verb", ["estimate", "--n", "50", "--a", "1.5", "--b", "0.2"], None,
     "invalid value for field 'a': 1.5 (must lie in [0, 1])"),
    ("grid_a_verb", ["estimate", "--n", "300", "--a", "1.5", "--b", "0.1"], None,
     "invalid value for field 'a': 1.5 (must lie in [0, 1])"),
    ("estimate_b", ["estimate", *_SIM_FLAGS[:4], "--b", "1.5"], None,
     "invalid value for field 'b': 1.5 (must lie in [0, 1])"),
    ("a_text_sweep", _SWEEP, {**_ANALYTIC, "a": "0.5"}, "invalid value for field 'a': '0.5' (must lie in [0, 1])"),
    ("threshold_a_one_verb", ["threshold", "--n", "300", "--a", "1"], None,
     "invalid value for field 'a': 1.0 (must lie in [0, 1))"),
    ("threshold_b_zero_sweep", _SWEEP, {"mode": "threshold", "n": 300, "b": [0.1, 0]},
     "invalid value for field 'b': 0 (must lie in (0, 1])"),
    ("grid_b_o_above_one_sweep", _SWEEP, {**_SHADOW_SWEEP, "b_o": [0.2, 1.5]},
     "invalid value for field 'b_o': 1.5 (must lie in (0, 1])"),
    ("grid_b_o_sweep", _SWEEP, {**_SHADOW_SWEEP, "b_o": [0.2, 0]},
     "invalid value for field 'b_o': 0 (must lie in (0, 1])"),
    ("simulate_shadowed_b", _SWEEP, {**_SIM, "b": 0, **_SHADOW_CONFIG},
     "invalid value for field 'b': 0 (must lie in (0, 1])"),
    ("grid_shadowed_b_verb", ["estimate", *_SIM_FLAGS[:4], "--b", "0", *_SHADOW_FLAGS], None,
     "invalid value for field 'b': 0.0 (must lie in (0, 1])"),
    ("grid_n_sweep", _SWEEP, {"mode": "threshold", "n": [300, 9], "a": 0.5},
     "invalid value for field 'n': 9 (must be an integer >= 10)"),
    ("grid_n_verb", ["threshold", "--n", "9", "--a", "0.5"], None,
     "invalid value for field 'n': 9 (must be an integer >= 10)"),
    ("threshold_a_star_n", ["threshold", "--n", "4", "--b", "0.5"], None,
     "invalid value for field 'n': 4 (must be an integer >= 5)"),
    ("estimate_small_n", ["estimate", "--n", "3", "--k", "1", "--b", "0.1"], None,
     "invalid value for field 'n': 3 (must be an integer >= 4)"),
    ("n_bool_sweep", _SWEEP, {**_ANALYTIC, "n": True}, "invalid value for field 'n': True (must be an integer >= 4)"),
    ("grid_n_cap_sweep", _SWEEP, {**_ANALYTIC, "n": [50, 2 ** 53 + 1]},
     f"invalid value for field 'n': {2 ** 53 + 1} {_TOO_BIG}"),
    ("grid_n_cap_verb", ["threshold", "--n", str(2 ** 53 + 1), "--b", "0.5"], None,
     f"invalid value for field 'n': {2 ** 53 + 1} {_TOO_BIG}"),
    ("estimate_n_above_cap", ["estimate", "--n", str(2 ** 53 + 1), *_SIM_FLAGS[2:]], None,
     f"invalid value for field 'n': {2 ** 53 + 1} {_TOO_BIG}"),
    ("threshold_huge_n", ["threshold", "--n", str(10 ** 400), "--a", "0.5"], None,
     f"invalid value for field 'n': {10 ** 400} {_TOO_BIG}"),
    ("analytic_huge_n", _SWEEP, {**_ANALYTIC, "n": 10 ** 200},
     f"invalid value for field 'n': {10 ** 200} {_TOO_BIG}"),
    ("grid_k_sweep", _SWEEP, {"mode": "analytic", "n": [60, 50], "k": 55, "b": 0.2},
     "invalid value for field 'k': 55 (must be an integer from 0 to the smallest n, 50)"),
    ("grid_k_verb", ["estimate", "--n", "50", "--k", "51", "--b", "0.2"], None,
     "invalid value for field 'k': 51 (must be an integer from 0 to the smallest n, 50)"),
    ("k_float_sweep", _SWEEP, {"mode": "analytic", "n": 50, "k": 2.5, "b": 0.2},
     "invalid value for field 'k': 2.5 (must be an integer from 0 to the smallest n, 50)"),
    ("k_bool_sweep", _SWEEP, {**_SIM, "k": True},
     "invalid value for field 'k': True (must be an integer from 0 to the smallest n, 50)"),
    # a cell that the method or protocol cannot compute
    ("approx_small_domain", _SWEEP, {"mode": "analytic", "method": "approx_small", "n": 300, "a": [0.2], "b": [0.5]},
     "invalid value for field 'b': 0.5 (approx_small needs (1-a) b^2 < 2/n, got 0.2 >= 0.006667 at n=300, k=240)"),
    ("approx_small_p_loc_above_one", _SWEEP,
     {"mode": "analytic", "method": "approx_small", "n": 300, "a": [0.2], "b": [0.05, 0.07]},
     "invalid value for field 'b': 0.07 (approx_small needs (n-3) (1-a) b^2 <= 1, got 1.164 at n=300, k=240)"),
    # sum's logs round by about 37 at n = 2**53, even at b = 3e-8, whose window is a few terms (it printed
    # p_f 0.0896 against an exact 0.2304); at n = 10**9 the logs are fine, but b = 0.5 passes the term budget
    ("sum_rounding_sweep", _SWEEP, {**_SUM, "n": 2 ** 53, "b": [3e-8, 1e-7, 0.1, 0.5]},
     f"invalid value for field 'n': {2 ** 53} (sum's log-binomials may round by 37, over its tolerance 1e-05 "
     "at b=3e-08)"),
    ("sum_terms_sweep", _SWEEP, {**_SUM, "n": 10 ** 9, "b": [0.01, 0.5]},
     f"invalid value for field 'n': {10 ** 9} (sum may need 1225415 terms, over its budget 250000 at b=0.5)"),
    ("grid_series_n_sweep", _SWEEP, {**_SHADOW_SWEEP, "method": "alternating_sum"},
     f"invalid value for field 'n': 50 (alternating_sum needs n <= {SERIES_MAX_N})"),
    ("grid_simulate_n_sweep", _SWEEP, {**_SIM, "n": [50, _CENTER_MAX_N + 1]},
     f"invalid value for field 'n': {_CENTER_MAX_N + 1} {_CENTER_LIMIT}"),
    *[(case_id, *case) for case_id, case in zip(_SIMULATE_N_IDS, _SIMULATE_N_CASES)],
    ("estimate_all_without_blind", ["estimate", "--n", "50", "--k", "50", "--protocol", "all", "--b", "0.2"], None,
     "invalid value for field 'k': n=50, k=50 leaves no blind node for protocol 'all'"),
    ("simulate_all_without_blind", _SWEEP,
     {"mode": "simulate", "n": 50, "a": [0.5, 0], "b": 0.2, "protocol": "all"},
     "invalid value for field 'a': n=50, k=50 leaves no blind node for protocol 'all'"),
    # run settings
    ("trials_sweep", _SWEEP, {**_SIM, "trials": 0},
     "invalid value for field 'trials': 0 (must be a positive integer)"),
    ("trials_bool_sweep", _SWEEP, {**_SIM, "trials": True},
     "invalid value for field 'trials': True (must be a positive integer)"),
    ("trials_sweep_flag", [*_SWEEP, "--trials", "0"], _SIM,
     "invalid value for field 'trials': 0 (must be a positive integer)"),
    ("figure_trials_text_sweep", _SWEEP, {"mode": "figure", "figure": "fig6", "trials": "4"},
     "invalid value for field 'trials': '4' (must be a positive integer)"),
    ("figure_trials_word_sweep", _SWEEP, {"mode": "figure", "figure": "fig1", "trials": "x"},
     "invalid value for field 'trials': 'x' (must be a positive integer)"),
    ("figure_trials_verb", ["figure", "fig2", "--trials", "-5"], None,
     "invalid value for field 'trials': -5 (must be a positive integer)"),
    ("estimate_trials_verb", ["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--trials", "0"], None,
     "invalid value for field 'trials': 0 (must be a positive integer)"),
    ("seed_sweep", _SWEEP, {**_SIM, "seed": -1},
     "invalid value for field 'seed': -1 (must be a non-negative integer)"),
    ("figure_seed_sweep", _SWEEP, {"mode": "figure", "figure": "fig6", "seed": 1.5},
     "invalid value for field 'seed': 1.5 (must be a non-negative integer)"),
    ("seed_verb", ["estimate", *_SIM_FLAGS, "--seed", "-1"], None,
     "invalid value for field 'seed': -1 (must be a non-negative integer)"),
    ("figure_seed_verb", ["figure", "fig6", "--seed", "-3"], None,
     "invalid value for field 'seed': -3 (must be a non-negative integer)"),
    ("estimate_seed_verb", ["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--seed", "-1"], None,
     "invalid value for field 'seed': -1 (must be a non-negative integer)"),
    ("workers_sweep", _SWEEP, {"mode": "figure", "figure": "fig2", "workers": 1.5},
     "invalid value for field 'workers': 1.5 (must be a positive integer)"),
    ("figure_workers_text_sweep", _SWEEP, {"mode": "figure", "figure": "fig6", "workers": "2"},
     "invalid value for field 'workers': '2' (must be a positive integer)"),
    ("workers_verb", ["figure", "fig2", "--workers", "0"], None,
     "invalid value for field 'workers': 0 (must be a positive integer)"),
    ("estimate_workers_verb", ["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--workers", "0"], None,
     "invalid value for field 'workers': 0 (must be a positive integer)"),
    # the shadowing parameters: all or none, each finite, and a model that they make
    ("shadow_missing_sweep", _SWEEP, {**_SIM, **{f: v for f, v in _SHADOW_CONFIG.items() if f != "d0"}},
     "missing required field 'd0' (shadowing parameters)"),
    ("shadow_missing_first_sweep", _SWEEP,
     {**{f: v for f, v in _SHADOW_SWEEP.items() if f not in ("gamma_dbm", "R")}, "p0_dbm": math.nan},
     "missing required field 'gamma_dbm' (shadowing parameters)"),
    ("shadow_missing_verb", ["estimate", *_SIM_FLAGS, "--sigma-s", "12"], None,
     "missing required field 'p0_dbm' (shadowing parameters)"),
    ("shadow_null_sweep", _SWEEP, {**_SHADOW_SWEEP, "p0_dbm": math.nan, "gamma_dbm": None, "R": None},
     "invalid value for field 'p0_dbm': nan (must be a finite number)"),
    ("shadow_nan_p0", _SWEEP, {**_SHADOW_SWEEP, "p0_dbm": math.nan},
     "invalid value for field 'p0_dbm': nan (must be a finite number)"),
    ("shadow_value_sweep", _SWEEP, {**_SHADOW_SWEEP, "R": math.inf},
     "invalid value for field 'R': inf (must be a finite number)"),
    ("shadow_list_sweep", _SWEEP, {**_SHADOW_SWEEP, "n_p": [3.5]},
     "invalid value for field 'n_p': [3.5] (must be a finite number)"),
    ("shadow_text_sweep", _SWEEP, {**_SHADOW_SWEEP, "n_p": "3.5"},
     "invalid value for field 'n_p': '3.5' (must be a finite number)"),
    ("shadow_value_verb", ["estimate", *_SIM_FLAGS, *_SHADOW_FLAGS[2:], "--sigma-s", "nan"], None,
     "invalid value for field 'sigma_s': nan (must be a finite number)"),
    ("shadow_model_sweep", _SWEEP, {**_SHADOW_SWEEP, "n_p": 0},
     "invalid shadowing parameters: path-loss exponent n_p must be positive, got 0.0"),
    ("shadow_n_p_verb", ["estimate", *_SIM_FLAGS, *_SHADOW_FLAGS[:2], "--n-p", "-1", *_SHADOW_FLAGS[4:]], None,
     "invalid shadowing parameters: path-loss exponent n_p must be positive, got -1.0"),
    ("shadow_sigma_s_sweep", _SWEEP, {**_SHADOW_SWEEP, "sigma_s": -1},
     "invalid shadowing parameters: sigma_s must be non-negative, got -1.0"),
    ("shadow_d0_sweep", _SWEEP, {**_SHADOW_SWEEP, "d0": 0},
     "invalid shadowing parameters: reference distance d0 must be positive, got 0.0"),
    ("shadow_R_sweep", _SWEEP, {**_SHADOW_SWEEP, "R": 0},
     "invalid shadowing parameters: domain radius R must be positive, got 0.0"),
    ("shadow_b_hat_max_underflow", _SWEEP, {**_SHADOW_SWEEP, "p0_dbm": -1e6},
     "invalid shadowing parameters: b_hat_max = 0 is outside (0, 1): the maximum measurable distance 0 must be "
     "positive and fit inside the domain radius 40"),
    ("shadow_b_hat_max_overflow", _SWEEP, {**_SHADOW_SWEEP, "p0_dbm": 1e6},
     "invalid shadowing parameters: b_hat_max = inf is outside (0, 1): the maximum measurable distance inf must be "
     "positive and fit inside the domain radius 40"),
    # a field or flag that the mode does not read
    ("simulate_unread_fields", _SWEEP,
     {"mode": "simulate", "n": 50, "a": 0.5, "b": 0.2, "trails": 3, "protocl": "all", "seed": 1},
     "unknown field 'trails' for simulate mode"),
    ("analytic_unread_flag", [*_SWEEP, "--trials", "5"], _ANALYTIC, "unknown field 'trials' for analytic mode"),
    ("shadow_unread_b", _SWEEP, {**_SHADOW_SWEEP, "b": 0.2}, "unknown field 'b' for shadow mode"),
    ("figure_unread_protocol", _SWEEP, {"mode": "figure", "figure": "fig1", "protocol": "all"},
     "unknown field 'protocol' for figure mode"),
    ("sweep_out_descriptor", _SWEEP, {**_ANALYTIC, "out": 1}, "unknown field 'out' for analytic mode"),
    ("out_sweep", _SWEEP, {**_ANALYTIC, "out": "o.csv"}, "unknown field 'out' for analytic mode"),
    # the closed form has one coefficient: a variant, of any kind, is a field that no mode reads
    ("bad_variant", _SWEEP, {**_ANALYTIC, "variant": "exact"}, "unknown field 'variant' for analytic mode"),
    ("simulate_unread_variant", _SWEEP, {**_SIM, "trials": 10, "variant": "paper"},
     "unknown field 'variant' for simulate mode"),
    *[(f"choice_variant_{kind}", _SWEEP, {**config, "variant": bad},
       f"unknown field 'variant' for {config['mode']} mode")
      for kind, config, bad in (("string", _ANALYTIC, "corrected"), ("list", _SHADOW_SWEEP, ["corrected"]),
                                ("object", {"mode": "figure", "figure": "fig3"}, {"paper": 1}))],
    ("simulate_unread_variant_flag", [*_SWEEP, "--variant", "paper"], _SIM,
     "unrecognized arguments: --variant paper"),
    # an enumerated field: a value outside its choices, of each kind
    *[(f"choice_{config['mode'] + '_' if field == 'method' else ''}{field}_{kind}", _SWEEP, {**config, field: bad},
       _not_one_of(field, bad, allowed))
      for field, config, allowed in _CHOICE_FIELDS
      for kind, bad in (("string", "bogus"), ("list", [allowed[0]]), ("object", {allowed[0]: 1}))],
    ("null_mode_sweep", _SWEEP, {**_ANALYTIC, "mode": None}, _not_one_of("mode", None, _MODE_CHOICES)),
    ("unknown_mode_sweep", _SWEEP, {"mode": "wat", "n": 300}, _not_one_of("mode", "wat", _MODE_CHOICES)),
    ("choice_figure_sweep", _SWEEP, {"mode": "figure", "figure": "fig5"},
     _not_one_of("figure", "fig5", _FIGURE_CHOICES)),
    ("choice_figure_verb", ["figure", "fig5"], None, _not_one_of("figure", "fig5", _FIGURE_CHOICES)),
    ("unknown_figure_verb", ["figure", "fig99"], None, _not_one_of("figure", "fig99", _FIGURE_CHOICES)),
    ("choice_sweep", _SWEEP, {**_SIM, "protocol": "al"}, _not_one_of("protocol", "al", _PROTOCOL_CHOICES)),
    ("choice_sweep_flag", [*_SWEEP, "--protocol", "al"], _SIM, _not_one_of("protocol", "al", _PROTOCOL_CHOICES)),
    ("choice_verb", ["estimate", *_SIM_FLAGS, "--protocol", "al"], None,
     _not_one_of("protocol", "al", _PROTOCOL_CHOICES)),
    ("protocol_list", _SWEEP, {**_SIM, "protocol": ["all"]}, _not_one_of("protocol", ["all"], _PROTOCOL_CHOICES)),
    ("choice_draw_verb", ["estimate", *_SIM_FLAGS, *_SHADOW_FLAGS, "--shadow-draw", "bogus"], None,
     _not_one_of("shadow_draw", "bogus", _DRAW_CHOICES)),
    ("choice_method_sweep", _SWEEP, {**_ANALYTIC, "method": "series"},
     _not_one_of("method", "series", _ANALYTIC_METHODS)),
    ("shadow_method", _SWEEP, {**_SHADOW_SWEEP, "method": "closed"},
     _not_one_of("method", "closed", _SHADOW_METHODS)),
    # the published moment approximation is an erratum, no shadow method
    ("moment_approx_method", _SWEEP,
     {**_SHADOW_SWEEP, "n": 10, "k": 5, "b_o": [0.05, 0.2], "method": "moment_approx"},
     _not_one_of("method", "moment_approx", _SHADOW_METHODS)),
    # a fading draw without the shadowing parameters, whatever draw it names
    ("unshadowed_draw_sweep", _SWEEP, {**_SIM, "shadow_draw": "per_node"},
     f"invalid value for field 'shadow_draw': 'per_node' {_UNSHADOWED_DRAW}"),
    ("bogus_draw", _SWEEP, {**_SIM, "shadow_draw": "bogus"},
     f"invalid value for field 'shadow_draw': 'bogus' {_UNSHADOWED_DRAW}"),
    ("unshadowed_draw_verb", ["estimate", *_SIM_FLAGS, "--shadow-draw", "per_link"], None,
     f"invalid value for field 'shadow_draw': 'per_link' {_UNSHADOWED_DRAW}"),
]


def _config_text(config):
    """The config file's text: a string row is written as it is, so that it may be bad JSON."""
    return config if isinstance(config, str) else json.dumps(config)


# no two rows run the same command on the same config file
_REPEATS = Counter((tuple(argv), _config_text(config)) for _, argv, config, _ in _REFUSALS)
assert max(_REPEATS.values()) == 1, [key for key, count in _REPEATS.items() if count > 1]


@pytest.mark.parametrize("argv, config, line", [pytest.param(*row, id=row_id) for row_id, *row in _REFUSALS])
def test_each_boundary_message_is_one_whole_line(tmp_path, capsys, monkeypatch, argv, config, line):
    # not --quiet, so a refusal must print its one line and nothing else; the stubs fail if a row is
    # computed before the config is checked, and a refused run leaves no output file behind
    stub_row_builders(monkeypatch, "a row was computed before the config was checked")
    monkeypatch.chdir(tmp_path)  # "nope.json" is missing
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(_config_text(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv], "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not out.exists()


_FIELDS = sorted({field for fields, _ in cli._MODES.values() for field in fields})
_fuzz_scalars = st.one_of(
    st.integers(-2, 64), st.integers(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(-2.0, 2.0), st.booleans(), st.text(max_size=3),
    st.sampled_from([*cli._MODES, *FIGURES, "closed", "sum", "approx_small", "integrate_conditional",
                     "alternating_sum", "center", "all", "per_node", "per_link", "corrected", "paper"]))
_fuzz_values = st.one_of(_fuzz_scalars, st.lists(_fuzz_scalars, max_size=4),
                         st.dictionaries(st.text(max_size=2), _fuzz_scalars, max_size=2))
_unit_values = st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
# values a mode accepts, drawn beside the fuzzed ones so that whole configs pass the boundary too
_PLAUSIBLE = {
    "mode": st.sampled_from(list(cli._MODES)),
    "n": st.integers(4, 40) | st.lists(st.integers(4, 40), min_size=1, max_size=4),
    "k": st.integers(0, 4) | st.lists(st.integers(0, 4), min_size=1, max_size=4),
    "a": _unit_values, "b": _unit_values, "b_o": _unit_values,
    "method": st.sampled_from(["closed", "sum", "approx_small", "integrate_conditional", "alternating_sum"]),
    "figure": st.sampled_from(FIGURES), "protocol": st.sampled_from(["center", "all"]),
    "shadow_draw": st.sampled_from(["per_node", "per_link"]),
    "trials": st.integers(1, 3), "seed": st.integers(0, 2**70),
    **{field: st.floats(-100.0, 100.0) for field in _SHADOW_CONFIG},
}
_VALID_CONFIGS = [{"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2},
                  {"mode": "simulate", "n": 50, "k": 10, "b": 0.2},
                  {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, **_SHADOW_CONFIG}, _SHADOW_SWEEP,
                  {"mode": "threshold", "n": 300, "b": 0.15}, {"mode": "figure", "figure": "fig1"}]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_fuzzed_config_runs_or_fails_with_one_error_line(tmp_path, capsys, monkeypatch, data):
    # rows are stubbed, so a config that passes the boundary costs nothing to run
    for name in [name for name in vars(cli) if name.endswith("_row")]:
        monkeypatch.setattr(cli, name, lambda *args: {"p_f": 0.5, "p_loc": 0.5})

    def draw(likely):  # three times in four a likely value: one_of would weigh each fuzzed kind alike
        return data.draw(likely if data.draw(st.integers(0, 3)) else _fuzz_values)

    config = dict(data.draw(st.sampled_from(_VALID_CONFIGS)))  # a valid config, then up to 3 edits
    for _ in range(data.draw(st.integers(0, 3))):
        own = list(cli._MODES[config["mode"]][0]) if config.get("mode") in list(cli._MODES) else _FIELDS
        key = data.draw(st.sampled_from(own) if data.draw(st.integers(0, 3))
                        else st.sampled_from([*_FIELDS, "mode", "trails"]))
        if data.draw(st.integers(0, 3)):
            config[key] = (data.draw(st.sampled_from([1, 2])) if key == "workers"
                           else draw(_PLAUSIBLE.get(key, _fuzz_values)))
        else:
            config.pop(key, None)
    mode = config.get("mode")
    known = mode in list(cli._MODES)  # a list, as the drawn mode may be unhashable
    if not data.draw(st.integers(0, 3)):  # the first field past the mode, so the boundary names it
        config = {"variant": data.draw(_fuzz_values), **config}
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    code = run_cli("sweep", str(cfg), "--out", str(out), "--quiet")
    err = capsys.readouterr().err
    assert code in (0, 1), (config, err)
    assert err == "" if code == 0 else len(err.splitlines()) == 1 and err.startswith("error: "), err
    if "variant" in config and known:
        assert err == f"error: unknown field 'variant' for {mode} mode\n"


def test_estimate_takes_the_unshadowed_draw_by_name(capsys):
    """`--shadow-draw none` on an unshadowed cell prints the rows without it; the config comment records it."""
    argv = ["estimate", "--n", "50", "--k", "10", "--b", "0.3", "--trials", "20"]
    tables = []
    for extra in ([], ["--shadow-draw", "none"]):
        assert run_cli(*argv, *extra) == 0
        tables.append(capsys.readouterr().out.splitlines())
    (plain, *rows), (named, *named_rows) = tables
    assert named_rows == rows
    config = json.loads(plain.split("config=", 1)[1])
    assert "shadow_draw" not in config
    assert json.loads(named.split("config=", 1)[1]) == {**config, "shadow_draw": "none"}


@pytest.mark.parametrize("config", [
    {"n": 300, "a": 0.2, "b": 0.099, "protocol": "center", "trials": 200, "seed": 1},
    {"n": 50, "k": 10, "b": 0.3, "protocol": "all", "trials": 20, "seed": 3},
    {"n": 50, "k": 10, "b": 0.2, "protocol": "center", "trials": 100, "seed": 4, **_SHADOW_CONFIG},
    {"n": 50, "k": 10, "b": 0.2, "protocol": "center", "trials": 100, "seed": 2, **_SHADOW_CONFIG,
     "shadow_draw": "per_link"},
], ids=["center_a", "all_k", "shadowed_default_draw", "shadowed_per_link"])
def test_estimate_is_a_one_cell_simulate_sweep(tmp_path, capsys, config):
    """`estimate`'s rows, seed column included, are the sweep's; its comment is the config plus `variant`."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "simulate", **config}))
    assert run_cli("sweep", str(cfg), "--quiet") == 0
    _, *sweep_rows = capsys.readouterr().out.splitlines()
    flags = [arg for field, value in config.items() for arg in (f"--{field.replace('_', '-')}", str(value))]
    assert run_cli("estimate", *flags, "--workers", "1", "--quiet") == 0
    comment, *rows = capsys.readouterr().out.splitlines()
    assert rows == sweep_rows
    assert json.loads(comment.split("config=", 1)[1]) == {"mode": "simulate", **config, "variant": cli._VARIANT}


# the verbs whose flags are fuzzed, each with flags that pass its boundary
_VALID_FLAGS = [("figure", {"figure": "fig1"}), ("threshold", {"n": 300, "b": 0.15}),
                ("estimate", {"n": 50, "k": 10, "b": 0.2}),
                ("estimate", {"n": 50, "k": 10, "b": 0.2, **_SHADOW_CONFIG})]
_VERB_MODES = {"figure": "figure", "threshold": "threshold", "estimate": "simulate"}
_flag_text = st.one_of(
    st.integers(-2, 64).map(str), st.integers().map(str), st.floats(-2.0, 2.0).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e3", "-1e3", "1e-320", "1e400", "", " ", "0x10", "1_0",
                     *FIGURES, "fig5", "center", "all", "al", "none", "per_node", "per_link", "bogus"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=3))
# a stray argument: unrecognized, or (--s= under estimate) an ambiguous option, often with a line break
_STRAY = st.tuples(st.sampled_from(["", "--x", "--s="]),
                   st.sampled_from(["", "\n", "\r", "\x00", "\x1b", "\x85", "\u2028"]), _flag_text).map("".join)
_PLAUSIBLE_FLAGS = {
    "figure": st.sampled_from(FIGURES), "n": st.integers(4, 40), "k": st.integers(0, 4),
    "a": st.floats(0.0, 1.0), "b": st.floats(0.0, 1.0), "protocol": st.sampled_from(["center", "all"]),
    "shadow_draw": st.sampled_from(["none", "per_node", "per_link"]), "trials": st.integers(1, 3),
    "seed": st.integers(0, 2**70), **{field: st.floats(-100.0, 100.0) for field in _SHADOW_CONFIG},
}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_verb_flags_run_or_fail_with_one_error_line(capsys, monkeypatch, data):
    # rows are stubbed, so flags that pass the boundary cost nothing to run
    for name in [name for name in vars(cli) if name.endswith("_row")]:
        monkeypatch.setattr(cli, name, lambda *args: {"p_f": 0.5, "p_loc": 0.5})
    verb, flags = data.draw(st.sampled_from(_VALID_FLAGS))
    flags = dict(flags)  # valid flags, then up to 3 edits
    for _ in range(data.draw(st.integers(0, 3))):
        field = data.draw(st.sampled_from(cli._MODES[_VERB_MODES[verb]][0]))
        if not data.draw(st.integers(0, 3)):
            flags.pop(field, None)
        elif field == "workers":
            flags[field] = data.draw(st.sampled_from([1, 2]))
        else:  # three times in four a likely value
            flags[field] = data.draw(_PLAUSIBLE_FLAGS[field] if data.draw(st.integers(0, 3)) else _flag_text)
    argv = [verb, *([str(flags.pop("figure"))] if "figure" in flags else []),
            *[f"--{field.replace('_', '-')}={value}" for field, value in flags.items()],
            *data.draw(st.lists(_STRAY, max_size=1))]
    code = run_cli(*argv, "--quiet")
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, err)
    assert err == "" if code == 0 else len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


_NO_DIR = "[Errno 2] No such file or directory: "


@pytest.mark.parametrize("argv, config, expected", [
    (["figure", "fig1", "--out", "{out}"], None, _NO_DIR + "'{out}'"),
    (["figure", "fig6", "--out", "{out}"], None, _NO_DIR + "'{out}'"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", "--trials", "10", "--out", "{out}"], None,
     _NO_DIR + "'{out}'"),
    (["sweep", "{cfg}", "--out", "{out}"], _ANALYTIC, _NO_DIR + "'{out}'"),
    (["figure", "fig1", "--out", "{dir}"], None, "[Errno 21] Is a directory: '{dir}'"),
    (["sweep", "{cfg}", "--out", "{dir}"], _ANALYTIC, "[Errno 21] Is a directory: '{dir}'"),
    (["figure", "fig1", "--out", ""], None, _NO_DIR + "''"),
    (["sweep", "{cfg}", "--out", ""], _ANALYTIC, _NO_DIR + "''"),
    (["sweep", "{cfg}", "--out", "{dir}/o\0.csv"], _ANALYTIC, "embedded null byte"),
    (["sweep", "{cfg}", "--out", "{dir}\0/o.csv"], _ANALYTIC, "embedded null byte"),
    (["figure", "fig1", "--out", "{locked}"], None, "[Errno 13] Permission denied: '{locked}'"),
    (["figure", "fig6", "--trials", "40", "--out", "{long}"], None, "[Errno 36] File name too long: '{long}'"),
    (["figure", "fig1", "--out", "{link}"], None, _NO_DIR + "'{link}'"),
    (["sweep", "{cfg}", "--out", "{file}/o.csv"], _ANALYTIC, "[Errno 20] Not a directory: '{file}/o.csv'"),
    (["figure", "fig1", "--out", "{readonly}"], None, "[Errno 13] Permission denied: '{readonly}'"),
], ids=["figure", "figure_fig6", "estimate", "sweep_config_out", "figure_out_directory",
        "sweep_config_out_directory", "figure_empty_out", "sweep_config_empty_out",
        "sweep_config_nul_in_name", "sweep_config_nul_in_directory", "figure_out_unwritable",
        "figure_long_name", "figure_dangling_symlink", "sweep_under_a_file", "figure_existing_unwritable"])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, monkeypatch, argv, config,
                                                  expected):
    # "{out}" lies in a missing directory, "{dir}" is an existing directory, "{link}" a symlink into
    # the missing one, "{file}" an existing file; open() refuses "{locked}", a new file in a directory
    # it may not write, and "{readonly}", an existing file it may not write
    stub_row_builders(monkeypatch, "a row was computed before the output path was checked")
    cfg, folder, locked = tmp_path / "cfg.json", tmp_path / "existing", tmp_path / "locked"
    paths = {"out": tmp_path / "missing" / "o.csv", "dir": folder, "locked": locked / "o.csv",
             "readonly": locked / "readonly.csv", "long": tmp_path / ("o" * 300), "link": tmp_path / "link",
             "file": tmp_path / "file"}
    folder.mkdir()
    locked.mkdir()
    paths["readonly"].write_bytes(b"readonly\n")
    paths["file"].write_bytes(b"file\n")
    paths["link"].symlink_to(paths["out"])

    def refuse(path, *args, **kwargs):  # the superuser may write anywhere, so the refusal is injected
        if os.path.dirname(path) == str(locked):
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    def on_disk():
        return {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}

    cfg.write_text(json.dumps(config))
    before = on_disk()
    assert run_cli(*[arg.format(cfg=cfg, **paths) for arg in argv], "--quiet") == 1
    assert capsys.readouterr().err == f"error: cannot write output file: {expected.format(**paths)}\n"
    assert on_disk() == before


_TABLE_ARGV = ["threshold", "--n", "300", "--b", "0.15", "--quiet"]


def _run_cli_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    return subprocess.run([sys.executable, "-B", "-m", "locprob.cli", *argv], env=env, capture_output=True,
                          timeout=60)


def test_the_output_path_may_be_a_fifo_a_device_or_a_longer_file(tmp_path, capsys):
    assert run_cli(*_TABLE_ARGV) == 0
    table = capsys.readouterr().out.encode()
    # a FIFO: the held handle keeps its reader from EOF until the table is written
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    done = _run_cli_process(*_TABLE_ARGV, "--out", str(fifo))  # a hang fails at the timeout
    reader.join(60)
    assert (done.returncode, done.stderr, received) == (0, b"", [table])
    assert _run_cli_process(*_TABLE_ARGV, "--out", "/dev/stdout").stdout == table
    assert run_cli(*_TABLE_ARGV, "--out", os.devnull) == 0
    longer = tmp_path / "longer.csv"
    longer.write_bytes(b"x" * 10 * len(table))
    assert run_cli(*_TABLE_ARGV, "--out", str(longer)) == 0
    assert longer.read_bytes() == table


@pytest.mark.parametrize("n, fault, code", [
    (9, NonConvergenceError, 1),  # a config error, before the row
    (300, NonConvergenceError, 2),
    (300, ZeroDivisionError, 3),
], ids=["config_error", "non_convergence", "internal_fault"])
def test_a_failed_run_leaves_the_output_path_as_it_was(tmp_path, monkeypatch, n, fault, code):
    def failing_row(*args):
        raise fault("a stubbed row")

    monkeypatch.setattr(cli, "_b_star_row", failing_row)
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"an earlier table\n")
    for out in (existing, tmp_path / "new.csv"):
        assert run_cli("threshold", "--n", str(n), "--a", "0.5", "--out", str(out), "--quiet") == code
    assert existing.read_bytes() == b"an earlier table\n"
    assert list(tmp_path.iterdir()) == [existing]


def test_n_at_the_cap_gives_finite_closed_forms_and_thresholds(tmp_path, capsys):
    # never a simulation at this size: each chunk draws rows of n - 1 doubles; nor a sum, which the
    # boundary refuses here (the table's row sum_rounding_sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "analytic", "n": 2 ** 53, "a": [0.2, 0.8], "b": [0.1, 0.5]}))
    runs = [["sweep", str(cfg)], ["threshold", "--n", str(2 ** 53), "--b", "0.5"],
            ["threshold", "--n", str(2 ** 53), "--a", "0.5"]]
    for argv in runs:
        assert run_cli(*argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            assert cells["n"] == str(2 ** 53)
            # an empty cell is a root outside its bracket, never a nan
            values = [float(v) for h, v in cells.items() if v and h not in ("n", "k", "method", "variant")]
            assert values and all(math.isfinite(v) for v in values), (argv, row)


def test_a_sum_row_at_a_billion_nodes_scans_only_its_window(tmp_path, capsys):
    # about 27,000 terms around the mode of Bin(10**9 - 1, 1e-4), not a list of 10**9 floats
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "analytic", "method": "sum", "n": 10 ** 9, "k": 10 ** 8,
                               "b": 0.01}))
    tracemalloc.start()
    try:
        assert run_cli("sweep", str(cfg), "--quiet") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert capsys.readouterr().out.splitlines()[2] == "1000000000,100000000,0.9,0.01,0,1,sum,"


def test_a_library_fault_is_not_a_config_error(capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "failure_prob_closed", fault)
    assert run_cli("figure", "fig1", "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.rstrip().endswith("ValueError: internal fault")
    assert not any(line.startswith("error:") for line in err.splitlines())


def test_a_star_root_outside_its_bracket_leaves_its_columns_empty(capsys):
    assert run_cli("threshold", "--n", "52", "--b", "0.2") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "n,b,a_star,a_star_fd,gap",
        "52,0.2,2.22044604925e-16,,",
    ]


def test_b_star_root_past_the_domain_leaves_its_columns_empty(capsys):
    assert run_cli("threshold", "--n", "20", "--a", "0.9") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "n,a,b_star_exact,b_star_large_n,b_star_fd,gap_exact_fd",
        "20,0.9,,,,",
    ]
