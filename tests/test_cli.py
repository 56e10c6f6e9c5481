import hashlib
import json
import math
import multiprocessing
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locprob import cli, montecarlo
from locprob.analytic import FailureProbResult
from locprob.cli import FIGURES, _build_parser, check_figure, main, run_sweep
from locprob.shadowing import SERIES_MAX_N
from oracles import closed_value_reference


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
        assert not check_figure("fig6", rows)

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

    def test_unknown_figure_is_a_config_error(self, capsys):
        assert run_cli("figure", "fig99", "--quiet") == 1
        assert "fig99" in capsys.readouterr().err

    def test_figure_tables_rerun_byte_identically(self, tmp_path):
        # sha256 of each table as first emitted by the per-figure row loops;
        # bench/refs.json records the same digests
        digests = {
            ("fig1",): "76f472ebeac5f03fb5c5597445edc8deee2c2156c8dcd2fc975fb6fe80836ac3",
            ("fig2",): "98dd2aabb230866389022882d40bdbc0e6e86efffc04cb8e8f723e0b4b7f27f2",
            ("fig3",): "8aec22b3f1d3bcca67806c40e30d8441978bcb52721e1ba2458b49388995cc10",
            ("fig4",): "1952ec892786ca57d8fd3551b2a27be1b8717b03767d2fd44d03d2996da1b4ed",
            ("fig_shadow",): "d7f2ec1585d73ae9d04b27420be860419e3daca7113b51a263cb082d0c79878c",
            ("fig6", "--trials", "4", "--seed", "0"):
                "01ce150305069ccb8e593b8a68f40e8b077c0378b1732420db5b973961115639",
        }
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run_cli("figure", "fig2", "--out", str(one), "--quiet") == 0
        assert run_cli("figure", "fig2", "--out", str(two), "--quiet") == 0
        assert one.read_bytes() == two.read_bytes()
        for argv, digest in digests.items():
            assert run_cli("figure", *argv, "--out", str(one), "--quiet") == 0
            assert hashlib.sha256(one.read_bytes()).hexdigest() == digest, argv

    def test_figure_mode_in_sweep_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "figure", "figure": "fig4"}))
        out = tmp_path / "f.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert len(rows) == 20

    @pytest.mark.parametrize("name", FIGURES)
    @pytest.mark.parametrize("variant", ["corrected", "paper"])
    def test_a_figure_sweep_self_checks_like_the_figure_verb(self, tmp_path, capsys, monkeypatch, name,
                                                             variant):
        # the published bracket coefficient (the oracle's erratum), in place of the closed form,
        # bends fig3's and fig_shadow's closed-form curves: a failed caption claim exits 2
        if variant == "paper":
            def published(net, b):
                p_f = closed_value_reference(net.n, net.a, b, "paper")
                return FailureProbResult(p_f=p_f, p_loc=1.0 - p_f, method="closed")

            monkeypatch.setattr(cli, "failure_prob_closed", published)
        expected = 2 if variant == "paper" and name in ("fig3", "fig_shadow") else 0
        trials = {"trials": 1} if name == "fig6" else {}
        cfg, verb, sweep = tmp_path / "cfg.json", tmp_path / "verb.csv", tmp_path / "sweep.csv"
        cfg.write_text(json.dumps({"mode": "figure", "figure": name, **trials}))
        flags = [arg for field, value in trials.items() for arg in (f"--{field}", str(value))]
        assert run_cli("figure", name, *flags, "--out", str(verb)) == expected
        verb_err = capsys.readouterr().err
        assert run_cli("sweep", str(cfg), "--out", str(sweep)) == expected
        sweep_err = capsys.readouterr().err
        checks = [line for line in verb_err.splitlines() if line.startswith("self-check")]
        assert checks == [line for line in sweep_err.splitlines() if line.startswith("self-check")]
        assert checks and all(("FAILED" in line) == bool(expected) for line in checks)
        assert verb.read_bytes().split(b"\n", 1)[1] == sweep.read_bytes().split(b"\n", 1)[1]

    @pytest.mark.parametrize("name", FIGURES)
    def test_every_caption_claim_fires(self, name):
        rows = run_sweep({"mode": "figure", "figure": name, "trials": 1})
        assert not check_figure(name, rows)
        # the first row's keys are the table's header, so every row must share their order
        assert all(list(row) == list(rows[0]) for row in rows)
        assert cli._CLAIMS[name], f"{name} checks no claim"

        def broken(index, column, value):
            copy = [dict(row) for row in rows]
            copy[index][column] = value
            return copy

        for series, x, y, sign in cli._CLAIMS[name]:
            low, high = _unequal_pair(rows, series, y)
            swapped = broken(low, y, rows[high][y])
            swapped[high][y] = rows[low][y]
            for table in (swapped, broken(low, y, float("nan"))):
                problems = check_figure(name, table)
                assert any(p.startswith(f"{name}: {y} not non-") for p in problems), (series, x, y)
        if name == "fig_shadow":  # the one claim that is not monotonicity
            flat = [{**row, "p_loc_shadow": row["p_loc_noshadow"]} for row in rows]
            assert any("no gain-to-loss crossing" in p for p in check_figure(name, flat))

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

    def test_empty_grid_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "analytic", "n": 300, "a": [0.2], "b": []}))
        assert run_cli("sweep", str(cfg), "--quiet") == 1
        assert "empty grid" in capsys.readouterr().err

    def test_offending_field_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "analytic", "n": 300, "a": [0.2], "b": [1.5]}))
        assert run_cli("sweep", str(cfg), "--quiet") == 1
        assert "'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("figure, field, value", [
        ("fig6", "trials", "4"), ("fig6", "workers", "2"), ("fig6", "seed", 1.5),
        ("fig1", "trials", "x"),
    ])
    def test_figure_mode_checks_run_settings(self, tmp_path, capsys, figure, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "figure", "figure": figure, field: value}))
        out = tmp_path / "f.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out), "--quiet") == 1
        assert f"error: invalid value for field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_and_bad_json(self, tmp_path, capsys):
        assert run_cli("sweep", str(tmp_path / "nope.json"), "--quiet") == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("sweep", str(bad), "--quiet") == 1

    def test_unknown_mode(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "wat", "n": 300}))
        assert run_cli("sweep", str(cfg), "--quiet") == 1
        assert "'mode'" in capsys.readouterr().err


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

    def test_requires_exactly_one_axis(self, capsys):
        assert run_cli("threshold", "--n", "300", "--quiet") == 1
        assert "error: missing required field 'b' or 'a'" in capsys.readouterr().err
        assert run_cli("threshold", "--n", "300", "--b", "0.1", "--a", "0.5",
                       "--quiet") == 1
        assert "error: give either field 'b' or field 'a', not both" in capsys.readouterr().err


class TestEstimateVerb:
    def test_byte_identical_reruns_and_worker_counts(self, tmp_path):
        paths = [tmp_path / f"e{i}.csv" for i in range(3)]
        base = ["estimate", "--n", "300", "--a", "0.2", "--b", "0.099",
                "--trials", "1000", "--seed", "1", "--quiet"]
        assert run_cli(*base, "--out", str(paths[0])) == 0
        assert run_cli(*base, "--out", str(paths[1])) == 0
        assert run_cli(*base, "--workers", "4", "--out", str(paths[2])) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

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

    def test_partial_shadow_flags_are_rejected(self, capsys):
        assert run_cli("estimate", "--n", "50", "--k", "10", "--b", "0.2",
                       "--sigma-s", "12", "--quiet") == 1
        assert "error: missing required field 'p0_dbm' (shadowing parameters)" in capsys.readouterr().err

    def test_requires_one_of_k_or_a(self, capsys):
        assert run_cli("estimate", "--n", "50", "--b", "0.2", "--quiet") == 1
        assert "error: missing required field 'k' or 'a'" in capsys.readouterr().err
        assert run_cli("estimate", "--n", "50", "--k", "5", "--a", "0.5",
                       "--b", "0.2", "--quiet") == 1
        assert "error: give either field 'k' or field 'a', not both" in capsys.readouterr().err

    def test_bad_flag_is_a_config_error(self, capsys):
        assert run_cli("estimate", "--n", "50", "--k", "10") == 1  # missing --b
        # a missing flag fails at the config boundary, by field name
        assert capsys.readouterr().err == "error: missing required field 'b'\n"
        assert run_cli("estimate", "--k", "10", "--b", "0.3") == 1
        assert capsys.readouterr().err == "error: missing required field 'n'\n"
        assert run_cli("threshold", "--b", "0.15") == 1
        assert capsys.readouterr().err == "error: missing required field 'n'\n"

    def test_bad_network_names_its_field(self, capsys):
        assert run_cli("estimate", "--n", "300", "--a", "1.5", "--b", "0.1", "--quiet") == 1
        assert "error: invalid value for field 'a': 1.5 (must lie in [0, 1])" in capsys.readouterr().err
        assert run_cli("estimate", "--n", "3", "--k", "1", "--b", "0.1", "--quiet") == 1
        assert "error: invalid value for field 'n': 3 (must be an integer >= 4)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["figure", "fig2", "--trials", "-5"], "trials"),
    (["figure", "fig2", "--workers", "0"], "workers"),
    (["figure", "fig6", "--seed", "-3"], "seed"),
    (["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--seed", "-1"], "seed"),
    (["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--trials", "0"], "trials"),
    (["estimate", "--n", "300", "--a", "0.2", "--b", "0.1", "--workers", "0"], "workers"),
])
def test_verbs_check_run_settings(tmp_path, capsys, argv, field):
    out = tmp_path / "o.csv"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 1
    assert f"error: invalid value for field '{field}'" in capsys.readouterr().err
    assert not out.exists()


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
# cells past their protocol's n limit, whose chunk memory would grow with n; never run one
_SIMULATE_N_CASES = [
    (["estimate", "--n", str(_CENTER_MAX_N + 1), "--k", "10", "--b", "0.2"], None, "n"),
    (["estimate", "--n", str(_FIELD_MAX_N + 1), "--a", "0.5", "--b", "0.2", "--protocol", "all",
      *_SHADOW_FLAGS, "--shadow-draw", "per_link"], None, "n"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": [50, _FIELD_MAX_N + 1], "a": 0.5, "b": 0.2,
                          "protocol": "all"}, "n"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": [10 ** 9, 50], "k": 10, "b": 0.2, **_SHADOW_CONFIG},
     "n"),
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


def test_threshold_table_bytes(capsys):
    assert run_cli("threshold", "--n", "300", "--b", "0.15") == 0
    assert capsys.readouterr().out == (
        '# locprob 0.1.0 config={"b":0.15,"mode":"threshold","n":300,"variant":"corrected"}\n'
        "n,b,a_star,a_star_fd,gap\n"
        "300,0.15,0.701715137957,0.701714832781,3.05175781312e-07\n"
    )


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


# Tables recorded when each verb still built its own rows; a change in the
# shared row builders or in estimate's seeding shows here.  The alternating_sum
# and n = 3000 sum rows share their row invariants within the table.
@pytest.mark.parametrize("argv, config, expected", [
    (["estimate", "--n", "300", "--a", "0.2", "--b", "0.099", "--trials", "1000", "--seed", "1"],
     None,
     '# locprob 0.1.0 config={"b":0.099,"k":240,"mode":"simulate","n":300,"protocol":"center",'
     '"seed":1,"trials":1000}\n'
     "n,k,a,b,p_f,p_loc,trials,successes,ci_low,ci_high,realizations,seed,protocol\n"
     "300,240,0.2,0.099,0.572,0.428,1000,428,0.397666253174,0.458884800048,1000,1,center_node\n"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.3", "--trials", "20", "--seed", "3",
      "--protocol", "all"],
     None,
     '# locprob 0.1.0 config={"b":0.3,"k":10,"mode":"simulate","n":50,"protocol":"all",'
     '"seed":3,"trials":20}\n'
     "n,k,a,b,p_f,p_loc,trials,successes,ci_low,ci_high,realizations,seed,protocol\n"
     "50,10,0.8,0.3,0.97,0.03,800,24,0.0202414836858,0.0442506599475,20,3,all_nl_nodes\n"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", *_SHADOW_FLAGS,
      "--shadow-draw", "per_link", "--trials", "500", "--seed", "2"],
     None,
     '# locprob 0.1.0 config={"R":40.0,"b":0.2,"d0":0.1,"gamma_dbm":-80.0,"k":10,'
     '"mode":"simulate","n":50,"n_p":3.5,"p0_dbm":0.0,"protocol":"center","seed":2,'
     '"shadow_draw":"per_link","sigma_s":12.0,"trials":500}\n'
     "n,k,a,b,sigma1,b_hat_max,zero_mass,p_f,p_loc,trials,successes,ci_low,ci_high,"
     "realizations,seed,protocol\n"
     "50,10,0.8,0.2,3.42857142857,0.482674432221,0.132213734503,0.994,0.006,500,3,"
     "0.00204259627196,0.0174902521041,500,2,center_node\n"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", *_SHADOW_FLAGS, "--trials", "300",
      "--seed", "4"],
     None,
     '# locprob 0.1.0 config={"R":40.0,"b":0.2,"d0":0.1,"gamma_dbm":-80.0,"k":10,'
     '"mode":"simulate","n":50,"n_p":3.5,"p0_dbm":0.0,"protocol":"center","seed":4,'
     '"shadow_draw":"per_node","sigma_s":12.0,"trials":300}\n'
     "n,k,a,b,sigma1,b_hat_max,zero_mass,p_f,p_loc,trials,successes,ci_low,ci_high,"
     "realizations,seed,protocol\n"
     "50,10,0.8,0.2,3.42857142857,0.482674432221,0.132213734503,0.95,0.05,300,15,"
     "0.0305316406293,0.0808470334727,300,4,center_node\n"),
    (["estimate", "--n", "60", "--a", "0.5", "--b", "0.3", "--trials", "200", "--seed", "5",
      "--workers", "2"],
     None,
     '# locprob 0.1.0 config={"b":0.3,"k":30,"mode":"simulate","n":60,"protocol":"center",'
     '"seed":5,"trials":200}\n'
     "n,k,a,b,p_f,p_loc,trials,successes,ci_low,ci_high,realizations,seed,protocol\n"
     "60,30,0.5,0.3,0.51,0.49,200,98,0.421562783312,0.558814123215,200,5,center_node\n"),
    (["sweep", "{cfg}", "--seed", "9", "--trials", "200"],
     {"mode": "simulate", "n": [50, 80], "k": [10], "b": [0.2, 0.3]},
     '# locprob 0.1.0 config={"b":[0.2,0.3],"k":[10],"mode":"simulate","n":[50,80],'
     '"seed":9,"trials":200}\n'
     "n,k,a,b,p_f,p_loc,trials,successes,ci_low,ci_high,realizations,seed,protocol\n"
     "50,10,0.8,0.2,1,0,200,0,0,0.0188453263773,200,747784396,center_node\n"
     "50,10,0.8,0.3,0.935,0.065,200,13,0.0383763546492,0.108019079299,200,4053640108,"
     "center_node\n"
     "80,10,0.875,0.2,0.98,0.02,200,4,0.00780442641635,0.0502870869058,200,1988026542,"
     "center_node\n"
     "80,10,0.875,0.3,0.915,0.085,200,17,0.0537457501775,0.131895870716,200,219603630,"
     "center_node\n"),
    # a sigma_s of -0.0 must reach the fading draws as a scale of +0.0
    (["sweep", "{cfg}", "--seed", "3", "--trials", "200"],
     {"mode": "simulate", "n": 50, "k": 40, "b": 0.3, **_SHADOW_CONFIG, "sigma_s": -0.0},
     '# locprob 0.1.0 config={"R":40,"b":0.3,"d0":0.1,"gamma_dbm":-80,"k":40,"mode":"simulate",'
     '"n":50,"n_p":3.5,"p0_dbm":0,"seed":3,"sigma_s":-0.0,"trials":200}\n'
     "n,k,a,b,sigma1,b_hat_max,zero_mass,p_f,p_loc,trials,successes,ci_low,ci_high,"
     "realizations,seed,protocol\n"
     "50,40,0.2,0.3,0,0.482674432221,0,0.32,0.68,200,136,0.612481015659,0.740734666845,200,"
     "819382448,center_node\n"),
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "sum", "n": 50, "a": [0.2, 0.8], "b": [0.3]},
     '# locprob 0.1.0 config={"a":[0.2,0.8],"b":[0.3],"method":"sum","mode":"analytic",'
     '"n":50}\n'
     "n,k,a,b,p_f,p_loc,method,variant\n"
     "50,40,0.2,0.3,0.305278625823,0.694721374177,sum,\n"
     "50,10,0.8,0.3,0.941719082917,0.058280917083,sum,\n"),
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "approx_small", "n": 300, "a": [0.2, 0.8], "b": [0.05]},
     '# locprob 0.1.0 config={"a":[0.2,0.8],"b":[0.05],"method":"approx_small",'
     '"mode":"analytic","n":300}\n'
     "n,k,a,b,p_f,p_loc,method,variant\n"
     "300,240,0.2,0.05,0.647164,0.352836,approx_small,\n"
     "300,60,0.8,0.05,0.97794775,0.02205225,approx_small,\n"),
    (["sweep", "{cfg}"],
     {"mode": "shadow", "method": "alternating_sum", "n": 20, "a": [0.2, 0.8], "b_o": [0.1, 0.3],
      **_SHADOW_CONFIG},
     '# locprob 0.1.0 config={"R":40,"a":[0.2,0.8],"b_o":[0.1,0.3],"d0":0.1,"gamma_dbm":-80,'
     '"method":"alternating_sum","mode":"shadow","n":20,"n_p":3.5,"p0_dbm":0,"sigma_s":12}\n'
     "n,k,a,b_o,sigma1,b_hat_max,zero_mass,p_f,p_loc,method,variant\n"
     "20,16,0.2,0.1,3.42857142857,0.482674432221,0.0230764812287,0.970796499997,0.0292035000031,"
     "alternating_sum,corrected\n"
     "20,16,0.2,0.3,3.42857142857,0.482674432221,0.273457937182,0.896043778451,0.103956221549,"
     "alternating_sum,corrected\n"
     "20,4,0.8,0.1,3.42857142857,0.482674432221,0.0230764812287,0.998781491926,0.00121850807431,"
     "alternating_sum,corrected\n"
     "20,4,0.8,0.3,3.42857142857,0.482674432221,0.273457937182,0.995016218827,0.00498378117337,"
     "alternating_sum,corrected\n"),
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "sum", "n": 3000, "a": [0.2, 0.8], "b": [0.03, 0.05]},
     '# locprob 0.1.0 config={"a":[0.2,0.8],"b":[0.03,0.05],"method":"sum","mode":"analytic",'
     '"n":3000}\n'
     "n,k,a,b,p_f,p_loc,method,variant\n"
     "3000,2400,0.2,0.03,0.633636107211,0.366363892789,sum,\n"
     "3000,2400,0.2,0.05,0.0618794750764,0.938120524924,sum,\n"
     "3000,600,0.8,0.03,0.982423454905,0.0175765450955,sum,\n"
     "3000,600,0.8,0.05,0.809003753148,0.190996246852,sum,\n"),
    (["threshold", "--n", "300", "--a", "0.5"],
     None,
     '# locprob 0.1.0 config={"a":0.5,"mode":"threshold","n":300,"variant":"corrected"}\n'
     "n,a,b_star_exact,b_star_large_n,b_star_fd,gap_exact_fd\n"
     "300,0.5,0.124904992723,0.124442105831,0.129423569393,-0.0045185766706\n"),
    # a* leaves (0, 1) at n = 20, so those rows print empty a* columns
    (["sweep", "{cfg}"],
     {"mode": "threshold", "n": [20, 300], "b": [0.1, 0.15]},
     '# locprob 0.1.0 config={"b":[0.1,0.15],"mode":"threshold","n":[20,300]}\n'
     "n,b,a_star,a_star_fd,gap\n"
     "20,0.1,,,\n"
     "20,0.15,,,\n"
     "300,0.1,0.328859060403,0.328858144875,9.1552734377e-07\n"
     "300,0.15,0.701715137957,0.701714832781,3.05175781312e-07\n"),
    (["sweep", "{cfg}"],
     {"mode": "simulate", "protocol": "all", "shadow_draw": "per_link", "n": 50, "k": [10, 40],
      "b": [0.3], "trials": 8, **_SHADOW_CONFIG},
     '# locprob 0.1.0 config={"R":40,"b":[0.3],"d0":0.1,"gamma_dbm":-80,"k":[10,40],'
     '"mode":"simulate","n":50,"n_p":3.5,"p0_dbm":0,"protocol":"all","shadow_draw":"per_link",'
     '"sigma_s":12,"trials":8}\n'
     "n,k,a,b,sigma1,b_hat_max,zero_mass,p_f,p_loc,trials,successes,ci_low,ci_high,"
     "realizations,seed,protocol\n"
     "50,10,0.8,0.3,3.42857142857,0.482674432221,0.273457937182,0.99375,0.00625,320,2,"
     "0.00171565206684,0.0224982297791,8,3757552657,all_nl_nodes\n"
     "50,40,0.2,0.3,3.42857142857,0.482674432221,0.273457937182,0.7,0.3,80,24,"
     "0.210645712601,0.407681539213,8,673228719,all_nl_nodes\n"),
], ids=["estimate_a", "estimate_k_all", "estimate_per_link", "estimate_default_draw",
        "estimate_a_workers", "simulate_sweep", "simulate_sweep_negative_zero_sigma_s",
        "analytic_sum",
        "approx_small", "shadow_alternating_sum", "analytic_sum_n3000", "threshold_a",
        "threshold_b_sweep", "simulate_sweep_field_per_link"])
def test_table_bytes(tmp_path, capsys, argv, config, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv]) == 0
    assert capsys.readouterr().out == expected


_SHADOW_SWEEP = {"mode": "shadow", "n": 50, "k": 10, "b_o": 0.2, **_SHADOW_CONFIG}

# each enumerated field: (its name, a config that reads it, its allowed values)
_CHOICE_FIELDS = [
    ("mode", {"n": 50, "a": 0.5, "b": 0.2},
     ("analytic", "simulate", "shadow", "threshold", "figure")),
    ("figure", {"mode": "figure"}, FIGURES),
    ("protocol", {"mode": "simulate", "n": 50, "k": 10, "b": 0.2}, ("center", "all")),
    ("shadow_draw", {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, **_SHADOW_CONFIG},
     ("per_node", "per_link")),
    ("method", {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2}, ("closed", "sum", "approx_small")),
    ("method", _SHADOW_SWEEP, ("integrate_conditional", "alternating_sum")),
]
_CHOICE_CASES = [
    (["sweep", "{cfg}"], {**config, field: bad},
     f"invalid value for field '{field}': {bad!r} (expected one of {', '.join(map(repr, allowed))})")
    for field, config, allowed in _CHOICE_FIELDS
    for bad in ("bogus", [allowed[0]], {allowed[0]: 1})
]
_CHOICE_IDS = [f"choice_{config['mode'] + '_' if field == 'method' else ''}{field}_{kind}"
               for field, config, _ in _CHOICE_FIELDS for kind in ("string", "list", "object")]
# the closed form has one coefficient: a variant, of any kind, is a field that no mode reads
_VARIANT_CASES = [
    (["sweep", "{cfg}"], {**config, "variant": bad}, f"unknown field 'variant' for {config['mode']} mode")
    for config, bad in (({"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2}, "corrected"),
                        (_SHADOW_SWEEP, ["corrected"]), ({"mode": "figure", "figure": "fig3"}, {"paper": 1}))
]
_VARIANT_IDS = [f"choice_variant_{kind}" for kind in ("string", "list", "object")]


# field None: a combination of shadowing parameters the model rejects; a field with a
# space in it is the whole message (a field the mode does not read, or a conflict)
@pytest.mark.parametrize("argv, config, field", [
    (["estimate", "--n", "50", "--k", "10", "--b", "1.5"], None, "b"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0", *_SHADOW_FLAGS], None, "b"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0, **_SHADOW_CONFIG}, "b"),
    (["threshold", "--n", "4", "--b", "0.5"], None, "n"),
    (["threshold", "--n", "9", "--a", "0.5"], None, "n"),
    (["sweep", "{cfg}"], {"mode": "threshold", "n": [300, 9], "a": 0.5}, "n"),
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "approx_small", "n": 300, "a": [0.2], "b": [0.5]}, "b"),
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "approx_small", "n": 300, "a": [0.2], "b": [0.05, 0.07]}, "b"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "method": "alternating_sum"}, "n"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "n": 10, "k": 5, "b_o": [0.05, 0.2], "method": "moment_approx"},
     "method"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, "shadow_draw": "per_node"},
     "shadow_draw"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, "shadow_draw": "bogus"},
     "shadow_draw"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", "--shadow-draw", "per_link"], None,
     "shadow_draw"),
    (["estimate", "--n", "50", "--k", "50", "--protocol", "all", "--b", "0.2"], None, "k"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "a": [0.5, 0], "b": 0.2, "protocol": "all"},
     "a"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, "protocol": ["all"]},
     "protocol"),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", *_SHADOW_FLAGS[2:], "--sigma-s", "nan"],
     None, "sigma_s"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "p0_dbm": float("nan")}, "p0_dbm"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "R": float("inf")}, "R"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "p0_dbm": -1e6}, None),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "p0_dbm": 1e6}, None),
    (["sweep", "{cfg}"],
     {"mode": "simulate", "n": 50, "a": 0.5, "b": 0.2, "trails": 3, "protocl": "all", "seed": 1},
     "unknown field 'trails' for simulate mode"),
    (["sweep", "{cfg}"], {"mode": "threshold", "n": 300, "b": 0.15, "a": 0.5},
     "give either field 'b' or field 'a', not both"),
    (["sweep", "{cfg}", "--trials", "5"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2},
     "unknown field 'trials' for analytic mode"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "b": 0.2}, "unknown field 'b' for shadow mode"),
    (["sweep", "{cfg}"], {"mode": "figure", "figure": "fig1", "protocol": "all"},
     "unknown field 'protocol' for figure mode"),
    (["sweep", "{cfg}"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2, "trials": 10,
                          "variant": "paper"}, "unknown field 'variant' for simulate mode"),
    (["sweep", "{cfg}", "--variant", "paper"], {"mode": "simulate", "n": 50, "k": 10, "b": 0.2},
     "unrecognized arguments: --variant paper"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": 1}, "out"),
    (["sweep", "{cfg}"], {"mode": "analytic", "a": 0.5, "b": 0.2}, "missing required field 'n'"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": [60, 50], "k": 55, "b": 0.2}, "k"),
    (["sweep", "{cfg}"],
     {"mode": "simulate", "n": 50, "k": 10, "b": 0.2,
      **{f: v for f, v in _SHADOW_CONFIG.items() if f != "d0"}},
     "missing required field 'd0' (shadowing parameters)"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "variant": "exact"},
     "unknown field 'variant' for analytic mode"),
    (["sweep", "{cfg}"], {"mode": "figure", "figure": "fig5"}, "figure"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "method": "series"},
     "method"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "method": "closed"}, "method"),
    (["sweep", "{cfg}"], [{"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2}],
     "config must be a JSON object"),
    (["threshold", "--n", str(2 ** 53 + 1), "--b", "0.5"], None,
     f"invalid value for field 'n': {2 ** 53 + 1} (must be at most 2**53)"),
    (["threshold", "--n", str(10 ** 400), "--a", "0.5"], None, "n"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 10 ** 200, "a": 0.5, "b": 0.2}, "n"),
    (["estimate", "--n", str(2 ** 53 + 1), "--k", "10", "--b", "0.2"], None, "n"),
    *_SIMULATE_N_CASES,
    *_CHOICE_CASES,
    *_VARIANT_CASES,
], ids=["estimate_b", "estimate_shadowed_b", "simulate_shadowed_b", "threshold_a_star_n",
        "threshold_b_star_n", "threshold_sweep_n", "approx_small_domain",
        "approx_small_p_loc_above_one", "alternating_sum_n", "moment_approx_method", "unshadowed_draw",
        "bogus_draw", "estimate_unshadowed_draw",
        "estimate_all_without_blind", "simulate_all_without_blind", "protocol_list",
        "estimate_nan_sigma_s",
        "shadow_nan_p0", "shadow_inf_R", "shadow_b_hat_max_underflow",
        "shadow_b_hat_max_overflow", "simulate_unread_fields", "threshold_b_and_a",
        "analytic_unread_flag", "shadow_unread_b", "figure_unread_protocol",
        "simulate_unread_variant", "simulate_unread_variant_flag",
        "sweep_out_descriptor", "missing_n", "sweep_k_above_n", "partial_shadowing",
        "bad_variant", "unknown_figure", "analytic_method", "shadow_method", "config_not_object",
        "threshold_n_above_cap", "threshold_huge_n", "analytic_huge_n", "estimate_n_above_cap",
        *_SIMULATE_N_IDS, *_CHOICE_IDS, *_VARIANT_IDS])
def test_config_boundary_names_the_field(tmp_path, capsys, monkeypatch, argv, config, field):
    stub_row_builders(monkeypatch, "a row was computed before the config was checked")
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv], "--out", str(out), "--quiet") == 1
    err = capsys.readouterr().err
    if field is None:
        expected = "invalid shadowing parameters"
    elif " " in field:
        expected = field
    else:
        expected = f"invalid value for field '{field}'"
    assert err.startswith(f"error: {expected}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
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
    monkeypatch.setattr(cli, "check_figure", lambda name, rows: [])

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


_SIM = {"mode": "simulate", "n": 50, "k": 10, "b": 0.2}
_SIM_FLAGS = ["--n", "50", "--k", "10", "--b", "0.2"]
_PROTOCOL_LINE = "invalid value for field 'protocol': 'al' (expected one of 'center', 'all')"
_DRAW_LINE = "invalid value for field 'shadow_draw': 'bogus' (expected one of 'per_node', 'per_link')"
_UNSHADOWED_DRAW = "(needs the shadowing parameters p0_dbm, gamma_dbm, d0, n_p, sigma_s, R)"
_FIGURE_LINE = ("invalid value for field 'figure': 'fig5' (expected one of 'fig1', 'fig2', 'fig3', "
                "'fig4', 'fig6', 'fig_shadow')")
_MODE_LINE = ("invalid value for field 'mode': None (expected one of 'analytic', 'simulate', 'shadow', "
              "'threshold', 'figure')")


# one row per kind of boundary message, from a sweep file and, where a flag sets the field,
# from a verb: (argv, config, the whole error line)
@pytest.mark.parametrize("argv, config, line", [
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "a": 0.5, "b": 0.2},
                 "missing required field 'n'", id="missing_sweep"),
    pytest.param(["estimate", "--n", "50", "--k", "10"], None, "missing required field 'b'",
                 id="missing_verb"),
    pytest.param(["threshold", "--b", "0.15"], None, "missing required field 'n'", id="missing_threshold_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": []},
                 "empty grid: field 'b' has no values", id="empty_grid_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": "threshold", "n": [], "b": 0.5},
                 "empty grid: field 'n' has no values", id="empty_grid_n_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": [0.5, 1.5], "b": 0.2},
                 "invalid value for field 'a': 1.5 (must lie in [0, 1])", id="grid_value_sweep"),
    pytest.param(["estimate", "--n", "50", "--a", "1.5", "--b", "0.2"], None,
                 "invalid value for field 'a': 1.5 (must lie in [0, 1])", id="grid_value_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "threshold", "n": [300, 9], "a": 0.5},
                 "invalid value for field 'n': 9 (must be an integer >= 10)", id="grid_n_sweep"),
    pytest.param(["threshold", "--n", "9", "--a", "0.5"], None,
                 "invalid value for field 'n': 9 (must be an integer >= 10)", id="grid_n_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": [50, 2 ** 53 + 1], "a": 0.5, "b": 0.2},
                 f"invalid value for field 'n': {2 ** 53 + 1} (must be at most 2**53)", id="grid_n_cap_sweep"),
    pytest.param(["threshold", "--n", str(2 ** 53 + 1), "--b", "0.5"], None,
                 f"invalid value for field 'n': {2 ** 53 + 1} (must be at most 2**53)", id="grid_n_cap_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": [60, 50], "k": 55, "b": 0.2},
                 "invalid value for field 'k': 55 (must be an integer from 0 to the smallest n, 50)",
                 id="grid_k_sweep"),
    pytest.param(["estimate", "--n", "50", "--k", "51", "--b", "0.2"], None,
                 "invalid value for field 'k': 51 (must be an integer from 0 to the smallest n, 50)",
                 id="grid_k_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "b_o": [0.2, 0]},
                 "invalid value for field 'b_o': 0 (must lie in (0, 1])", id="grid_b_o_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS[:4], "--b", "0", *_SHADOW_FLAGS], None,
                 "invalid value for field 'b': 0.0 (must lie in (0, 1])", id="grid_shadowed_b_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "method": "alternating_sum"},
                 f"invalid value for field 'n': 50 (alternating_sum needs n <= {SERIES_MAX_N})",
                 id="grid_series_n_sweep"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "n": [50, _CENTER_MAX_N + 1]},
                 f"invalid value for field 'n': {_CENTER_MAX_N + 1} (protocol 'center' simulates "
                 f"n <= {_CENTER_MAX_N})", id="grid_simulate_n_sweep"),
    pytest.param(["estimate", "--n", str(_CENTER_MAX_N + 1), *_SIM_FLAGS[2:]], None,
                 f"invalid value for field 'n': {_CENTER_MAX_N + 1} (protocol 'center' simulates "
                 f"n <= {_CENTER_MAX_N})", id="grid_simulate_n_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "trials": 0},
                 "invalid value for field 'trials': 0 (must be a positive integer)", id="trials_sweep"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "trials": True},
                 "invalid value for field 'trials': True (must be a positive integer)", id="trials_bool_sweep"),
    pytest.param(["sweep", "{cfg}", "--trials", "0"], _SIM,
                 "invalid value for field 'trials': 0 (must be a positive integer)", id="trials_sweep_flag"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "seed": -1},
                 "invalid value for field 'seed': -1 (must be a non-negative integer)", id="seed_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, "--seed", "-1"], None,
                 "invalid value for field 'seed': -1 (must be a non-negative integer)", id="seed_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "figure", "figure": "fig2", "workers": 1.5},
                 "invalid value for field 'workers': 1.5 (must be a positive integer)", id="workers_sweep"),
    pytest.param(["figure", "fig2", "--workers", "0"], None,
                 "invalid value for field 'workers': 0 (must be a positive integer)", id="workers_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, **{f: v for f, v in _SHADOW_CONFIG.items() if f != "d0"}},
                 "missing required field 'd0' (shadowing parameters)", id="shadow_missing_sweep"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "p0_dbm": math.nan, "gamma_dbm": None, "R": None},
                 "invalid value for field 'p0_dbm': nan (must be a finite number)", id="shadow_null_sweep"),
    pytest.param(["sweep", "{cfg}"],
                 {**{f: v for f, v in _SHADOW_SWEEP.items() if f not in ("gamma_dbm", "R")}, "p0_dbm": math.nan},
                 "missing required field 'gamma_dbm' (shadowing parameters)", id="shadow_missing_first_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, "--sigma-s", "12"], None,
                 "missing required field 'p0_dbm' (shadowing parameters)", id="shadow_missing_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "R": math.inf},
                 "invalid value for field 'R': inf (must be a finite number)", id="shadow_value_sweep"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "n_p": [3.5]},
                 "invalid value for field 'n_p': [3.5] (must be a finite number)", id="shadow_list_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, *_SHADOW_FLAGS[2:], "--sigma-s", "nan"], None,
                 "invalid value for field 'sigma_s': nan (must be a finite number)", id="shadow_value_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SHADOW_SWEEP, "n_p": 0},
                 "invalid shadowing parameters: path-loss exponent n_p must be positive, got 0.0",
                 id="shadow_model_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": 1},
                 "invalid value for field 'out': 1 (must be a file path)", id="out_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": ["o.csv"]},
                 "invalid value for field 'out': ['o.csv'] (must be a file path)", id="out_list_sweep"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "protocol": "al"}, _PROTOCOL_LINE, id="choice_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, "--protocol", "al"], None, _PROTOCOL_LINE, id="choice_verb"),
    pytest.param(["sweep", "{cfg}", "--protocol", "al"], _SIM, _PROTOCOL_LINE, id="choice_sweep_flag"),
    pytest.param(["sweep", "{cfg}"], {"mode": "figure", "figure": "fig5"}, _FIGURE_LINE, id="choice_figure_sweep"),
    pytest.param(["figure", "fig5"], None, _FIGURE_LINE, id="choice_figure_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, **_SHADOW_CONFIG, "shadow_draw": "bogus"}, _DRAW_LINE,
                 id="choice_draw_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, *_SHADOW_FLAGS, "--shadow-draw", "bogus"], None, _DRAW_LINE,
                 id="choice_draw_verb"),
    pytest.param(["sweep", "{cfg}"], {**_SIM, "shadow_draw": "per_node"},
                 f"invalid value for field 'shadow_draw': 'per_node' {_UNSHADOWED_DRAW}", id="unshadowed_draw_sweep"),
    pytest.param(["estimate", *_SIM_FLAGS, "--shadow-draw", "per_link"], None,
                 f"invalid value for field 'shadow_draw': 'per_link' {_UNSHADOWED_DRAW}", id="unshadowed_draw_verb"),
    pytest.param(["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "method": "series"},
                 "invalid value for field 'method': 'series' (expected one of 'closed', 'sum', 'approx_small')",
                 id="choice_method_sweep"),
    pytest.param(["sweep", "{cfg}"], {"n": 50, "a": 0.5, "b": 0.2}, "missing required field 'mode'",
                 id="missing_mode_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": "figure"}, "missing required field 'figure'",
                 id="missing_figure_sweep"),
    pytest.param(["sweep", "{cfg}"], {"mode": None, "n": 50, "a": 0.5, "b": 0.2}, _MODE_LINE, id="null_mode_sweep"),
])
def test_each_boundary_message_is_one_whole_line(tmp_path, capsys, monkeypatch, argv, config, line):
    stub_row_builders(monkeypatch, "a row was computed before the config was checked")
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv], "--out", str(out), "--quiet") == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


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


# the verbs whose flags are fuzzed, each with flags that pass its boundary
_VALID_FLAGS = [("figure", {"figure": "fig1"}), ("threshold", {"n": 300, "b": 0.15}),
                ("estimate", {"n": 50, "k": 10, "b": 0.2}),
                ("estimate", {"n": 50, "k": 10, "b": 0.2, **_SHADOW_CONFIG})]
_VERB_MODES = {"figure": "figure", "threshold": "threshold", "estimate": "simulate"}
_flag_text = st.one_of(
    st.integers(-2, 64).map(str), st.integers().map(str), st.floats(-2.0, 2.0).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e3", "-1e3", "1e-320", "1e400", "", " ", "0x10", "1_0",
                     *FIGURES, "fig5", "center", "all", "al", "none", "per_node", "per_link", "bogus"]),
    st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=3))
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
    monkeypatch.setattr(cli, "check_figure", lambda name, rows: [])
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
            *[f"--{field.replace('_', '-')}={value}" for field, value in flags.items()]]
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
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{out}"},
     _NO_DIR + "'{out}'"),
    (["figure", "fig1", "--out", "{dir}"], None, "[Errno 21] Is a directory: '{dir}'"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{dir}"},
     "[Errno 21] Is a directory: '{dir}'"),
    (["figure", "fig1", "--out", ""], None, _NO_DIR + "''"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": ""}, _NO_DIR + "''"),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{dir}/o\0.csv"},
     "[Errno 22] Invalid argument: "),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{dir}\0/o.csv"},
     "[Errno 22] Invalid argument: "),
    (["figure", "fig1", "--out", "{locked}"], None, "[Errno 13] Permission denied: '{locked}'"),
], ids=["figure", "figure_fig6", "estimate", "sweep_config_out", "figure_out_directory",
        "sweep_config_out_directory", "figure_empty_out", "sweep_config_empty_out",
        "sweep_config_nul_in_name", "sweep_config_nul_in_directory", "figure_out_unwritable"])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, monkeypatch, argv, config,
                                                  expected):
    # "{out}" lies in a missing directory, "{dir}" is an existing directory, and
    # "{locked}" lies in a directory that os.access reports as unwritable
    stub_row_builders(monkeypatch, "a row was computed before the output path was checked")
    cfg, folder, locked = tmp_path / "cfg.json", tmp_path / "existing", tmp_path / "locked"
    paths = {"out": tmp_path / "missing" / "o.csv", "dir": folder, "locked": locked / "o.csv"}
    folder.mkdir()
    locked.mkdir()
    access = cli.os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(locked) and access(path, mode))
    cfg.write_text(json.dumps(config).replace("{out}", str(paths["out"])).replace("{dir}", str(folder)))
    assert run_cli(*[arg.format(cfg=cfg, **paths) for arg in argv], "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file: {expected.format(**paths)}")
    assert "Traceback" not in err
    assert not any(folder.iterdir()) and not any(locked.iterdir())


def test_n_at_the_cap_gives_finite_closed_forms_and_thresholds(tmp_path, capsys):
    # never a simulation at this size: each chunk draws rows of n - 1 doubles
    cfg = tmp_path / "cfg.json"
    # nor a sum: its log-gammas round by about 37 here, so it fails at the boundary, even at
    # b = 3e-8, whose window is a few terms (it printed p_f 0.0896 against an exact 0.2304);
    # at n = 10**9 the logs are fine, but b = 0.5 passes the term budget
    for n, b, reason in ((2 ** 53, [3e-8, 1e-7, 0.1, 0.5], "sum's log-binomials may round by "),
                         (10 ** 9, [0.01, 0.5], "sum may need ")):
        cfg.write_text(json.dumps({"mode": "analytic", "method": "sum", "n": n, "a": [0.2, 0.5, 0.8],
                                   "b": b}))
        assert run_cli("sweep", str(cfg)) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith(f"error: invalid value for field 'n': {n} ({reason}")
        assert len(err.splitlines()) == 1
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
