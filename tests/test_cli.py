import hashlib
import json
import multiprocessing

import pytest

from locprob import cli, montecarlo
from locprob.cli import FIGURES, _build_parser, check_figure, main, run_sweep


def run_cli(*argv):
    return main(list(argv))


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
        header, rows = run_sweep({"mode": "figure", "figure": "fig6", "trials": 4, "seed": 1})
        assert {"p_loc_theory", "p_loc_sim", "realizations"} <= set(header)
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
    def test_a_figure_sweep_self_checks_like_the_figure_verb(self, tmp_path, capsys, name, variant):
        # the paper's coefficients bend fig3's and fig_shadow's closed-form curves
        expected = 2 if variant == "paper" and name in ("fig3", "fig_shadow") else 0
        trials = {"trials": 1} if name == "fig6" else {}
        cfg, verb, sweep = tmp_path / "cfg.json", tmp_path / "verb.csv", tmp_path / "sweep.csv"
        cfg.write_text(json.dumps({"mode": "figure", "figure": name, "variant": variant, **trials}))
        flags = [arg for field, value in trials.items() for arg in (f"--{field}", str(value))]
        assert run_cli("figure", name, "--variant", variant, *flags, "--out", str(verb)) == expected
        verb_err = capsys.readouterr().err
        assert run_cli("sweep", str(cfg), "--out", str(sweep)) == expected
        sweep_err = capsys.readouterr().err
        checks = [line for line in verb_err.splitlines() if line.startswith("self-check")]
        assert checks == [line for line in sweep_err.splitlines() if line.startswith("self-check")]
        assert checks and all(("FAILED" in line) == bool(expected) for line in checks)
        assert verb.read_bytes().split(b"\n", 1)[1] == sweep.read_bytes().split(b"\n", 1)[1]

    @pytest.mark.parametrize("name", FIGURES)
    def test_every_caption_claim_fires(self, name):
        _, rows = run_sweep({"mode": "figure", "figure": name, "trials": 1})
        assert not check_figure(name, rows)
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
        assert "--" in capsys.readouterr().err

    def test_requires_one_of_k_or_a(self, capsys):
        assert run_cli("estimate", "--n", "50", "--b", "0.2", "--quiet") == 1
        assert "error: missing required field 'k' or 'a'" in capsys.readouterr().err
        assert run_cli("estimate", "--n", "50", "--k", "5", "--a", "0.5",
                       "--b", "0.2", "--quiet") == 1
        assert "error: give either field 'k' or field 'a', not both" in capsys.readouterr().err

    def test_bad_flag_is_a_config_error(self):
        assert run_cli("estimate", "--n", "50", "--k", "10") == 1  # missing --b

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


@pytest.mark.parametrize("argv", [
    ["sweep", "{cfg}"],
    ["figure", "fig6", "--trials", "1"],
    ["estimate", "--n", "300", "--a", "0.2", "--b", "0.099", "--trials", "9000"],
], ids=["simulate_sweep", "fig6", "estimate"])
def test_one_worker_pool_per_command(tmp_path, monkeypatch, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "simulate", "n": [60, 80], "k": [20], "b": [0.2, 0.3, 0.4], "trials": 300}
    ))
    argv = [arg.format(cfg=cfg) for arg in argv]
    pools = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    serial, pooled = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(*argv, "--workers", "1", "--out", str(serial), "--quiet") == 0
    assert not pools
    assert run_cli(*argv, "--workers", "2", "--out", str(pooled), "--quiet") == 0
    assert len(pools) == 1
    assert not multiprocessing.active_children()
    assert pooled.read_bytes() == serial.read_bytes()


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
], ids=["threshold_run_settings", "threshold_protocol", "figure_protocol", "estimate_variant"])
def test_verbs_reject_flags_they_ignore(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


_SHADOW_FLAGS = ["--sigma-s", "12", "--n-p", "3.5", "--gamma-dbm", "-80", "--p0-dbm", "0",
                 "--d0", "0.1", "--R", "40"]


# Tables recorded when each verb still built its own rows; a change in the
# shared row builders or in estimate's seeding shows here.
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
    (["sweep", "{cfg}"],
     {"mode": "analytic", "method": "sum", "n": 50, "a": [0.2, 0.8], "b": [0.3]},
     '# locprob 0.1.0 config={"a":[0.2,0.8],"b":[0.3],"method":"sum","mode":"analytic",'
     '"n":50}\n'
     "n,k,a,b,p_f,p_loc,method,variant\n"
     "50,40,0.2,0.3,0.305278625823,0.694721374177,sum,\n"
     "50,10,0.8,0.3,0.941719082917,0.058280917083,sum,\n"),
    (["threshold", "--n", "300", "--a", "0.5"],
     None,
     '# locprob 0.1.0 config={"a":0.5,"mode":"threshold","n":300,"variant":"corrected"}\n'
     "n,a,b_star_exact,b_star_large_n,b_star_fd,gap_exact_fd\n"
     "300,0.5,0.124904992723,0.124442105831,0.129423569393,-0.0045185766706\n"),
], ids=["estimate_a", "estimate_k_all", "estimate_per_link", "simulate_sweep", "analytic_sum",
        "threshold_a"])
def test_table_bytes(tmp_path, capsys, argv, config, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(*[arg.format(cfg=cfg) for arg in argv]) == 0
    assert capsys.readouterr().out == expected


_SHADOW_CONFIG = {"p0_dbm": 0, "gamma_dbm": -80, "d0": 0.1, "n_p": 3.5, "sigma_s": 12, "R": 40}


_SHADOW_SWEEP = {"mode": "shadow", "n": 50, "k": 10, "b_o": 0.2, **_SHADOW_CONFIG}


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
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "method": "alternating_sum"}, "n"),
    (["sweep", "{cfg}"], {**_SHADOW_SWEEP, "n": 20, "method": "moment_approx"}, "n"),
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
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": 1}, "out"),
], ids=["estimate_b", "estimate_shadowed_b", "simulate_shadowed_b", "threshold_a_star_n",
        "threshold_b_star_n", "threshold_sweep_n", "approx_small_domain", "alternating_sum_n",
        "moment_approx_n", "unshadowed_draw", "bogus_draw", "estimate_unshadowed_draw",
        "estimate_all_without_blind", "simulate_all_without_blind", "protocol_list",
        "estimate_nan_sigma_s",
        "shadow_nan_p0", "shadow_inf_R", "shadow_b_hat_max_underflow",
        "shadow_b_hat_max_overflow", "simulate_unread_fields", "threshold_b_and_a",
        "analytic_unread_flag", "shadow_unread_b", "figure_unread_protocol",
        "sweep_out_descriptor"])
def test_config_boundary_names_the_field(tmp_path, capsys, monkeypatch, argv, config, field):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed before the config was checked")

    for name in ("estimate", "threshold_a_star", "threshold_b_star", "failure_prob_approx_small",
                 "failure_prob_shadow"):
        monkeypatch.setattr(cli, name, no_rows)
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
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["figure", "fig1", "--out", "{out}"], None),
    (["figure", "fig6", "--out", "{out}"], None),
    (["estimate", "--n", "50", "--k", "10", "--b", "0.2", "--trials", "10", "--out", "{out}"], None),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{out}"}),
    (["figure", "fig1", "--out", "{dir}"], None),
    (["sweep", "{cfg}"], {"mode": "analytic", "n": 50, "a": 0.5, "b": 0.2, "out": "{dir}"}),
], ids=["figure", "figure_fig6", "estimate", "sweep_config_out", "figure_out_directory",
        "sweep_config_out_directory"])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, monkeypatch, argv, config):
    # "{out}" lies in a missing directory, "{dir}" is an existing directory
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed before the output path was checked")

    for name in ("estimate", "failure_prob_closed"):
        monkeypatch.setattr(cli, name, no_rows)
    cfg, out, folder = tmp_path / "cfg.json", tmp_path / "missing" / "o.csv", tmp_path / "existing"
    folder.mkdir()
    cfg.write_text(json.dumps(config).replace("{out}", str(out)).replace("{dir}", str(folder)))
    assert run_cli(*[arg.format(cfg=cfg, out=out, dir=folder) for arg in argv], "--quiet") == 1
    err = capsys.readouterr().err
    if "{dir}" in json.dumps([argv, config]):
        expected = f"[Errno 21] Is a directory: '{folder}'"
    else:
        expected = f"[Errno 2] No such file or directory: '{out}'"
    assert err.startswith(f"error: cannot write output file: {expected}")
    assert "Traceback" not in err


def test_a_library_fault_is_not_a_config_error(monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "failure_prob_closed", fault)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli("figure", "fig1", "--quiet")


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
        "20,0.9,1.14055428344,1.0777002495,,",
    ]
