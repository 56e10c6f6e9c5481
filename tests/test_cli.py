import json
import multiprocessing

import pytest

from locprob import montecarlo
from locprob.cli import _build_parser, build_figure, check_figure, main


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# locprob ")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


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
        header, rows = build_figure("fig6", trials=4, seed=1)
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
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run_cli("figure", "fig2", "--out", str(one), "--quiet") == 0
        assert run_cli("figure", "fig2", "--out", str(two), "--quiet") == 0
        assert one.read_bytes() == two.read_bytes()

    def test_figure_mode_in_sweep_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "figure", "figure": "fig4"}))
        out = tmp_path / "f.csv"
        assert run_cli("sweep", str(cfg), "--out", str(out), "--quiet") == 0
        _, rows = read_rows(out)
        assert len(rows) == 20

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
        assert run_cli("threshold", "--n", "300", "--b", "0.1", "--a", "0.5",
                       "--quiet") == 1


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

    def test_requires_one_of_k_or_a(self):
        assert run_cli("estimate", "--n", "50", "--b", "0.2", "--quiet") == 1
        assert run_cli("estimate", "--n", "50", "--k", "5", "--a", "0.5",
                       "--b", "0.2", "--quiet") == 1

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
