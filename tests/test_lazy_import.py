"""Only the Monte Carlo layer imports numpy, and only a simulating command loads it.

Each check runs in a fresh interpreter, since this test process has long
imported numpy through the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locprob as lp

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _numpy_loaded_after(code: str, cwd: Path) -> bool:
    return _run(f"import sys\n{code}\nprint('numpy' in sys.modules)\n", cwd).splitlines()[-1] == "True"


def _cli(*argv: str) -> str:
    return f"from locprob.cli import main\nassert main({[*argv, '--out', 'o.csv', '--quiet']!r}) == 0"


@pytest.mark.parametrize("code", [
    "import locprob",
    "import locprob\nlocprob.TrialProtocol('all_nl_nodes', 'per_node', "
    "locprob.make_shadow_model(0.0, -80.0, 0.1, 3.5, 12.0, 40.0))",
    _cli("figure", "fig1"),
    _cli("figure", "fig_shadow"),
    _cli("threshold", "--n", "300", "--b", "0.15"),
    _cli("sweep", "cfg.json"),
], ids=["import", "trial_protocol", "fig1", "fig_shadow", "threshold", "analytic_sweep"])
def test_analytic_commands_do_not_load_numpy(tmp_path, code):
    config = {"mode": "analytic", "method": "sum", "n": 50, "a": [0.2, 0.8], "b": [0.1, 0.3]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert not _numpy_loaded_after(code, tmp_path)


@pytest.mark.parametrize("argv", [
    ["figure", "fig6", "--trials", "1", "--workers", "1"],
    ["estimate", "--n", "50", "--k", "10", "--b", "0.2", "--trials", "1"],
    ["sweep", "cfg.json", "--trials", "1"],
], ids=["fig6", "estimate", "simulate_sweep"])
def test_simulate_setup_loads_numpy_before_the_first_estimate(tmp_path, argv):
    # set-up ends at the first estimate call, so numpy's import must come before it
    (tmp_path / "cfg.json").write_text(json.dumps({"mode": "simulate", "n": 50, "k": 10, "b": [0.2, 0.3]}))
    code = ("import sys\n"
            "from locprob import cli\n"
            "def first_call(*args, **kwargs):\n"
            "    print('numpy' in sys.modules)\n"
            "    raise SystemExit(0)\n"
            "cli.estimate = first_call\n"
            f"cli.main({[*argv, '--quiet']!r})\n"
            "print('no estimate call')\n")
    assert _run(code, tmp_path).splitlines() == ["True"]


def test_monte_carlo_names_resolve():
    from locprob import montecarlo

    assert lp.estimate is montecarlo.estimate
    assert lp.worker_pool is montecarlo.worker_pool
    namespace = {}
    exec("from locprob import *", namespace)
    assert set(lp.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lp.no_such_name
