"""The benchmark's hooks into the package still hold.

bench/tracing.py wraps each (module, attribute) in TARGETS and the pool class
`locprob.montecarlo.ProcessPoolExecutor`; a target that no longer resolves
would only show in a traced benchmark run, as a zeroed per-layer metric.
bench/probe.py times set-up up to the first call to one of the CLI's targets,
so every command the benchmark runs must reach one.  bench/ is loaded by path
and left without bytecode.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from locprob import TrialProtocol, cli, make_network

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert hasattr(importlib.import_module("locprob.montecarlo"), "ProcessPoolExecutor")


def test_estimate_span_describes_a_centre_call(tracing):
    args = (make_network(50, 40), 0.2, TrialProtocol())
    kwargs = {"trials": 1, "seed": 3, "pool": None}
    result = cli.estimate(*args, **kwargs)
    describe = tracing._describe_estimate(cli.estimate)
    assert describe(args, kwargs, result) == {"n": 50, "probe": "center_node", "realizations": 1}


@pytest.mark.parametrize("argv", [("figure", "fig1"),
                                  ("figure", "fig6", "--trials", "1", "--workers", "1")],
                         ids=["fig1", "fig6"])
def test_probe_reaches_a_layer_call(tracing, argv):
    out = subprocess.run([sys.executable, "-B", str(ROOT / "bench" / "probe.py"), str(ROOT),
                          ",".join(tracing.CLI_ENTRY_POINTS), *argv],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


_SHADOW_ROW = {"mode": "shadow", "n": 50, "k": 10, "b_o": 0.2, "p0_dbm": 0.0, "gamma_dbm": -80.0,
               "d0": 0.1, "n_p": 3.5, "sigma_s": 12.0, "R": 40.0}


# a representative command for each target below the CLI
_LAYER_COMMANDS = {
    "montecarlo.sample": ("estimate", "--n", "50", "--k", "10", "--b", "0.2", "--protocol", "all",
                          "--trials", "1"),
    "numerics.integrate": ("sweep", "{config}"),
    "numerics.bisect": ("threshold", "--n", "300", "--b", "0.15"),
}


@pytest.mark.parametrize("span", _LAYER_COMMANDS)
def test_every_layer_target_is_reached(tracing, tmp_path, span):
    # a target that no command reaches reads 0 in every traced run, silently
    assert set(_LAYER_COMMANDS) == {name for module, _, name in tracing.TARGETS if module != "locprob.cli"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_SHADOW_ROW))
    argv = [arg.replace("{config}", str(config)) for arg in _LAYER_COMMANDS[span]]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*argv, "--quiet"]) == 0
    assert tracer.missing == []
    assert span in [name for name, *_ in tracer.spans]
