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
import subprocess
import sys
from pathlib import Path

import pytest

from locprob import cli, make_network, montecarlo

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
    args = (make_network(50, 40), 0.2, montecarlo.TrialProtocol())
    kwargs = {"shadow": None, "trials": 1, "seed": 3, "pool": None}
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
