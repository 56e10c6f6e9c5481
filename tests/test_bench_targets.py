"""The benchmark's tracing targets still name attributes of the package.

bench/tracing.py wraps each (module, attribute) in TARGETS and the pool class
`locprob.montecarlo.ProcessPoolExecutor`; a target that no longer resolves
would only show in a traced benchmark run, as a zeroed per-layer metric.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert hasattr(importlib.import_module("locprob.montecarlo"), "ProcessPoolExecutor")
