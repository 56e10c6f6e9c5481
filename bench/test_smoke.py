"""Smoke test of the benchmark itself, every workload at minimal size.

    python3 -m pytest bench/test_smoke.py -q

It checks that each run emits exactly the metrics BENCHMARK.json names, each
with its unit, that every output check passes at this size, that a corrupted
or missing reference digest is counted as a failed check, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace=0, *extra, script=ROOT / "bench" / "run.py"):
    out = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rc, stdout = _run(workload, trace)
    result = _result(stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        rows = sum(s.rows for s in workloads.build(workload, 0, "smoke"))
        assert result["metrics"]["cli.rows"]["value"] == rows


@pytest.mark.parametrize("damage", ["corrupt", "drop"])
def test_bad_reference_digest_counts_as_failed(tmp_path, damage):
    refs = json.loads((ROOT / "bench" / "refs.json").read_text(encoding="utf-8"))
    key = bench.reference_key(workloads.build("analytic_tables", workloads.PINNED_SEED,
                                              "smoke")[0])
    assert key in refs
    if damage == "corrupt":
        refs[key] = dict(refs[key], sha256="0" * 64)
    else:  # at the pinned seed every step must have an entry
        del refs[key]
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(refs), encoding="utf-8")
    rc, stdout = _run("analytic_tables", 0, "--refs", str(corrupted))
    result = _result(stdout)
    assert rc == 1 and not result["correct"]
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, stdout = _run("fig6_field", script=tmp_path / "bench" / "run.py")
    assert rc != 0
    assert '"correct"' not in stdout
