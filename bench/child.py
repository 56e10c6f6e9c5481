"""The workload process: runs one workload's passes in-process through
`locprob.cli.main` and writes what it saw as JSON.  run.py starts it; it is
not meant to be run by hand.

    child.py SPEC_JSON OUT_JSON     run the passes the spec asks for

Each workload gets a fresh interpreter, so its peak resident memory is its
own (plus that of the pool workers it forks) and not the harness's.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import tracing  # noqa: E402

# Share of a pass's time given to reference slices (see reference.py).
REFERENCE_SHARE = 0.2


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import locprob
    import locprob.cli

    if os.path.commonpath([os.path.abspath(locprob.__file__), src]) != src:
        raise SystemExit(f"locprob imported from {locprob.__file__}, not from {src}")
    return locprob.cli


def _with_workers(argv: list[str], workers: int | None) -> list[str]:
    if workers is None:
        return argv
    at = argv.index("--workers") + 1
    return [*argv[:at], str(workers), *argv[at + 1:]]


def _cpu_seconds() -> float:
    """User plus system time of this process and of the pool workers it has reaped."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def _run_reference(kind: str, count: int, into: dict) -> None:
    for _ in range(count):
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        reference.reference_slice(kind)
        into["ref_wall_s"] += time.perf_counter() - wall0
        into["ref_cpu_s"] += _cpu_seconds() - cpu0
        into["ref_slices"] += 1


def _reference_plan(kind: str, step_seconds: list[float]) -> dict:
    """Reference slices of this kind to run before each step and after the
    last: about REFERENCE_SHARE of the warm-up pass time in all, most of
    them beside the long steps, and at least one at every boundary."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference.reference_slice(kind)
        times.append(time.perf_counter() - start)
    slice_s = sorted(times)[2]
    t = [0.0, *step_seconds, 0.0]
    share = REFERENCE_SHARE / 2  # half before a step, half after it
    return {"kind": kind, "slices": [max(1, round(share * (t[j] + t[j + 1]) / slice_s))
                                     for j in range(len(t) - 1)]}


def _one_pass(cli, steps, tracer=None, keep_text=False, plan=None) -> dict:
    """One pass over the steps.  With a reference plan, reference slices run
    between the steps; their time is kept apart from the pass's."""
    records = []
    record = {"wall_s": 0.0, "cpu_s": 0.0}
    if plan:
        record.update(ref_wall_s=0.0, ref_cpu_s=0.0, ref_slices=0)
        _run_reference(plan["kind"], plan["slices"][0], record)
    for i, argv in enumerate(steps):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            try:
                rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # an internal fault: record it, the parent counts it as failed
                rc = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
            record["cpu_s"] += _cpu_seconds() - cpu0
        record["wall_s"] += seconds
        text = out.getvalue()
        step = {"rc": rc, "s": seconds, "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "stderr": err.getvalue(), "live_children": len(multiprocessing.active_children())}
        if keep_text:
            step["text"] = text
        records.append(step)
        if plan:
            _run_reference(plan["kind"], plan["slices"][i + 1], record)
    record["steps"] = records
    return record


def run(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["root"])
    import numpy

    steps = spec["steps"]
    # Warm-up: lazy set-up finishes and page faults settle before timing; its
    # output is kept for the parent's checks.
    warmup = _one_pass(cli, steps, keep_text=True)
    plan = None
    if spec["reference"]:
        plan = _reference_plan(spec["reference"], [r["s"] for r in warmup["steps"]])
    passes, last_tracer, missing = [], None, set()
    deadline = time.perf_counter() + spec["seconds"]
    while not passes or time.perf_counter() < deadline:
        for variant in spec["cycle"]:
            if len(passes) >= len(spec["cycle"]) and time.perf_counter() >= deadline:
                break
            argvs = [_with_workers(argv, variant.get("workers")) for argv in steps]
            if variant["traced"]:
                tracer = tracing.Tracer()
                with tracer.installed():
                    record = _one_pass(cli, argvs, tracer)
                record["summary"] = tracing.summarize(tracer)
                missing.update(tracer.missing)
                last_tracer = tracer
            else:
                record = _one_pass(cli, argvs, plan=plan)
            record["variant"] = variant["name"]
            passes.append(record)
    if last_tracer is not None:
        _write_spans(spec["trace_path"], last_tracer)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"python": platform.python_version(), "numpy": numpy.__version__,
              "peak_rss_mb": peak_kb / 1024.0, "warmup": warmup, "passes": passes,
              "reference_plan": plan,
              "missing_targets": sorted(missing)}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _write_spans(path: str, tracer: tracing.Tracer) -> None:
    """The last traced pass's spans, times in seconds from its first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, start - t0, end - t0, parent, attrs]
            for name, start, end, parent, attrs in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "attrs"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
