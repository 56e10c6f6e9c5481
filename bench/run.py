"""locprob benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fig6_field --seed 0 --seconds 30 --trace 0

The package is imported from the `src/` directory beside `bench/`; nothing
is installed.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Every run checks the CSVs it produced.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a stamped result file goes to
.bench_out/results/ and, for traced runs, the spans to .bench_out/traces/.
Exit status: 0 when every check passed, 1 when one failed, 2 when the run
could not be made (no result line then).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_vs_ref": "ratio", "cpu_vs_ref": "ratio",
                    "peak_rss_mb": "MB"}

SETUP_SAMPLES = {"full": 11, "smoke": 1}
TIME_LIMIT_S = 170.0  # the whole run, set-up probes included

# Probability columns any CSV may carry; each must lie in [0, 1] up to rounding.
_PROB_COLUMNS = ("p_f", "p_loc", "p_loc_sim", "p_loc_theory", "p_loc_shadow",
                 "p_loc_noshadow", "ci_low", "ci_high", "zero_mass")
_ROUNDING = 1e-9  # 12 significant digits in the CSV, plus quadrature tolerance

# Numeric cross-checks between two steps of the same grid: (step, reference
# step, column, tolerance).  Both tolerances come from the acceptance suite:
# criterion 1 (series = closed form, 1e-12 there; 1e-10 here because the CSV
# rounds to 12 significant digits) and criterion 8 (alternating series =
# integral for n <= 20, 1e-6).
CROSS_CHECKS = {
    "analytic_tables": (
        ("analytic_sum", "analytic_closed", "p_f", 1e-10),
        ("shadow_n20_alternating_sum", "shadow_n20_integrate_conditional", "p_f", 1e-6),
    ),
}


class Checks:
    """Output checks; failed / attempted is the run's failed fraction."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": "" if ok else detail})

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def reference_key(step: workloads.Step) -> str:
    """Digest of a step's inputs; refs.json maps it to the digest of its CSV."""
    blob = json.dumps({"argv": step.argv, "config": step.config}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _remaining(started: float) -> float:
    return TIME_LIMIT_S - (time.perf_counter() - started)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root: Path, argv: list[str], samples: int, started: float) -> list[float]:
    """CPU seconds from a fresh interpreter to the first layer call, one
    sample per probe process (see probe.py)."""
    times = []
    for _ in range(samples):
        cpu0 = _children_cpu_s()
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(root),
                              ",".join(tracing.CLI_ENTRY_POINTS), *argv],
                             capture_output=True, text=True, timeout=_remaining(started))
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(_children_cpu_s() - cpu0)
    return times


def run_child(work: Path, started: float) -> tuple[int, str]:
    """The workload process, in its own session so that a timeout also
    stops the pool workers it forked."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             str(work / "spec.json"), str(work / "child.json")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=_remaining(started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, stderr


def _rows(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    return reader.fieldnames or [], list(reader)


def _row_problem(step: workloads.Step, row: dict) -> str | None:
    for col in _PROB_COLUMNS:
        if row.get(col) and not -_ROUNDING <= float(row[col]) <= 1.0 + _ROUNDING:
            return f"{col}={row[col]} outside [0, 1]"
    if "successes" not in row:
        return None
    trials, successes = int(row["trials"]), int(row["successes"])
    realizations = int(row["realizations"])
    p = float(row.get("p_loc_sim") or row["p_loc"])
    if realizations != step.realizations:
        return f"realizations={realizations}, asked for {step.realizations}"
    blind = int(row["n"]) - int(row["k"]) if row["protocol"] == "all_nl_nodes" else 1
    if trials != realizations * blind:
        return f"trials={trials} is not realizations x probes per realization"
    if not 0 <= successes <= trials or abs(p - successes / trials) > _ROUNDING:
        return f"p={p} does not match successes/trials={successes}/{trials}"
    if not float(row["ci_low"]) - _ROUNDING <= p <= float(row["ci_high"]) + _ROUNDING:
        return f"p={p} outside its interval [{row['ci_low']}, {row['ci_high']}]"
    return None


def check_outputs(workload, steps, child, refs, pinned, checks: Checks) -> None:
    """Every check on the CSVs and exit statuses the workload process saw.

    At the pinned seed every step must have a reference digest, so refs.json
    cannot fall out of step with workloads.py unnoticed."""
    warmup = child["warmup"]["steps"]
    passes = [child["warmup"], *child["passes"]]
    tables = {}
    for i, step in enumerate(steps):
        name = f"{workload}/{step.label}"
        runs = [p["steps"][i] for p in passes]
        bad_rc = [r["rc"] for r in runs if r["rc"] != 0]
        stderr = next((r["stderr"] for r in runs if r["rc"] != 0), "")
        checks.add(f"{name}: exit status 0", not bad_rc,
                   f"exit {bad_rc[0] if bad_rc else ''}: {stderr[-400:]}")
        if step.argv[0] == "figure":
            failed = [line for r in runs for line in r["stderr"].splitlines()
                      if "self-check FAILED" in line]
            checks.add(f"{name}: figure self-check", not failed, "; ".join(failed[:3]))
        # cpu_s counts a pool worker's time once it is reaped, so none may outlive the call
        live = max(r["live_children"] for r in runs)
        checks.add(f"{name}: no worker process outlives the call", live == 0,
                   f"{live} worker processes still running")
        digests = {r["sha256"] for r in runs}
        checks.add(f"{name}: same bytes on every pass", len(digests) == 1,
                   f"{len(digests)} different outputs over {len(runs)} passes")
        text = warmup[i]["text"]
        header, rows = _rows(text)
        tables[step.label] = rows
        checks.add(f"{name}: {step.rows} rows under a header", text.startswith("# locprob ")
                   and len(rows) == step.rows and all(None not in r for r in rows),
                   f"{len(rows)} rows, header {header}")
        problems = [p for p in (_row_problem(step, r) for r in rows) if p]
        checks.add(f"{name}: row invariants", not problems, "; ".join(problems[:3]))
        ref = refs.get(reference_key(step))
        if ref is not None:
            checks.add(f"{name}: reference digest", ref["sha256"] == warmup[i]["sha256"],
                       f"got {warmup[i]['sha256'][:16]}, recorded {ref['sha256'][:16]}")
        elif pinned:
            checks.add(f"{name}: reference digest", False,
                       "no entry in refs.json for these inputs at the pinned seed")
    for label, ref_label, col, tol in CROSS_CHECKS.get(workload, ()):
        a, b = tables[label], tables[ref_label]
        gaps = [abs(float(x[col]) - float(y[col])) for x, y in zip(a, b)]
        worst = max(gaps, default=0.0)
        checks.add(f"{workload}/{label}: {col} within {tol:g} of {ref_label}",
                   len(a) == len(b) and worst <= tol, f"worst gap {worst:.3g}")


def end_to_end(child, setup) -> dict:
    """Pass times as multiples of the mean reference slice of the same pass
    (see reference.py), medians over the passes."""
    passes = child["passes"]
    values = {"setup_s": statistics.median(setup),
              "wall_vs_ref": statistics.median(
                  p["wall_s"] * p["ref_slices"] / p["ref_wall_s"] for p in passes),
              "cpu_vs_ref": statistics.median(
                  p["cpu_s"] * p["ref_slices"] / p["ref_cpu_s"] for p in passes),
              "peak_rss_mb": child["peak_rss_mb"]}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def per_layer(steps, child) -> dict:
    by_variant = {}
    for p in child["passes"]:
        by_variant.setdefault(p["variant"], []).append(p)
    walls = {v: statistics.median(p["wall_s"] for p in ps) for v, ps in by_variant.items()}
    summaries = {v: [p["summary"] for p in ps if "summary" in p] for v, ps in by_variant.items()}
    return tracing.layer_metrics(summaries["traced"], summaries.get("single", []), walls,
                                 sum(s.rows for s in steps))


def _cycle(steps, trace: int) -> list[dict]:
    if not trace:
        return [{"name": "untraced", "traced": False}]
    cycle = [{"name": "untraced", "traced": False}, {"name": "traced", "traced": True}]
    if any("--workers" in s.argv and s.argv[s.argv.index("--workers") + 1] != "1" for s in steps):
        # the single-threaded baseline behind montecarlo.scaling_eff
        cycle.append({"name": "single", "traced": True, "workers": 1})
    return cycle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed passes last this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke shrinks every workload for the benchmark's own test")
    parser.add_argument("--refs", type=Path, default=HERE / "refs.json",
                        help="reference CSV digests (default bench/refs.json)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = HERE.parent
    if not (root / "src" / "locprob" / "__init__.py").is_file():
        print(f"error: no locprob sources under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    for sub in ("results", "traces"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        steps = workloads.build(args.workload, args.seed, args.size)
        argvs = []
        for step in steps:
            config_path = work / f"{step.label}.json"
            if step.config is not None:
                config_path.write_text(json.dumps(step.config), encoding="utf-8")
            argvs.append([str(config_path) if a == "{config}" else a for a in step.argv])
        # set-up samples before and after the timed passes, so that they span
        # the same stretch of machine load as the passes do
        samples = 0 if args.trace else SETUP_SAMPLES[args.size]
        setup = measure_setup(root, argvs[0], (samples + 1) // 2, started)
        # traced runs report per-layer seconds and need no reference slices
        kind = None if args.trace else workloads.REFERENCE_KIND[args.workload]
        spec = {"root": str(root), "steps": argvs, "seconds": args.seconds,
                "cycle": _cycle(steps, args.trace), "reference": kind,
                "trace_path": str(out_dir / "traces" / f"{stem}.json")}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        returncode, stderr = run_child(work, started)
        if returncode != 0:
            print(f"error: workload process exited {returncode}:\n{stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        child = json.loads((work / "child.json").read_text(encoding="utf-8"))
        setup += measure_setup(root, argvs[0], samples // 2, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refs = json.loads(args.refs.read_text(encoding="utf-8")) if args.refs.is_file() else {}
    checks = Checks()
    pinned = args.seed == workloads.PINNED_SEED
    check_outputs(args.workload, steps, child, refs, pinned, checks)
    metrics = per_layer(steps, child) if args.trace else end_to_end(child, setup)
    failed_frac = checks.failed / checks.attempted
    # this run's digests in the form refs.json keeps, to copy from when a
    # benchmark change alters a step's inputs or an intended output change lands
    references = {reference_key(step): {"step": f"{args.workload}/{args.size}/{step.label}",
                                        "seed": args.seed, "sha256": out["sha256"]}
                  for step, out in zip(steps, child["warmup"]["steps"])}

    stamp = {"workload": args.workload, "seed": args.seed, "size": args.size,
             "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
             "python": child["python"], "numpy": child["numpy"], "git_sha": _git_sha(root),
             "pinned_seed": pinned}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {**stamp, **result, "failed_frac": failed_frac,
              "setup_samples_s": setup,
              "reference_plan": child["reference_plan"],
              "passes": [{k: v for k, v in p.items() if k not in ("steps", "summary")}
                         for p in child["passes"]],
              "missing_trace_targets": child["missing_targets"], "checks": checks.results,
              "references": references}
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                      encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    for r in checks.results:
        if not r["ok"]:
            print(f"FAILED {r['check']}: {r['detail']}")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed, "
          f"failed_frac={failed_frac:.4g}; {len(child['passes'])} passes")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
