"""Compare two sets of benchmark result files.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py (.bench_out/results/*.json)
or directories holding them.  For each workload and metric the script prints
both medians over the runs given, the change as a share of the base median,
and the base runs' spread (distance between quartiles over the median).  An
end-to-end metric is marked WORSE when the new median is worse than the base
median by more than the bound fixed in BENCHMARK.json, and UNRESOLVED when
the base spread alone exceeds that bound.  Per-layer metrics have no bound
and are listed for reading.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (load(Path(a)) for a in argv)
    worse = 0
    for key in sorted(base.keys() & new.keys()):
        b_runs, n_runs = base[key], new[key]
        failed = sum(not r["correct"] for r in b_runs + n_runs)
        print(f"\n{key[0]} (trace {key[1]}): {len(b_runs)} base runs, {len(n_runs)} new runs"
              + (f", {failed} with failed checks" if failed else ""))
        for name, meta in b_runs[0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not n:
                continue
            b_med, n_med = statistics.median(b), statistics.median(n)
            change = (n_med - b_med) / b_med if b_med else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                if spread(b) > bound:
                    verdict = "UNRESOLVED"
                elif sign * change > bound:
                    verdict, worse = "WORSE", worse + 1
                else:
                    verdict = f"ok (bound {bound:g})"
            print(f"  {name:40s} {b_med:12.5g} -> {n_med:12.5g} {meta['unit']:6s} "
                  f"{change:+8.2%}  spread {spread(b):6.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
