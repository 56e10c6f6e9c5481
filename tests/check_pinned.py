"""Check the pinned CLI tables in tests/pinned/ byte for byte, or rewrite them from the current code.

Each entry of tests/pinned/index.json pins one table, `<name>.csv`: its `argv`, in which
`{config}` stands for a file holding the entry's sweep `config`, whether it runs on the
standard library alone (`stdlib`) and, for some, what it guards (`why`).  Each entry runs
in-process through `locprob.cli.main`.

    PYTHONPATH=src python tests/check_pinned.py [--stdlib] [--repin]

The table of every entry that builds a figure must also keep the caption claims of that
figure (`CLAIMS`).  --stdlib runs only the standard-library entries.  --repin rewrites every
file it runs whose table keeps its claims, so a re-record shows as a diff of CSV rows.  Exit 0
when every table keeps its claims and matches its file; otherwise exit 1, naming each file and
its broken claims or its first differing line.  Standard library only, Python >= 3.10.
"""

import argparse
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from locprob import cli

PINNED = Path(__file__).resolve().parent / "pinned"
INDEX = json.loads((PINNED / "index.json").read_text(encoding="utf-8"))

# The caption claims of each figure, on its deterministic (theory) columns only;
# Monte Carlo columns are left to the statistical tests.  A claim is (series
# column or None for one series, x column, y column, sign): within each series,
# y never falls (+1) or never rises (-1) as x grows.
CLAIMS = {
    "fig1": (("b", "a", "p_loc", -1), ("a", "b", "p_loc", +1)),
    "fig2": ((None, "b", "a_star", +1),),
    "fig3": (("b", "a", "p_loc", -1), ("a", "b", "p_loc", +1)),
    "fig4": ((None, "a", "b_star_exact", +1),),
    "fig6": (("n", "a", "p_loc_theory", -1),),
    "fig_shadow": (("k", "b_o", "p_loc_noshadow", +1),),
}


def check_figure(name, rows) -> list[str]:
    """The caption claims (`CLAIMS`) of figure `name` that its rows break."""
    problems = []
    for series, x, y, sign in CLAIMS[name]:
        groups = {}
        for row in rows:
            groups.setdefault(row.get(series), []).append(row)  # row.get(None) is None
        for key, group in groups.items():
            group.sort(key=lambda row: row[x])
            where = "" if series is None else f" at {series}={key:.6g}"
            # comparisons, not a signed difference, so that a nan fails the claim
            values = [sign * row[y] for row in group]
            if not all(later >= earlier for earlier, later in zip(values, values[1:])):
                problems.append(f"{name}: {y} not non-{'de' if sign > 0 else 'in'}creasing in {x}{where}")
            if name == "fig_shadow":  # fading gains coverage at small b_o and loses it at large
                diffs = [row["p_loc_shadow"] - row["p_loc_noshadow"] for row in group]
                if not diffs[0] > 0.0 > diffs[-1]:
                    problems.append(f"fig_shadow: no gain-to-loss crossing across b_o{where}")
    return problems


def _value(text):
    """A printed cell's value: a number as a float, an empty cell as None (the CLI prints None empty)."""
    try:
        return float(text)
    except ValueError:
        return text or None


def table_rows(table):
    """The rows of a CSV table's bytes, by column, each number as a float (the config comment is skipped)."""
    header, *lines = table.decode().splitlines()[1:]
    return [dict(zip(header.split(","), map(_value, line.split(",")))) for line in lines]


def _figure(entry):
    """The figure that an entry builds, by the `figure` verb or a figure sweep; else None."""
    return entry["argv"][1] if entry["argv"][0] == "figure" else entry.get("config", {}).get("figure")


def check(name, repin=False):
    """None if entry `name` prints its file's bytes (rewritten first, with repin); else what differs.

    A figure's table that breaks a caption claim is reported, and with repin not written."""
    entry, path = INDEX[name], PINNED / f"{name}.csv"
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "config.json"), Path(tmp, "out.csv")
        config.write_text(json.dumps(entry.get("config")), encoding="utf-8")
        code = cli.main([arg.replace("{config}", str(config)) for arg in entry["argv"]]
                        + ["--out", str(out), "--quiet"])
        if code:
            return f"{path.name}: exit code {code}"
        table = out.read_bytes()
    if (figure := _figure(entry)) and (broken := check_figure(figure, table_rows(table))):
        return f"{path.name}: {'; '.join(broken)}"
    if repin:
        path.write_bytes(table)
    pinned = path.read_bytes()
    if table == pinned:
        return None
    lines = zip_longest(pinned.decode().splitlines(True), table.decode().splitlines(True), fillvalue="")
    number, (expected, got) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    return f"{path.name} line {number}: expected {expected!r}, got {got!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdlib", action="store_true", help="run only the entries that need no numpy")
    parser.add_argument("--repin", action="store_true", help="rewrite each file from the current code")
    args = parser.parse_args(argv)
    names = [name for name, entry in INDEX.items() if entry["stdlib"] or not args.stdlib]
    problems = [problem for problem in (check(name, args.repin) for name in names) if problem]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(names) - len(problems)} of {len(names)} pinned tables match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
