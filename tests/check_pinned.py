"""Check the pinned CLI tables in tests/pinned/ byte for byte, or rewrite them from the current code.

Each entry of tests/pinned/index.json pins one table, `<name>.csv`: its `argv`, in which
`{config}` stands for a file holding the entry's sweep `config`, whether it runs on the
standard library alone (`stdlib`) and, for some, what it guards (`why`).  Each entry runs
in-process through `locprob.cli.main`.

    PYTHONPATH=src python tests/check_pinned.py [--stdlib] [--repin]

--stdlib runs only the standard-library entries.  --repin rewrites every file it runs, so a
re-record shows as a diff of CSV rows.  Exit 0 when every table matches its file; otherwise
exit 1, naming each file and its first differing line.  Standard library only, Python >= 3.10.
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


def check(name, repin=False):
    """None if entry `name` prints its file's bytes (rewritten first, with repin); else what differs."""
    entry, path = INDEX[name], PINNED / f"{name}.csv"
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "config.json"), Path(tmp, "out.csv")
        config.write_text(json.dumps(entry.get("config")), encoding="utf-8")
        code = cli.main([arg.replace("{config}", str(config)) for arg in entry["argv"]]
                        + ["--out", str(out), "--quiet"])
        if code:
            return f"{path.name}: exit code {code}"
        table = out.read_bytes()
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
