"""Set-up probe: import locprob and run the CLI until its first layer call.

    probe.py ROOT ENTRY_POINTS ARGV...

ENTRY_POINTS is a comma-separated list of the `locprob.cli` attributes that
call into a layer.  The process exits 0 at the first call to one of them, so
its CPU time is that of set-up alone: interpreter start, the import of
locprob and numpy, argument parsing and config parsing.  run.py starts it
and reads that CPU time from the rusage of its reaped children.  Nothing but
locprob is imported here, so the harness adds no import time of its own.
"""

import os
import sys


def _first_layer_call(*args, **kwargs):
    os._exit(0)


def main() -> int:
    root, entry_points, *argv = sys.argv[1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import locprob.cli as cli

    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"locprob imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for name in entry_points.split(","):
        if hasattr(cli, name):
            setattr(cli, name, _first_layer_call)
    cli.main(argv)
    print("the first step made no layer call", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
