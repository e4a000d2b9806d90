"""Traced stand-in for `python -m vinberg.cli`, used by the traced `cli` run.

    python3 perfbench/cli_child.py SPANS_PATH -- <vinberg arguments>

Wraps the package's public functions (tracer.py), runs the command exactly as
`vinberg.cli.main` would, and appends one JSON line with the in-process
`run_command` time and the span aggregate to SPANS_PATH.  Standard output,
standard error and the exit code are those of the plain command.
"""

import json
import sys
from time import perf_counter

import tracer as tracing
import vinberg.cli


def main():
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_PATH -- ARGS...")
    tr = tracing.Tracer()
    tr.install()
    t0 = perf_counter()
    try:
        code = vinberg.cli.run_command(argv)
    finally:
        elapsed = perf_counter() - t0
        tr.uninstall()
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_command_s": elapsed, "aggregate": tr.aggregate()}) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
