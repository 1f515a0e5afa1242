"""Run one ``spatialboot`` command with the layer tracer installed.

Usage: python3 perfbench/launch.py TRACE_DIR -- SUBCOMMAND [ARGS...]

Wraps the package's layer functions (see tracer.py), calls
``spatialboot.cli.main`` with the given arguments, then writes this
process's spans to TRACE_DIR/spans-<pid>.jsonl and its own wall time to
TRACE_DIR/launcher.json.  Pool workers forked by the command write their
own span files.  The exit code is the command's.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])
    if argv[1:2] != ["--"]:
        raise SystemExit("usage: launch.py TRACE_DIR -- SUBCOMMAND [ARGS...]")
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder = tracer.Recorder(trace_dir)
    rebound = tracer.install(recorder)
    from spatialboot import cli

    code = cli.main(argv[2:])
    wall = time.perf_counter() - T0
    recorder.flush()
    with open(trace_dir / "launcher.json", "w") as fh:
        json.dump({"pid": os.getpid(), "wall_s": wall, "rebound": rebound}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
