"""Record the reference outputs the benchmark checks against.

Usage: python3 perfbench/record.py [--size national|tiny]...

For every workload and input set it generates the inputs, runs the setup
step and ``spatialboot run`` once, checks the structure of the results
(nothing is compared with a reference), and stores the sha256 of the setup
outputs and the statistics of the run in perfbench/references.json.  Run
it only when the reference itself has to change, and say why in the change
that does.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run as bench
import workloads


def record_one(size: str, name: str, variant: int) -> dict:
    b = bench.Bench(name, variant, 0.0, size, reference=None)
    b.scratch.mkdir(parents=True, exist_ok=True)
    try:
        proc, setup_out = b.setup(0, b.inputs())
        names = workloads.SETUP_OUTPUTS[b.workload.setup]
        setup_sha = workloads.sha256_files(setup_out / n for n in names)
        out = b.scratch / "run"
        proc = b.spatialboot(workloads.run_args(b.workload, b.size, setup_out, out), "run")
        bad = [c for c in checks.check_results(out, b.expectation()) if not c.ok]
        if proc.code != 0 or bad or not all(c.ok for c in b.checks):
            raise SystemExit(f"{size}/{name}/v{variant}: exit {proc.code}, failed {bad}")
        return {"setup_sha256": setup_sha, "codes": checks.reference_from(out)}
    finally:
        shutil.rmtree(b.scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", action="append", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)
    refs = json.loads(bench.REFERENCES.read_text()) if bench.REFERENCES.is_file() else {}
    for size in args.size or sorted(workloads.SIZES):
        refs[size] = {
            name: {str(v): record_one(size, name, v) for v in range(workloads.VARIANTS)}
            for name in workloads.WORKLOADS
        }
        print(f"recorded {size}", file=sys.stderr)
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
