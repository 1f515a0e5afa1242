"""Benchmark of the spatialboot pipeline, driven through its command line.

Usage (from any directory; paths are relative to this checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload, table

NAME is one of the workloads in workloads.py.  With ``--trace 0`` the
benchmark runs the workload's setup step (``spatialboot synth`` or
``spatialboot ingest``) three times, then ``spatialboot run`` until S
seconds have passed (at least once), one process at a time, and reports
the end-to-end metrics as medians over those processes.  With
``--trace 1`` it runs the setup once under the layer tracer, then ``run``
once untraced and once traced, and reports the per-layer metrics.  Every
process's outputs are checked (checks.py).  The program is the checkout's
own ``src/`` tree; nothing is installed.  All scratch files go to
``.bench_work/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment: CPU count, library versions and the 1-minute load
average before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
BUDGET_S = 170.0  # the whole invocation must end within 180 s
REFERENCES = HERE / "references.json"
END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "codes_per_s": "1/s",
}


class BudgetExceeded(Exception):
    pass


@dataclass
class Proc:
    """One finished child process: wall time, and rusage of its whole tree."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_process(argv, env, log_path: Path, timeout_s: float) -> Proc:
    """Run argv in its own process group, wait for it with wait4.

    The child's rusage covers it and every descendant it waited for, so
    ``cpu_s`` includes pool workers and ``rss_mb`` is the largest resident
    set of any process in the tree.  At the timeout the group is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # strays, if the child died before its workers
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _code_digest(*parts) -> str:
    """sha256 over the package sources and the benchmark's workload
    definitions: generated inputs and output digests are valid for one."""
    h = hashlib.sha256()
    for part in parts:
        for f in sorted(p for p in ([part] if part.is_file() else part.rglob("*.py"))):
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _unit(name: str) -> str:
    if name.endswith("_frac") or name == "cli.cpu_util":
        return "fraction"
    if name.endswith("ms_per_rep"):
        return "ms"
    if name.startswith("io.bytes"):
        return "B"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


class Bench:
    """One benchmark invocation for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str = "national",
                 reference: dict | None = None):
        self.workload = workloads.WORKLOADS[workload]
        self.size_name = size
        self.size = workloads.SIZES[size]
        self.seed = seed
        self.variant = workloads.variant_of(seed)
        self.seconds = seconds
        self.work = ROOT / ".bench_work"
        self.scratch = self.work / "runs" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S
        self.checks: list[checks.Check] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.reference = reference  # None: check structure only (recording)
        self.code_digest = _code_digest(ROOT / "src", HERE / "workloads.py")
        self.stable_digests: dict | None = None

    # -- bookkeeping -------------------------------------------------------

    def record(self, op: str, ok: bool, detail: str = "") -> None:
        self.checks.append(checks.Check(op, ok, detail))
        if not ok:
            print(f"check failed: {op}: {detail}", file=sys.stderr)

    def expectation(self) -> checks.Expectation:
        w = self.workload
        return checks.Expectation(
            codes=workloads.expected_codes(w),
            failures=workloads.expected_failures(w),
            reps=self.size.reps[w.name],
            null_code=w.null_code,
            split_code=w.split_code,
            reference=self.reference and self.reference["codes"],
        )

    # -- steps ---------------------------------------------------------------

    def inputs(self) -> Path:
        """Generated inputs, cached by (code, size, workload, input set): the
        generator calls the package."""
        dest = (self.work / "inputs" / self.code_digest[:16] / self.size_name
                / self.workload.name / f"v{self.variant}")
        if not dest.is_dir():
            if str(ROOT / "src") not in sys.path:
                sys.path.insert(0, str(ROOT / "src"))
            tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            workloads.write_inputs(self.workload, self.size, self.variant, tmp)
            try:
                tmp.rename(dest)
            except OSError:  # another invocation made it first
                shutil.rmtree(tmp, ignore_errors=True)
        return dest

    def spatialboot(self, args, name: str, trace_dir: Path | None = None) -> Proc:
        if trace_dir is None:
            argv = [sys.executable, "-m", "spatialboot.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), str(trace_dir), "--", *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BudgetExceeded(name)
        proc = run_process(argv, self.env, self.scratch / f"{name}.log", remaining)
        if proc.code != 0:
            tail = (self.scratch / f"{name}.log").read_text(errors="replace")[-600:]
            print(f"{name} exited {proc.code}:\n{tail}", file=sys.stderr)
        return proc

    def setup(self, i: int, inputs: Path, trace_dir: Path | None = None) -> tuple[Proc, Path]:
        out = self.scratch / f"setup{i}"
        proc = self.spatialboot(
            workloads.setup_args(self.workload, self.size, inputs, out), f"setup{i}", trace_dir
        )
        names = workloads.SETUP_OUTPUTS[self.workload.setup]
        missing = [n for n in names if not (out / n).is_file()]
        if proc.code != 0 or missing:
            self.record(f"setup{i}", False, f"exit {proc.code}, missing {missing}")
        elif self.reference is None:
            self.record(f"setup{i}", True)
        else:
            got = workloads.sha256_files(out / n for n in names)
            changed = sorted(n for n in names if got[n] != self.reference["setup_sha256"][n])
            self.record(f"setup{i}", not changed, f"outputs differ from the recorded ones: {changed}")
        return proc, out

    def run(self, i: int, setup_out: Path, trace_dir: Path | None = None) -> Proc:
        out = self.scratch / f"run{i}"
        proc = self.spatialboot(
            workloads.run_args(self.workload, self.size, setup_out, out), f"run{i}", trace_dir
        )
        results = checks.check_results(out, self.expectation())
        run_check, code_checks = results[0], results[1:]
        problems = [run_check.detail] if not run_check.ok else []
        if proc.code != 0:
            problems.insert(0, f"exit {proc.code}")
        stable = [out / n for n in checks.STABLE_FILES if (out / n).is_file()]
        if len(stable) == len(checks.STABLE_FILES):
            problems += self._compare_digests(workloads.sha256_files(stable))
        self.record(f"run{i}", not problems, "; ".join(problems))
        for c in code_checks:
            self.record(f"run{i}:{c.op}", c.ok, c.detail)
        shutil.rmtree(out, ignore_errors=True)
        return proc

    def _compare_digests(self, digests: dict) -> list[str]:
        """Outputs must be byte-identical to earlier runs of the same code:
        the first run of this invocation, and runs of earlier invocations on
        the same code and input set."""
        store = self.work / "digests" / (
            f"{self.size_name}-{self.workload.name}-v{self.variant}-{self.code_digest[:16]}.json"
        )
        if self.stable_digests is None:
            if store.is_file():
                self.stable_digests = json.loads(store.read_text())
            else:
                store.parent.mkdir(parents=True, exist_ok=True)
                store.write_text(json.dumps(digests))
                self.stable_digests = digests
        return [
            f"{name} differs from an earlier run of the same code"
            for name in checks.STABLE_FILES
            if digests[name] != self.stable_digests[name]
        ]

    # -- modes ---------------------------------------------------------------

    def measure(self) -> dict:
        inputs = self.inputs()
        setups = [self.setup(i, inputs) for i in range(SETUP_REPEATS)]
        setup_out = setups[-1][1]
        runs: list[Proc] = []
        start = time.monotonic()
        while True:
            runs.append(self.run(len(runs), setup_out))
            elapsed = time.monotonic() - start
            if elapsed >= self.seconds or self.deadline - time.monotonic() < 1.5 * runs[-1].wall_s:
                break
        run_s = statistics.median(p.wall_s for p in runs)
        return {
            "run_s": run_s,
            "setup_s": statistics.median(p.wall_s for p, _ in setups),
            "cpu_s": statistics.median(p.cpu_s for p in runs),
            "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
            "codes_per_s": len(workloads.expected_codes(self.workload)) / run_s,
        }

    def trace(self) -> dict:
        inputs = self.inputs()
        setup_trace, run_trace = self.scratch / "trace-setup", self.scratch / "trace-run"
        _, setup_out = self.setup(0, inputs, trace_dir=setup_trace)
        plain = self.run(0, setup_out)
        traced = self.run(1, setup_out, trace_dir=run_trace)
        metrics = _summarize(run_trace)
        setup = _summarize(setup_trace)
        metrics["synth.corpus_s"] = setup["synth.corpus_s"]
        metrics["synth.fields"] = setup["synth.fields"]
        metrics["io.setup_s"] = setup["io.read_s"] + setup["io.write_s"]
        metrics["cli.cpu_util"] = plain.cpu_s / (plain.wall_s * workloads.THREADS)
        metrics["bench.trace_overhead_s"] = traced.wall_s - plain.wall_s
        return metrics

    def execute(self, trace: bool) -> dict:
        self.scratch.mkdir(parents=True, exist_ok=True)
        load_before = os.getloadavg()[0]
        try:
            metrics = self.trace() if trace else self.measure()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        env = {**_environment(), "load1_before": load_before, "load1_after": os.getloadavg()[0],
               "workload": self.workload.name, "seed": self.seed, "input_set": self.variant}
        failed = sum(1 for c in self.checks if not c.ok)
        return {
            "env": env,
            "result": {
                "correct": failed == 0,
                "attempted": len(self.checks),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or _unit(k)}
                            for k, v in metrics.items()},
            },
        }


def _summarize(trace_dir: Path) -> dict:
    launcher = json.loads((trace_dir / "launcher.json").read_text())
    return tracer.summarize(
        tracer.load_spans(trace_dir), launcher["pid"], launcher["wall_s"], workloads.THREADS
    )


def _print_table(name: str, result: dict) -> None:
    res = result["result"]
    print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={res['failed'] / res['attempted']:.4f}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="national",
                        help="tiny exists for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spatialboot" / "cli.py").is_file() or not REFERENCES.is_file():
        print(f"error: no spatialboot source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    references = json.loads(REFERENCES.read_text())[args.size]
    variant = str(workloads.variant_of(args.seed))
    results = {}
    for name in names:
        bench = Bench(name, args.seed, args.seconds, args.size, references[name][variant])
        try:
            results[name] = bench.execute(bool(args.trace))
        except BudgetExceeded as exc:
            print(f"error: time budget exhausted before {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        for name, result in results.items():
            _print_table(name, result)
        print(json.dumps({name: r["result"] for name, r in results.items()}))
    else:
        result = results[args.workload]
        _print_table(args.workload, result)
        print("env " + json.dumps(result["env"]))
        print(json.dumps(result["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
