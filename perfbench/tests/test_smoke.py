"""Tiny-size runs of every workload through the benchmark's command line."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent.parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_smoke(workload):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke(workload):
    res = last_json(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", "1", "--size", "tiny"))
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["cli.parent_layer_s"] + metrics["cli.serial_s"] == pytest.approx(
        metrics["cli.wall_s"], abs=1e-6
    )
    assert metrics["nb2.calls"] == len(workloads.expected_codes(workloads.WORKLOADS[workload]))
    if workload == "national_counts":
        assert metrics["rates.coverage_rejections"] == 1
        assert metrics["graph.isolates_dropped"] > 0
        assert metrics["synth.fields"] == 0
    else:
        assert metrics["synth.fields"] == metrics["nb2.calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "single_code",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
