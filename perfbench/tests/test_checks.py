import csv
import json
import shutil

import pytest

import checks
import run
import workloads


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """A real tiny national_counts results directory and its expectation."""
    refs = json.loads(run.REFERENCES.read_text())["tiny"]["national_counts"]["0"]
    bench = run.Bench("national_counts", 0, 0.0, "tiny", refs)
    bench.scratch = tmp_path_factory.mktemp("scratch")
    _, setup_out = bench.setup(0, bench.inputs())
    out = bench.scratch / "run"
    proc = bench.spatialboot(
        workloads.run_args(bench.workload, bench.size, setup_out, out), "run"
    )
    assert proc.code == 0 and all(c.ok for c in bench.checks)
    return out, bench.expectation()


def _copy(results, tmp_path):
    out, exp = results
    dest = tmp_path / "res"
    shutil.copytree(out, dest)
    return dest, exp


def _edit(path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _failed(out, exp):
    return {c.op for c in checks.check_results(out, exp) if not c.ok}


def test_pristine_results_pass(results):
    out, exp = results
    assert _failed(out, exp) == set()
    assert len(checks.check_results(out, exp)) == 1 + 4 * len(exp.codes)


def test_missing_code_is_rejected(results, tmp_path):
    out, exp = _copy(results, tmp_path)
    _edit(out / "nb2.csv", lambda rows: [r for r in rows if r[0] != "c02"])
    assert _failed(out, exp) == {"c02/ttest", "c02/odds"}


def test_nan_statistic_is_rejected(results, tmp_path):
    out, exp = _copy(results, tmp_path)

    def poison(rows):
        for r in rows:
            if r[:2] == ["c04", "odds"]:
                r[2] = "nan"
        return rows

    _edit(out / "nb2.csv", poison)
    assert _failed(out, exp) == {"c04/odds"}


def test_extra_failure_row_is_rejected(results, tmp_path):
    out, exp = _copy(results, tmp_path)
    _edit(out / "failures.csv", lambda rows: rows + [["c01", "variogram", "fit did not move"]])
    assert _failed(out, exp) == {"run"}


def test_statistic_off_reference_is_rejected(results, tmp_path):
    out, exp = _copy(results, tmp_path)

    def shift(rows):
        for r in rows:
            if r[:2] == ["c01", "ttest"]:
                r[2] = repr(float(r[2]) + 3.0)
        return rows

    _edit(out / "nb2.csv", shift)
    assert _failed(out, exp) == {"c01/ttest"}


def test_missing_results_file_is_rejected(results, tmp_path):
    out, exp = _copy(results, tmp_path)
    (out / "moran.csv").unlink()
    failed = _failed(out, exp)
    assert "run" in failed and {f"{c}/moran" for c in exp.codes} <= failed
