import csv
import functools
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from spatialboot import io as sbio
from spatialboot.cli import main
from spatialboot.errors import (
    EmptyVariogramError,
    InsufficientDataError,
    UndefinedStatisticError,
)
from spatialboot.rates import AGE_GROUPS, GENDERS
from spatialboot.synth import (
    FieldSpec,
    corpus,
    generate,
    grid_graph,
    parse_spec_file,
    synthesize_counts,
)

SPEC_TEXT = """
[gp_a]
kind = exponential_gp
seed = 1
length_km = 80
sill = 1.0
nugget = 0.1

[gp_b]
kind = exponential_gp
seed = 2
length_km = 200
sill = 1.0
nugget = 0.05

[null_a]
kind = permuted
seed = 3
base_kind = exponential_gp
base_seed = 13
base_length_km = 100
base_sill = 1.0
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.ini"
    path.write_text(SPEC_TEXT)
    return path


@pytest.fixture
def forked_pool(monkeypatch):
    """Pool workers forked whatever the platform's default start method, so
    that every unit's worker inherits the test's faked stages."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("pool workers must inherit the monkeypatched stage")
    from spatialboot import pipeline

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


# the stages that run in a pool worker; every other stage runs in the main process
WORKER_STAGES = {"nb2", "empirical_variogram"}


def record_call(log, name) -> None:
    """Appends one call of a faked stage to the file ``log``, which sees the
    calls of a pool worker too, as ``pid name``."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {name}\n")


def recorded_calls(log) -> list[tuple[bool, str]]:
    """``(made in this process, name)`` of each call in ``log``."""
    calls = [line.split(" ", 1) for line in Path(log).read_text().splitlines()]
    return [(int(pid) == os.getpid(), name) for pid, name in calls]


def kill_gp_b_units(monkeypatch) -> None:
    """Makes each unit of the code ``gp_b`` kill its worker process."""
    from spatialboot import pipeline

    for name in WORKER_STAGES:
        def dies_on_gp_b(field, *args, real=getattr(pipeline, name), **kwargs):
            if field.code == "gp_b":
                os._exit(1)
            return real(field, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, dies_on_gp_b)


def assert_only_gp_b_lost(clean, out) -> None:
    """``out`` is the results directory ``clean`` less the code ``gp_b``,
    which lost a unit to a dead worker."""
    failures = (out / "failures.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in failures] == [["gp_b", "internal"]]
    assert failures[0].startswith("gp_b,internal,BrokenProcessPool: ")
    for name in ("nb2.csv", "moran.csv", "variogram.csv", "variogram_empirical.csv",
                 "diagnostics.csv"):
        rows = (out / name).read_text().splitlines()
        kept = [row for row in (clean / name).read_text().splitlines()
                if not row.startswith("gp_b,")]
        assert rows == kept, name
    assert (out / "fields.csv").read_bytes() == (clean / "fields.csv").read_bytes()


def run_cli_in_fresh_interpreter(setup: list[str], argv) -> subprocess.CompletedProcess:
    """``main(argv)`` in a new interpreter whose pool workers fork, after the
    source lines ``setup`` (with ``os``, ``sys`` and ``pipeline`` imported),
    so that a fake in ``setup`` can kill a process without killing pytest."""
    import spatialboot

    code = "\n".join([
        "import multiprocessing, os, sys",
        "multiprocessing.set_start_method('fork')",
        "from spatialboot import pipeline",
        "from spatialboot.cli import main",
        *setup,
        f"sys.exit(main({list(argv)!r}))",
    ])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(spatialboot.__file__).parents[1])},
    )


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def data_files(out_dir):
    return sorted(
        p.name for p in Path(out_dir).iterdir() if p.name != "manifest.ini"
    )


def write_polygon_grid(tmp_path, rows, cols):
    """regions.csv, fields.csv (one code) and map.geojson of a rows x cols
    grid of unit squares keyed r{r}c{c}."""
    import json

    from conftest import unit_square

    features = []
    region_rows = ["id,lat,lon,population"]
    field_rows = ["id,code,log_rate"]
    for r in range(rows):
        for c in range(cols):
            rid = f"r{r}c{c}"
            features.append({
                "type": "Feature",
                "properties": {"id": rid},
                "geometry": {"type": "Polygon", "coordinates": unit_square(c, r)},
            })
            region_rows.append(f"{rid},{r + 0.5},{c + 0.5},100")
            field_rows.append(f"{rid},demo,{(r + c) / 10.0}")
    (tmp_path / "regions.csv").write_text("\n".join(region_rows) + "\n")
    (tmp_path / "fields.csv").write_text("\n".join(field_rows) + "\n")
    (tmp_path / "map.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features})
    )


# (option strings, dest, required, choices, help) of every option of every
# subcommand, help actions left out; recorded from the hand-written parser
# that the settings-driven one replaced, so the command line cannot drift
_PARSER_OPTIONS = {
    "ingest": [
        (("--regions",), "regions", True, None, None),
        (("--edges",), "edges", False, None, None),
        (("--geojson",), "geojson", False, None, None),
        (("--id-property",), "id_property", False, None, None),
        (("--counts",), "counts", True, None, None),
        (("--totals",), "totals", True, None, None),
        (("--stdpop",), "stdpop", True, None, None),
        (("--out",), "out", True, None, None),
    ],
    "synth": [
        (("--spec",), "spec", True, None, None),
        (("--grid",), "grid", False, None, "ROWSxCOLS lattice, e.g. 40x60"),
        (("--cell-km",), "cell_km", False, None, None),
        (("--n",), "grid_n", False, None, "truncate lattice to first N cells"),
        (("--regions",), "regions", False, None, None),
        (("--edges",), "edges", False, None, None),
        (("--out",), "out", True, None, None),
    ],
    "run": [
        (("--config",), "config", False, None, "config or manifest file with a [run] section"),
        (("--bundle",), "bundle", False, None, "ingested bundle directory (counts mode)"),
        (("--out",), "out", False, None, None),
        (("--regions",), "regions", False, None, None),
        (("--edges",), "edges", False, None, None),
        (("--geojson",), "geojson", False, None, None),
        (("--id-property",), "id_property", False, None, None),
        (("--counts",), "counts", False, None, None),
        (("--totals",), "totals", False, None, None),
        (("--stdpop",), "stdpop", False, None, None),
        (("--fields",), "fields", False, None, None),
        (("--synth-spec",), "synth_spec", False, None, None),
        (("--grid",), "grid", False, None, None),
        (("--cell-km",), "cell_km", False, None, None),
        (("--grid-n",), "grid_n", False, None, None),
        (("--coverage",), "coverage", False, None, None),
        (("--years",), "years", False, None, None),
        (("--zero-offset",), "zero_offset", False, None, None),
        (("--renormalize",), "renormalize", False, None, None),
        (("--reps",), "reps", False, None, None),
        (("--seed",), "seed", False, None, None),
        (("--variant",), "variant", False, ("ttest", "odds", "both"), None),
        (("--comparator",), "comparator", False, ("matched", "direct"), None),
        (("--signed-differences",), "signed_differences", False, None, None),
        (("--ties-win",), "ties_win", False, None, None),
        (("--weights",), "weights", False, ("binary", "row"), None),
        (("--bin-width",), "bin_width_km", False, None, None),
        (("--max-lag",), "max_lag_km", False, None, None),
        (("--vario-weighting",), "vario_weighting", False, ("pairs_over_h2", "pairs"), None),
        (("--top-n",), "top_n", False, None, None),
        (("--threads",), "threads", False, None, None),
        (("--min-observed",), "min_observed", False, None, None),
        (("--dump-reps",), "dump_reps", False, None, None),
        (("--code-meta",), "code_meta", False, None, None),
    ],
    "bench": [
        (("--grid",), "grid", True, None, None),
        (("--cell-km",), "cell_km", False, None, None),
        (("--n",), "grid_n", False, None, None),
        (("--codes",), "codes", False, None, None),
        (("--m-grid",), "m_grid", False, None, None),
        (("--workers-grid",), "workers_grid", False, None, None),
        (("--seed",), "seed", False, None, None),
        (("--out",), "out", True, None, None),
    ],
    "rank": [
        (("--results",), "results", True, None, None),
        (("--top-n",), "top_n", False, None, None),
        (("--code-meta",), "code_meta", False, None, None),
    ],
    "variogram": [
        (("--results",), "results", True, None, None),
        (("--bin-width",), "bin_width_km", False, None, None),
        (("--max-lag",), "max_lag_km", False, None, None),
        (("--vario-weighting",), "vario_weighting", False, ("pairs_over_h2", "pairs"), None),
    ],
}


class TestParserParity:
    def test_option_tables(self):
        import argparse

        from spatialboot.cli import _build_parser

        parser = _build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        tables = {
            name: [
                (
                    tuple(a.option_strings),
                    a.dest,
                    a.required,
                    tuple(a.choices) if a.choices is not None else None,
                    a.help,
                )
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            for name, sub in subparsers.choices.items()
        }
        assert tables == _PARSER_OPTIONS


class TestSynthCommand:
    def test_generates_bundle(self, tmp_path, spec_file):
        out = tmp_path / "synthout"
        assert main([
            "synth", "--spec", str(spec_file), "--grid", "10x12", "--out", str(out),
        ]) == 0
        assert (out / "fields.csv").exists()
        assert (out / "regions.csv").exists()
        assert (out / "edges.csv").exists()
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "code,kind,seed"
        assert len(labels) == 4

    def test_regions_input_writes_edges_only_when_given(self, tmp_path, spec_file):
        graph = grid_graph(6, 7)
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        bare, with_edges = tmp_path / "bare", tmp_path / "with_edges"
        assert main([
            "synth", "--spec", str(spec_file), "--regions", str(tmp_path / "regions.csv"),
            "--out", str(bare),
        ]) == 0
        assert main([
            "synth", "--spec", str(spec_file), "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"), "--out", str(with_edges),
        ]) == 0
        assert not (bare / "edges.csv").exists()
        assert (with_edges / "edges.csv").read_bytes() == (tmp_path / "edges.csv").read_bytes()
        for name in ("regions.csv", "fields.csv", "labels.csv"):
            assert (bare / name).read_bytes() == (with_edges / name).read_bytes(), name


class TestRunCommand:
    def test_synth_mode_outputs(self, tmp_path, spec_file):
        out = tmp_path / "results"
        code = main([
            "run", "--synth-spec", str(spec_file), "--grid", "12x12",
            "--reps", "15", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        for name in (
            "nb2.csv", "moran.csv", "variogram.csv", "variogram_empirical.csv",
            "ranking.csv", "curves.csv", "categories.csv", "failures.csv",
            "diagnostics.csv", "manifest.ini", "fields.csv",
        ):
            assert (out / name).exists(), name
        nb2_lines = (out / "nb2.csv").read_text().splitlines()
        assert nb2_lines[0] == "code,variant,statistic,n_effective,M,master_seed,flags"
        assert len(nb2_lines) == 7  # 3 codes x 2 variants

    def test_worker_counts_byte_identical(self, tmp_path, spec_file):
        outs = []
        for workers in ("1", "4", "8"):
            out = tmp_path / f"w{workers}"
            assert main([
                "run", "--synth-spec", str(spec_file), "--grid", "12x12",
                "--reps", "10", "--seed", "3", "--threads", workers, "--out", str(out),
            ]) == 0
            outs.append(out)
        names = data_files(outs[0])
        for other in outs[1:]:
            assert data_files(other) == names
            for name in names:
                assert (other / name).read_bytes() == (outs[0] / name).read_bytes(), name

    def test_manifest_round_trip(self, tmp_path, spec_file):
        out1 = tmp_path / "first"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "8", "--seed", "5", "--out", str(out1),
        ]) == 0
        out2 = tmp_path / "second"
        assert main([
            "run", "--config", str(out1 / "manifest.ini"), "--out", str(out2),
        ]) == 0
        for name in data_files(out1):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name

    def test_variant_selection(self, tmp_path, spec_file):
        out = tmp_path / "tonly"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--variant", "ttest", "--out", str(out),
        ]) == 0
        lines = (out / "nb2.csv").read_text().splitlines()
        assert all(",ttest," in line for line in lines[1:])

    def test_dump_reps(self, tmp_path, spec_file):
        out = tmp_path / "dump"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "4", "--dump-reps", "--out", str(out),
        ]) == 0
        for variant in ("ttest", "odds"):
            lines = (out / f"nb2_reps_{variant}.csv").read_text().splitlines()
            assert lines[0] == "code,rep_index,value"
            assert len(lines) == 1 + 3 * 4  # codes x reps

    def test_coverage_failure_recorded_run_continues(self, tmp_path):
        graph = grid_graph(10, 10)
        full = generate(FieldSpec("full", "gradient", seed=0, params={"noise": 0.2}), graph.regions)
        partial_values = {
            rid: v for i, (rid, v) in enumerate(full.values.items()) if i < 50
        }
        from spatialboot.fields import RateField

        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(
            tmp_path / "fields.csv",
            [full, RateField("partial", partial_values)],
        )
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--fields", str(tmp_path / "fields.csv"),
            "--reps", "5", "--out", str(out),
        ]) == 0
        failures = (out / "failures.csv").read_text()
        assert "partial,coverage" in failures
        nb2_rows = (out / "nb2.csv").read_text().splitlines()[1:]
        assert all(row.startswith("full,") for row in nb2_rows)

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "x")]) == 2

    def test_bad_reps_exit_2(self, tmp_path, spec_file):
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "0", "--out", str(tmp_path / "x"),
        ]) == 2

    @pytest.mark.parametrize("command,args,setting", [
        ("run", ["--top-n", "5,x"], "top_n"),
        ("run", ["--top-n", "0"], "top_n"),
        ("rank", ["--top-n", "0"], "top_n"),
        ("run", ["--threads", "abc"], "threads"),
        ("run", ["--threads", "-3"], "threads"),
        ("run", ["--bin-width", "-1"], "bin_width_km"),
        ("variogram", ["--bin-width", "-1"], "bin_width_km"),
        ("run", ["--max-lag", "-1"], "max_lag_km"),
        ("run", ["--coverage", "1.5"], "coverage"),
        ("run", ["--coverage", "0"], "coverage"),
        ("run", ["--grid-n", "100"], "grid_n"),
        ("run", ["--cell-km", "0"], "cell_km"),
        ("run", ["--years", "0"], "years"),
        ("run", ["--years", "-1"], "years"),
        ("run", ["--zero-offset", "-1"], "zero_offset"),
        ("run", ["--reps", "x"], "reps"),
        # "config": the lines of a --config file's [run] section
        ("config", ["weights = bogus"], "weights"),
        ("config", ["vario_weighting = bogus"], "vario_weighting"),
        ("config", ["variant = bogus"], "variant"),
        ("config", ["comparator = bogus"], "comparator"),
        ("config", ["renormalize = maybe"], "renormalize"),
        ("config", ["reps = 0"], "reps"),
        ("config", ["years = 0"], "years"),
        ("config", ["top_n = 5,x"], "top_n"),
        ("run", ["--min-observed", "-5"], "min_observed"),
        ("run", ["--min-observed", "0"], "min_observed"),
        ("run", ["--max-lag", "inf"], "max_lag_km"),
        ("run", ["--bin-width", "inf"], "bin_width_km"),
        ("variogram", ["--max-lag", "inf"], "max_lag_km"),
        ("config", ["mode = bogus"], "mode"),
        ("config", ["min_observed = -5"], "min_observed"),
        ("config", ["max_lag_km = inf"], "max_lag_km"),
        ("config", ["bin_width_km = inf"], "bin_width_km"),
        ("run", ["--zero-offset", "inf"], "zero_offset"),
        ("run", ["--years", "inf"], "years"),
        ("run", ["--cell-km", "inf"], "cell_km"),
        ("config", ["zero_offset = inf"], "zero_offset"),
        ("run", ["--seed", "-1"], "seed"),
        ("run", ["--seed", "18446744073709551616"], "seed"),
        ("config", ["seed = 18446744073709551617"], "seed"),
    ])
    def test_bad_setting_exit_2_before_output(self, tmp_path, spec_file, capsys,
                                              command, args, setting):
        out = tmp_path / "x"
        if command in ("run", "config"):
            argv = ["run", "--synth-spec", str(spec_file), "--grid", "8x8", "--out", str(out)]
        else:
            argv = [command, "--results", str(out)]
        if command == "config":
            config = tmp_path / "cfg.ini"
            config.write_text("[run]\n" + "\n".join(args) + "\n")
            args = ["--config", str(config)]
        assert main(argv + args) == 2
        assert setting in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed,ok", [
        ("0", True), ("18446744073709551615", True), ("-1", False), ("18446744073709551616", False),
    ])
    def test_seed_range_ends(self, seed, ok):
        # the streams key on the seed's 64 bits, so a seed outside them would
        # repeat another seed's statistics
        import argparse

        from spatialboot.cli import _settings_from
        from spatialboot.errors import IngestionError

        if ok:
            assert _settings_from(argparse.Namespace(), {"seed": seed}).seed == int(seed)
        else:
            with pytest.raises(IngestionError, match=r"seed must be in \[0, 2\*\*64\)"):
                _settings_from(argparse.Namespace(), {"seed": seed})

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_config_boolean_words(self, word, value):
        import argparse

        from spatialboot.cli import _settings_from

        settings = _settings_from(argparse.Namespace(), {"renormalize": word})
        assert settings.renormalize is value

    def test_geojson_contiguity_mode(self, tmp_path):
        write_polygon_grid(tmp_path, 4, 5)
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--geojson", str(tmp_path / "map.geojson"),
            "--fields", str(tmp_path / "fields.csv"),
            "--reps", "5", "--out", str(out),
        ]) == 0
        # interior cells have 8 queen neighbors: check via the edges dump
        edges = (out / "edges.csv").read_text().splitlines()[1:]
        degree = {}
        for line in edges:
            a, b = line.split(",")
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert degree["r1c1"] == 8

    @pytest.mark.parametrize("defect,message", [
        ("unknown id", "polygons for unknown regions: ['zz']"),
        ("degenerate ring", "region 'r0c0': ring with fewer than 3 distinct vertices"),
    ])
    def test_geojson_defect_exit_2_names_the_file(self, tmp_path, capsys, defect, message):
        import json

        from conftest import unit_square

        write_polygon_grid(tmp_path, 3, 3)
        path = tmp_path / "map.geojson"
        doc = json.loads(path.read_text())
        if defect == "unknown id":
            doc["features"].append({
                "type": "Feature",
                "properties": {"id": "zz"},
                "geometry": {"type": "Polygon", "coordinates": unit_square(5, 5)},
            })
        else:  # two distinct vertices once the closing one is dropped
            doc["features"][0]["geometry"]["coordinates"] = [[[0, 0], [1, 0], [0, 0]]]
        path.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"), "--geojson", str(path),
            "--fields", str(tmp_path / "fields.csv"), "--reps", "5", "--out", str(out),
        ]) == 2
        assert f"error: {message} [{path}]" in capsys.readouterr().err
        assert not out.exists()

    def test_row_standardized_weights_recorded(self, tmp_path, spec_file):
        out = tmp_path / "roww"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--weights", "row", "--out", str(out),
        ]) == 0
        lines = (out / "moran.csv").read_text().splitlines()
        assert all(line.endswith(",row_standardized") for line in lines[1:])

    def test_direct_comparator_flows_through(self, tmp_path, spec_file):
        out_m = tmp_path / "matched"
        out_d = tmp_path / "direct"
        for out, comparator in ((out_m, "matched"), (out_d, "direct")):
            assert main([
                "run", "--synth-spec", str(spec_file), "--grid", "12x12",
                "--reps", "10", "--seed", "3", "--comparator", comparator,
                "--out", str(out),
            ]) == 0
        assert "comparator = direct" in (out_d / "manifest.ini").read_text()
        assert (out_m / "nb2.csv").read_bytes() != (out_d / "nb2.csv").read_bytes()

    def test_unreadable_fields_exit_2(self, tmp_path):
        (tmp_path / "regions.csv").write_text("id,lat,lon,population\nA,0,0,1\nB,0,1,1\n")
        (tmp_path / "edges.csv").write_text("id_a,id_b\nA,B\n")
        (tmp_path / "fields.csv").write_text("id,code,log_rate\nZZZ,c,1.0\n")
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--fields", str(tmp_path / "fields.csv"),
            "--out", str(tmp_path / "r"),
        ]) == 2


    def test_unexpected_code_error_recorded_run_continues(self, tmp_path):
        # a code of magnitude ~1e200 overflows in every numeric stage; each
        # stage records the overflow where it first appears, and the other
        # code's outputs are still written
        graph = grid_graph(8, 8)
        good = generate(
            FieldSpec("good", "exponential_gp", seed=1,
                      params={"length_km": 100.0, "sill": 1.0}),
            graph.regions,
        )
        from spatialboot.fields import RateField

        huge = RateField("huge", {rid: 1e200 * v for rid, v in good.values.items()})
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv", [good, huge])
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--fields", str(tmp_path / "fields.csv"),
            "--reps", "20", "--out", str(out),
        ]) == 0
        # numpy names the overflowing operation, e.g. "overflow encountered
        # in square"
        failures = [row.split(",", 2) for row in
                    (out / "failures.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in failures] == [
            ["huge", "moran"], ["huge", "nb2"], ["huge", "variogram"],
        ]
        assert all(row[2].startswith("overflow encountered in ") for row in failures)
        for name in ("nb2.csv", "moran.csv", "variogram.csv", "ranking.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert rows and all(row.startswith("good,") for row in rows), name

    @pytest.mark.parametrize("function,threads", [
        *(pytest.param(function, "1", id=function)
          for function in ("morans_i", "nb2", "fit_exponential")),
        *(pytest.param(function, "2", id=f"{function}-threads2")
          for function in ("nb2", "fit_exponential")),
    ])
    def test_internal_error_recorded_partial_results_dropped(self, tmp_path, spec_file,
                                                             monkeypatch, forked_pool, capfd,
                                                             function, threads):
        # an internal failure in any stage drops all of the code's results,
        # its diagnostics row too, and prints its traceback on stderr, from a
        # pool worker too; the fit fails in this process, after a pool unit
        from spatialboot import pipeline

        real = getattr(pipeline, function)
        log = tmp_path / "calls.log"

        def raises_on_gp_b(field, *args, **kwargs):
            record_call(log, field.code)
            if field.code == "gp_b":
                raise RuntimeError("boom")
            return real(field, *args, **kwargs)

        monkeypatch.setattr(pipeline, function, raises_on_gp_b)
        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--threads", threads, "--out", str(out),
        ]) == 0
        calls = recorded_calls(log)
        assert sorted(code for _here, code in calls) == ["gp_a", "gp_b", "null_a"]
        assert {here for here, _code in calls} == {function not in WORKER_STAGES}
        err = capfd.readouterr().err
        assert err.count("code 'gp_b': internal error\n") == 1
        assert "Traceback (most recent call last):" in err
        assert ", in raises_on_gp_b\n" in err and "RuntimeError: boom" in err
        failures = (out / "failures.csv").read_text().splitlines()
        assert failures[1:] == ["gp_b,internal,RuntimeError: boom"]
        for name in ("nb2.csv", "moran.csv", "variogram.csv", "diagnostics.csv"):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == {"gp_a", "null_a"}, name

    @pytest.mark.parametrize("error", [
        InsufficientDataError, EmptyVariogramError, UndefinedStatisticError, FloatingPointError,
    ])
    @pytest.mark.parametrize("function,stage,threads", [
        *(pytest.param(function, stage, "1", id=f"{function}-{stage}") for function, stage in (
            ("observed_subgraph", "subgraph"),
            ("nb2", "nb2"),
            ("morans_i", "moran"),
            ("empirical_variogram", "variogram"),
            ("fit_exponential", "variogram"),
        )),
        pytest.param("fit_exponential", "variogram", "2", id="fit_exponential-variogram-threads2"),
    ])
    def test_stage_error_recorded_at_its_stage(self, tmp_path, spec_file, monkeypatch,
                                               forked_pool, function, stage, threads, error):
        # every stage records any of the stage error types as a failure of
        # that stage, not as an internal error; the fit fails in this
        # process, after a pool unit too
        from spatialboot import pipeline

        log = tmp_path / "calls.log"

        def fails(*args, **kwargs):
            record_call(log, function)
            raise error("boom")

        monkeypatch.setattr(pipeline, function, fails)
        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--threads", threads, "--out", str(out),
        ]) == 0
        calls = recorded_calls(log)
        assert len(calls) == 3
        assert {here for here, _function in calls} == {function not in WORKER_STAGES}
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        # a failed subgraph leaves no statistic, so no ranking either
        rows = [row for row in failures if not row.startswith(",ranking,")]
        assert rows == [f"{code},{stage},boom" for code in ("gp_a", "gp_b", "null_a")]

    def test_dead_worker_recorded_run_continues(self, tmp_path, spec_file, monkeypatch,
                                                forked_pool):
        kill_gp_b_units(monkeypatch)
        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--threads", "2", "--out", str(out),
        ]) == 0
        # the pool breaks; codes still pending then are retried one by one,
        # so only gp_b, whose worker dies again, is lost
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        internal = [row for row in failures if ",internal," in row]
        assert all(",internal,BrokenProcessPool: " in row for row in internal)
        lost = {row.split(",")[0] for row in internal}
        assert lost == {"gp_b"}
        assert failures == internal
        for name in ("nb2.csv", "moran.csv", "variogram.csv", "diagnostics.csv"):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == {"gp_a", "null_a"}, name
        assert (out / "manifest.ini").exists()

    def test_dead_worker_retries_pending_codes_in_one_pool_first(
        self, tmp_path, spec_file, monkeypatch, forked_pool
    ):
        from spatialboot import pipeline

        real_pool = pipeline._pool_results
        pools = []

        def recording_pool(units, workers, graph, settings, subjects):
            outs = real_pool(units, workers, graph, settings, subjects)
            named = [(subjects[k][0].code, reps) for k, reps in units]
            lost = [u for u, out in zip(named, outs) if isinstance(out, pipeline.BrokenProcessPool)]
            pools.append((named, workers, lost))
            return outs

        kill_gp_b_units(monkeypatch)
        monkeypatch.setattr(pipeline, "_pool_results", recording_pool)
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--threads", "2", "--out", str(tmp_path / "results"),
        ]) == 0
        # each code is two units: the variogram, then one NB2 chunk
        (units, workers, pending), *retries = pools
        assert [code for code, _reps in units] == ["gp_a", "gp_a", "gp_b", "gp_b",
                                                   "null_a", "null_a"]
        assert workers == 2 and {("gp_b", None), ("gp_b", range(5))} <= set(pending)
        # every unit still pending (both of gp_b's at least) goes to one
        # fresh pool of 2 workers
        first_pending = pending
        (units, workers, pending), *retries = retries
        assert units == first_pending and workers == 2
        assert {("gp_b", None), ("gp_b", range(5))} <= set(pending)
        # then each unit still missing in a one-worker pool of its own
        assert [(u, w) for u, w, _ in retries] == [([unit], 1) for unit in pending]
        assert {u[0][0] for u, _, lost in retries if lost} == {"gp_b"}

    def test_dead_worker_in_one_nb2_chunk_loses_only_its_code(
        self, tmp_path, spec_file, monkeypatch, forked_pool
    ):
        from spatialboot import pipeline

        argv = ["run", "--synth-spec", str(spec_file), "--grid", "10x10",
                "--reps", "600", "--seed", "4", "--threads", "2"]
        clean = tmp_path / "clean"
        assert main([*argv, "--out", str(clean)]) == 0
        real = pipeline.nb2

        def dies_in_gp_b_chunk_two(field, graph, config, reps=None):
            if field.code == "gp_b" and reps == range(250, 500):
                os._exit(1)
            return real(field, graph, config, reps=reps)

        monkeypatch.setattr(pipeline, "nb2", dies_in_gp_b_chunk_two)
        out = tmp_path / "results"
        assert main([*argv, "--out", str(out)]) == 0
        assert_only_gp_b_lost(clean, out)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the worker must inherit the dying stage")
    def test_dead_worker_at_one_thread_loses_only_its_code(self, tmp_path, spec_file):
        # one worker runs every unit too, so a unit whose process dies costs
        # only its code; in a fresh interpreter, so that a run whose main
        # process died would fail this test, not end pytest
        argv = ["run", "--synth-spec", str(spec_file), "--grid", "10x10",
                "--reps", "600", "--seed", "4", "--threads", "1"]
        clean, out = tmp_path / "clean", tmp_path / "results"
        assert main([*argv, "--out", str(clean)]) == 0
        done = run_cli_in_fresh_interpreter([
            "real = pipeline.nb2",
            "def dies_on_gp_b(field, *args, **kwargs):",
            "    if field.code == 'gp_b':",
            "        os._exit(1)",
            "    return real(field, *args, **kwargs)",
            "pipeline.nb2 = dies_on_gp_b",
        ], [*argv, "--out", str(out)])
        assert done.returncode == 0, done.stderr
        assert_only_gp_b_lost(clean, out)

    def test_one_code_split_into_chunks_byte_identical(self, tmp_path):
        # 600 repetitions are three NB2 chunks (250, 250, 100) and one
        # Moran/variogram unit, so 2 and 3 workers split one code
        spec = tmp_path / "one.ini"
        spec.write_text(SPEC_TEXT.split("[gp_b]")[0])
        outs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            assert main([
                "run", "--synth-spec", str(spec), "--grid", "10x10", "--reps", "600",
                "--seed", "3", "--comparator", "direct", "--dump-reps",
                "--threads", workers, "--out", str(out),
            ]) == 0
            outs.append(out)
        names = data_files(outs[0])
        assert "nb2_reps_odds.csv" in names
        for other in outs[1:]:
            assert data_files(other) == names
            for name in names:
                assert (other / name).read_bytes() == (outs[0] / name).read_bytes(), name

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_byte_identical_under_start_method(self, tmp_path, method):
        # workers that inherit nothing find the unit runner and its
        # initializer by import path; forkserver is the Linux default from
        # Python 3.14
        import spatialboot

        spec = tmp_path / "spec.ini"
        spec.write_text(README_SPEC)
        argv = ["run", "--synth-spec", str(spec), "--grid", "8x8", "--reps", "600", "--seed", "42"]
        serial, pool = tmp_path / "serial", tmp_path / "pool"
        assert main([*argv, "--out", str(serial)]) == 0
        code = (f"import multiprocessing, sys; multiprocessing.set_start_method({method!r}); "
                "from spatialboot.cli import main; "
                f"sys.exit(main({[*argv, '--threads', '2', '--out', str(pool)]!r}))")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(Path(spatialboot.__file__).parents[1])})
        names = sorted(path.name for path in serial.glob("*.csv"))
        assert sorted(path.name for path in pool.glob("*.csv")) == names
        for name in names:
            assert (pool / name).read_bytes() == (serial / name).read_bytes(), name

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the workers must inherit the recording unit runner")
    def test_pool_workers_never_import_the_optimizer(self, tmp_path):
        # the main process fits every variogram, so no worker imports
        # scipy.optimize; checked in a fresh interpreter, as this one has
        # imported it, from inside each unit of a forked 2-worker pool
        spec = tmp_path / "spec.ini"
        spec.write_text(README_SPEC)
        argv = ["run", "--synth-spec", str(spec), "--grid", "8x8", "--reps", "600", "--seed", "42"]
        serial, pool, log = tmp_path / "serial", tmp_path / "pool", tmp_path / "units.log"
        assert main([*argv, "--out", str(serial)]) == 0
        done = run_cli_in_fresh_interpreter([
            "real = pipeline._run_unit",
            "def recording(*args):",
            f"    with open({str(log)!r}, 'a') as fh:",
            "        fh.write(f\"{os.getpid()} {'scipy.optimize' in sys.modules}\\n\")",
            "    return real(*args)",
            "pipeline._run_unit = recording",
            "print(os.getpid())",
        ], [*argv, "--threads", "2", "--out", str(pool)])
        assert done.returncode == 0, done.stderr
        main_pid = done.stdout.split()[0]
        units = [line.split() for line in log.read_text().splitlines()]
        # 3 codes, each a variogram unit and three NB2 chunks
        assert len(units) == 3 * 4
        assert {pid for pid, _loaded in units}.isdisjoint({main_pid})
        assert {loaded for _pid, loaded in units} == {"False"}
        names = sorted(path.name for path in serial.glob("*.csv"))
        assert sorted(path.name for path in pool.glob("*.csv")) == names
        for name in names:
            assert (pool / name).read_bytes() == (serial / name).read_bytes(), name

    def test_diagnostics_count_nonfinite_t_and_odds_ties(self, tmp_path):
        # two neighbours, direct comparator: a repetition whose two anchors
        # get the same error difference has no spread, so its t is -inf;
        # on the constant field every t is a finite 0 and every odds
        # comparison a tie.  600 repetitions are three joined chunks.
        from spatialboot.fields import RateField
        from spatialboot.graph import NeighborGraph, Region, RegionSet
        from spatialboot.nb2 import BootstrapConfig, nb2

        graph = NeighborGraph(
            RegionSet([Region("A", 0.0, 0.0), Region("B", 0.0, 1.0)]), {"A": ["B"], "B": ["A"]}
        )
        pair = RateField("pair", {"A": 0.0, "B": 1.0})
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv",
                          [pair, RateField("flat", {"A": 1.0, "B": 1.0})])
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--fields", str(tmp_path / "fields.csv"), "--min-observed", "2",
            "--reps", "600", "--comparator", "direct", "--threads", "2",
            "--out", str(out),
        ]) == 0
        whole = nb2(pair, graph, BootstrapConfig(600, 0, comparator="direct"))
        nonfinite = int(np.count_nonzero(~np.isfinite(whole["ttest"].per_repetition)))
        assert 0 < nonfinite < 600 and 0 < whole["odds"].ties < 1200
        assert (out / "diagnostics.csv").read_text().splitlines() == [
            "code,observed,n_effective,isolates_dropped,components,"
            "t_nonfinite_reps,odds_tie_frac",
            "flat,2,2,0,1,0,1.0",
            f"pair,2,2,0,1,{nonfinite},{whole['odds'].ties / 1200!r}",
        ]

    def test_heap_setting_is_repeatable_and_optional(self, monkeypatch):
        from spatialboot import pipeline

        pipeline._retain_freed_heap()
        pipeline._retain_freed_heap()
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: object())
        pipeline._retain_freed_heap()

    def test_no_analyzable_code_recorded(self, tmp_path, spec_file, capsys):
        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "8x8",
            "--reps", "5", "--min-observed", "1000", "--out", str(out),
        ]) == 0
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        assert failures[0] == ",ranking,no code has a statistic; ranking.csv and curves.csv not written"
        assert [row.split(",")[1] for row in failures[1:]] == ["subgraph"] * 3
        assert not (out / "ranking.csv").exists()
        assert not (out / "curves.csv").exists()
        assert "run complete: 0 codes analyzed, 4 failure records" in capsys.readouterr().out
        # a refit writes its files, then finds nothing to rank, as rank does
        assert main(["variogram", "--results", str(out)]) == 2
        assert (out / "variogram_failures.csv").exists()
        assert not (out / "ranking.csv").exists()
        assert main(["rank", "--results", str(out)]) == 2


# the README example spec
README_SPEC = """
[tight_clusters]
kind = gaussian_blobs
seed = 1
count = 5
width_km = 40
amplitude = 10
cutoff_widths = 3

[broad_pattern]
kind = exponential_gp
seed = 2
length_km = 400
sill = 0.2
nugget = 0.25

[no_structure]
kind = permuted
seed = 3
base_kind = exponential_gp
base_seed = 13
base_length_km = 100
base_sill = 1.0
"""

# sha256 of the outputs of the README spec on a 12x12 grid, M=50, seed 42,
# recorded with numpy 2.4.6 and scipy 1.17.1.  Any drift of a random stream
# or a summation order changes them; change them only on purpose, together
# with SEED_SCHEME when a stream moves.
GOLDEN_DIGESTS = {
    "matched": {
        "nb2.csv": "c19c456ff8d6c5ff6c3afb0dd2780b533d8c2ced367f016f30862169295b84e2",
        "moran.csv": "9886fe9d4421b6227cb7d57963a9f4c9864ae232e946f121342cec235aa73268",
        "variogram.csv": "dfeacf6f4f20b8399c8b76cbb43bf7775af2cc5b4567ff30b1ae69d363deb2c8",
    },
    "direct": {
        "nb2.csv": "a05e420c2ebcb59c22c9474e84cb1905e393a112c6ce5bf7689f2ff17882ec2d",
        "moran.csv": "9886fe9d4421b6227cb7d57963a9f4c9864ae232e946f121342cec235aa73268",
        "variogram.csv": "dfeacf6f4f20b8399c8b76cbb43bf7775af2cc5b4567ff30b1ae69d363deb2c8",
    },
}

# sha256 of an ingested counts bundle (write_counts_inputs, 10x12 grid,
# codes 101/202/303 at 100/85/70% coverage, seed 8) and of its run, M=30,
# seed 42, matched comparator; recorded with numpy 2.4.6 and scipy 1.17.1
COUNTS_GOLDEN_DIGESTS = {
    "counts.csv": "4b2236258e0647b583afdedeca4973a709d0e5a60c559af00690eb6de56dd509",
    "totals.csv": "17483eb1aad7e521769e176b54392673e362b598ce95004494dc62cc3301404b",
    "fields.csv": "1c6f59445a9b6e6751e1630352af0ac7ceb981458eecf6702fd310913f1c0c22",
    "nb2.csv": "57ff28582df103912a352fbd4a6f90d22524a026b9375b8717fd028cb4100e16",
    "moran.csv": "776557363294b40bffd9fd0379062976e5e30ff1ad341ac39e6234e5f18b5a11",
    "variogram.csv": "4b125179fcbeec6799f058829834b0a7df2a1d47f416d2134440300154b4e326",
}

# the same for a bundle whose counts and totals files have region ids of 12
# bytes, codes of 2 to 10 bytes (one non-ASCII), a BOM and CRLF line ends
# (write_wide_counts_inputs, seed 9), run with M=30, seed 42, direct comparator;
# recorded with numpy 2.4.6 and scipy 1.17.1
WIDE_COUNTS_GOLDEN_DIGESTS = {
    "counts.csv": "5f88d8a03ded4d1f3100633a1486f4cf31cd8f4ccdb534909a686bfe21f3afbe",
    "totals.csv": "58d294a7de0c1e55328a42b389ede30548a63bf419cf4f6b65cb275095fc356d",
    "fields.csv": "174fd58fdfcff77d6118ac663f79f55bc67f37d4467495d5de4332c5368230b5",
    "nb2.csv": "89326e19522ea5f35031c717dc5f08b1fb3cabd402aa214846078212b0b1ef86",
    "moran.csv": "67b7d867dee7e7758d1fcb56d3294651ef7fd72fac7291293ea51729e3f5e741",
    "variogram.csv": "770f4578d20b6cc58669452d73b2c3cc3e9df18a33cb0043341473f781d2635d",
}


# sha256 of the same spec's fields run from a regions.csv whose rows are
# shuffled (12x12 grid, permutation seed 11), M=50, seed 42; recorded with
# numpy 2.4.6 and scipy 1.17.1
SHUFFLED_GOLDEN_DIGESTS = {
    "matched": {
        "nb2.csv": "8f696e9a69d5ce9b7a4f6d2a2779637d77f9e613fdccdecb50b4ea89a6b7ee6a",
        "moran.csv": "4780de3200aa9cd861c3d848b8d3a6391d2dc3c06dc8a186eb9116c098afa3cb",
        "variogram.csv": "1757e4cf248292c95b653acf67a5852723864a1628b538b8a4864ad0038dd92d",
    },
    "direct": {
        "nb2.csv": "1ce69bf7dc9a89cdcc892cb742c087ffc88cf11c91535b6407024d0a65cd5c5d",
        "moran.csv": "4780de3200aa9cd861c3d848b8d3a6391d2dc3c06dc8a186eb9116c098afa3cb",
        "variogram.csv": "1757e4cf248292c95b653acf67a5852723864a1628b538b8a4864ad0038dd92d",
    },
}


class TestGoldenDigests:
    @pytest.mark.parametrize("comparator", sorted(GOLDEN_DIGESTS))
    def test_output_digests(self, tmp_path, comparator):
        import hashlib

        spec = tmp_path / "spec.ini"
        spec.write_text(README_SPEC)
        out = tmp_path / comparator
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "12x12", "--cell-km", "30",
            "--reps", "50", "--seed", "42", "--comparator", comparator,
            "--out", str(out),
        ]) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS[comparator]
        }
        assert got == GOLDEN_DIGESTS[comparator]

    @pytest.mark.parametrize("comparator", sorted(SHUFFLED_GOLDEN_DIGESTS))
    def test_shuffled_regions_digests(self, tmp_path, comparator):
        # regions.csv lists the cells in a random order, so region positions
        # and id order differ: each nb2 draw indexes a neighbor row in id order
        import hashlib

        spec = tmp_path / "spec.ini"
        spec.write_text(README_SPEC)
        graph = grid_graph(12, 12, cell_km=30)
        fields = corpus(parse_spec_file(spec), graph.regions)
        order = np.random.default_rng(11).permutation(graph.n)
        regions = list(graph.regions)
        sbio.write_regions(tmp_path / "regions.csv", [regions[i] for i in order])
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv", fields)
        out = tmp_path / comparator
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"), "--fields", str(tmp_path / "fields.csv"),
            "--reps", "50", "--seed", "42", "--comparator", comparator, "--out", str(out),
        ]) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SHUFFLED_GOLDEN_DIGESTS[comparator]
        }
        assert got == SHUFFLED_GOLDEN_DIGESTS[comparator]

    @staticmethod
    def bundle_digests(path, names, *run_flags):
        """sha256 of ``names`` after ingest of the inputs in ``path`` and a
        run of the bundle, M=30, seed 42."""
        import hashlib

        bundle, out = path / "bundle", path / "results"
        assert main([
            "ingest", "--regions", str(path / "regions.csv"), "--edges", str(path / "edges.csv"),
            "--counts", str(path / "counts.csv"), "--totals", str(path / "totals.csv"),
            "--stdpop", str(path / "stdpop.csv"), "--out", str(bundle),
        ]) == 0
        assert main([
            "run", "--bundle", str(bundle), "--reps", "30", "--seed", "42", *run_flags,
            "--out", str(out),
        ]) == 0
        return {
            name: hashlib.sha256(((bundle if name in ("counts.csv", "totals.csv") else out)
                                  / name).read_bytes()).hexdigest()
            for name in names
        }

    def test_counts_bundle_digests(self, tmp_path):
        write_counts_inputs(tmp_path, {"101": 1.0, "202": 0.85, "303": 0.7}, seed=8)
        got = self.bundle_digests(tmp_path, COUNTS_GOLDEN_DIGESTS)
        assert got == COUNTS_GOLDEN_DIGESTS

    def test_wide_counts_bundle_digests(self, tmp_path):
        write_wide_counts_inputs(tmp_path)
        got = self.bundle_digests(tmp_path, WIDE_COUNTS_GOLDEN_DIGESTS, "--comparator", "direct")
        assert got == WIDE_COUNTS_GOLDEN_DIGESTS


# spec file defects, each an input error of the spec file; None: no file
SPEC_DEFECTS = {
    "unknown_kind": "[a]\nkind = bogus\n",
    "no_kind": "[a]\nseed = 1\n",
    "permuted_no_base_kind": "[a]\nkind = permuted\n",
    "no_section_header": "kind = gradient\n",
    "duplicate_section": "[a]\nkind = gradient\n[a]\nkind = checkerboard\n",
    "missing_file": None,
    "bad_seed": "[a]\nkind = gradient\nseed = x\n",
    "zero_count": "[a]\nkind = gaussian_blobs\ncount = 0\n",
    "bad_axis": "[a]\nkind = gradient\naxis = z\n",
    "negative_length": "[a]\nkind = exponential_gp\nlength_km = -1\n",
    "misspelled_parameter": "[a]\nkind = exponential_gp\nlength = 400\n",
    "misspelled_base_parameter":
        "[a]\nkind = permuted\nbase_kind = gaussian_blobs\nbase_widht = 3\n",
    "float_count": "[a]\nkind = gaussian_blobs\ncount = 5.0\n",
    "nan_cutoff_and_noise": "[a]\nkind = gaussian_blobs\ncutoff_widths = nan\nnoise = nan\n",
}


class TestSpecDefects:
    @pytest.mark.parametrize("command", ["synth", "run"])
    @pytest.mark.parametrize("defect", sorted(SPEC_DEFECTS))
    def test_spec_defect_exit_2_names_the_file(self, tmp_path, capsys, command, defect):
        spec, out = tmp_path / "spec.ini", tmp_path / "out"
        if SPEC_DEFECTS[defect] is not None:
            spec.write_text(SPEC_DEFECTS[defect])
        flag = "--spec" if command == "synth" else "--synth-spec"
        assert main([command, flag, str(spec), "--grid", "4x4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(spec) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_generation_error_exit_1(self, tmp_path, capsys, command):
        # two regions at one point: with a sill this large the jitter is lost
        # and the covariance is singular
        (tmp_path / "regions.csv").write_text(
            "id,lat,lon,population\nA,40.0,-100.0,5\nB,40.0,-100.0,5\nC,41.0,-100.0,5\n"
        )
        (tmp_path / "edges.csv").write_text("id_a,id_b\nA,C\n")
        (tmp_path / "spec.ini").write_text("[gp]\nkind = exponential_gp\nsill = 1e9\n")
        flag = "--spec" if command == "synth" else "--synth-spec"
        out = tmp_path / "out"
        assert main([
            command, flag, str(tmp_path / "spec.ini"), "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "'gp'" in err and "positive definite" in err
        assert not out.exists()


class TestConfigAndOutDefects:
    @pytest.mark.parametrize("config", [
        b"out = x\n",  # no section header
        b"[run]\nreps = 5\nreps = 6\n",  # a duplicate key
        b"[run]\nreps 5\n",  # a line without "="
        b"\xff\xfe[run]\nreps = 5\n",  # not UTF-8
        b"[run]\nreps = 5%\n",  # a bad interpolation
    ], ids=["no_section", "duplicate_key", "no_equals", "not_utf8", "interpolation"])
    def test_config_defect_exit_2_names_the_file(self, tmp_path, capsys, config):
        path, out = tmp_path / "config.ini", tmp_path / "out"
        path.write_bytes(config)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read config file: " in err and f"[{path}]" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest", "synth", "bench"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_names_a_file_exit_2(self, tmp_path, capsys, spec_file, command, below):
        # checked with the settings: the inputs named here do not even exist
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / below if below else afile
        missing = str(tmp_path / "missing.csv")
        argv = {
            "run": ["--synth-spec", str(spec_file), "--grid", "8x8", "--reps", "5"],
            "ingest": ["--regions", missing, "--counts", missing, "--totals", missing,
                       "--stdpop", missing],
            "synth": ["--spec", str(tmp_path / "missing.ini"), "--grid", "8x8"],
            "bench": ["--grid", "8x8"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("error: out must be a directory or a path that can become one, "
                f"got {str(out)!r}") in err
        assert afile.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "spec.ini"]


class TestInputQuirks:
    def test_bom_regions_byte_identical_results(self, tmp_path):
        graph = grid_graph(10, 10)
        field = generate(FieldSpec("g", "gradient", seed=0, params={"noise": 0.3}),
                         graph.regions)
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv", [field])
        bom = tmp_path / "regions_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "regions.csv").read_bytes())
        outs = []
        for regions in ("regions.csv", "regions_bom.csv"):
            out = tmp_path / regions.replace(".csv", "_out")
            assert main([
                "run", "--regions", str(tmp_path / regions),
                "--edges", str(tmp_path / "edges.csv"),
                "--fields", str(tmp_path / "fields.csv"),
                "--reps", "10", "--out", str(out),
            ]) == 0
            outs.append(out)
        names = data_files(outs[0])
        assert data_files(outs[1]) == names
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name

    def test_bom_spec_and_config_byte_identical_results(self, tmp_path, spec_file):
        bom_spec = tmp_path / "spec_bom.ini"
        bom_spec.write_bytes(b"\xef\xbb\xbf" + spec_file.read_bytes())
        outs = {}
        for name, spec in (("plain", spec_file), ("bom", bom_spec)):
            outs[name] = tmp_path / name
            assert main([
                "run", "--synth-spec", str(spec), "--grid", "8x8",
                "--reps", "5", "--seed", "4", "--out", str(outs[name]),
            ]) == 0
        config = tmp_path / "config.ini"
        config.write_text(
            (outs["plain"] / "manifest.ini").read_text().split("[provenance]")[0]
        )
        bom_config = tmp_path / "config_bom.ini"
        bom_config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        for name, path in (("config", config), ("bom_config", bom_config)):
            outs[name] = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(outs[name])]) == 0
        names = data_files(outs["plain"])
        for name in ("bom", "config", "bom_config"):
            assert data_files(outs[name]) == names
            for file_name in names:
                assert (outs[name] / file_name).read_bytes() == (
                    outs["plain"] / file_name
                ).read_bytes(), (name, file_name)

    def test_bom_geojson_loads(self, tmp_path):
        import json

        from conftest import unit_square

        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"id": "a"},
            "geometry": {"type": "Polygon", "coordinates": unit_square(0, 0)},
        }]}
        path = tmp_path / "map.geojson"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode("utf-8"))
        assert list(sbio.load_geojson_polygons(path)) == ["a"]


class TestManifestProvenance:
    def test_provenance_section_and_config_rerun(self, tmp_path, spec_file):
        import configparser

        import scipy

        from spatialboot.nb2 import SEED_SCHEME

        out1 = tmp_path / "first"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "8", "--seed", "5", "--out", str(out1),
        ]) == 0
        manifest = configparser.ConfigParser()
        manifest.read(out1 / "manifest.ini")
        provenance = dict(manifest["provenance"])
        assert set(provenance) == {"seed_scheme", "python", "numpy", "scipy"}
        assert provenance["seed_scheme"] == SEED_SCHEME
        assert provenance["numpy"] == np.__version__
        assert provenance["scipy"] == scipy.__version__
        out2 = tmp_path / "second"
        assert main([
            "run", "--config", str(out1 / "manifest.ini"), "--out", str(out2),
        ]) == 0
        names = data_files(out1)
        assert data_files(out2) == names
        for name in names:
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name
        rerun = (out2 / "manifest.ini").read_text()
        assert rerun == (out1 / "manifest.ini").read_text().replace(str(out1), str(out2))

    def test_percent_in_settings_manifest_reproduces_run(self, tmp_path):
        # each "%" is written to the manifest as "%%", which --config reads
        # back as "%": the rerun, into the emptied directory, gives its bytes
        spec, out, config = tmp_path / "s%d.ini", tmp_path / "r%x", tmp_path / "manifest.ini"
        spec.write_text(SPEC_TEXT)
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "8x8", "--reps", "5", "--out", str(out),
        ]) == 0
        manifest = (out / "manifest.ini").read_text()
        assert f"out = {tmp_path}/r%%x\n" in manifest
        assert f"synth_spec = {tmp_path}/s%%d.ini\n" in manifest
        config.write_text(manifest)
        first = {}
        for path in out.iterdir():
            first[path.name] = path.read_bytes()
            path.unlink()
        assert main(["run", "--config", str(config)]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.ini", "r%x", "s%d.ini"]

    def test_non_ascii_out_under_an_ascii_locale(self, tmp_path):
        # under the C locale without UTF-8 mode the arguments decode with
        # escapes; the manifest is still written, as UTF-8, and the run exits 0
        import os
        import subprocess
        import sys

        import spatialboot

        # a run from that manifest, under either locale, reads the paths back
        # as the same bytes and reproduces every output
        spec, out = tmp_path / "spéc.ini", tmp_path / "résultats"
        spec.write_text(README_SPEC)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(spatialboot.__file__).parents[1])}
        manifest = out / "manifest.ini"
        for args in (["--synth-spec", str(spec), "--grid", "8x8", "--reps", "5"],
                     ["--config", str(manifest)]):
            rerun = tmp_path / "ascii_rerun" if "--config" in args else out
            done = subprocess.run([sys.executable, "-m", "spatialboot.cli", "run", *args,
                                   "--out", str(rerun)], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        assert f"out = {out}\n" in manifest.read_text(encoding="utf-8")
        assert f"synth_spec = {spec}\n" in manifest.read_text(encoding="utf-8")
        assert main(["run", "--config", str(manifest), "--out", str(tmp_path / "utf8_rerun")]) == 0
        names = data_files(out)
        for rerun in ("ascii_rerun", "utf8_rerun"):
            assert data_files(tmp_path / rerun) == names
            for name in names:
                assert (tmp_path / rerun / name).read_bytes() == (out / name).read_bytes(), name


def write_counts_inputs(tmp_path, coverage_fractions, n_side=(10, 12), seed=5):
    if n_side is None:
        graph = grid_graph(56, 56, n=3109)  # continental-scale analog
    else:
        graph = grid_graph(*n_side)
    ids = list(graph.ids)
    rng = np.random.default_rng(seed)
    rates_by_code = {}
    for code, frac in coverage_fractions.items():
        covered = ids[: round(frac * len(ids))]
        rates_by_code[code] = {rid: float(rng.uniform(100, 1500)) for rid in covered}
    sbio.write_regions(tmp_path / "regions.csv", graph.regions)
    sbio.write_edges(tmp_path / "edges.csv", graph)
    write_counts_files(tmp_path, graph.regions, rates_by_code, seed)
    return graph


def write_wide_counts_inputs(tmp_path, seed=9):
    """write_counts_inputs on a 10x12 grid with each region id prefixed by
    ``county-`` and codes of 2, 6, 8 and 10 bytes (one non-ASCII); the counts
    and totals files get a BOM and CRLF line ends."""
    write_counts_inputs(tmp_path, {"E8": 1.0, "250.00": 0.9, "V70.0123": 0.8,
                                   "é9.012345": 0.7}, seed=seed)
    for name, id_columns in (("regions.csv", 1), ("edges.csv", 2),
                             ("counts.csv", 1), ("totals.csv", 1)):
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[:id_columns] = ["county-" + cell for cell in cells[:id_columns]]
            lines[i] = ",".join(cells)
        if name in ("counts.csv", "totals.csv"):
            path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())
        else:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_counts_files(tmp_path, regions, rates_by_code, seed):
    counts = synthesize_counts(regions, rates_by_code, seed=seed)
    sbio._write(
        tmp_path / "counts.csv",
        sbio.COUNTS_HEADER,
        ((r, c, a, g, n) for (r, c, a, g), n in sorted(counts.cases.items())),
    )
    sbio._write(
        tmp_path / "totals.csv",
        sbio.TOTALS_HEADER,
        ((r, a, g, n) for (r, a, g), n in sorted(counts.totals.items())),
    )
    sbio._write(
        tmp_path / "stdpop.csv",
        sbio.STDPOP_HEADER,
        ((a, g, 1000 + a) for a in AGE_GROUPS for g in GENDERS),
    )


class TestIngestCommand:
    def test_bundle_and_report(self, tmp_path):
        graph = write_counts_inputs(tmp_path, {"101": 1.0, "202": 0.5})
        # the last region, outside 202's half, gets rows for 202 with 0 cases
        # only: it has records but no case, so it is not observed
        with open(tmp_path / "counts.csv", "a") as fh:
            for gender in GENDERS:
                fh.write(f"{graph.ids[-1]},202,{AGE_GROUPS[0]},{gender},0\n")
        bundle = tmp_path / "bundle"
        assert main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(bundle),
        ]) == 0
        report = (bundle / "validation.txt").read_text()
        assert f"regions = {graph.n}" in report
        assert "codes = 2" in report
        coverage = (bundle / "coverage.csv").read_text().splitlines()
        assert coverage[0] == "code,observed,fraction"
        rows = {line.split(",")[0]: line.split(",") for line in coverage[1:]}
        assert rows["101"][1] == str(graph.n)
        assert rows["202"][1] == str(graph.n // 2)
        assert float(rows["202"][2]) == pytest.approx(0.5)

    def test_unknown_region_in_counts_exit_2(self, tmp_path, capsys):
        write_counts_inputs(tmp_path, {"101": 1.0})
        with open(tmp_path / "counts.csv", "a") as fh:
            fh.write("GHOST,101,1,F,2\n")
        code = main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(tmp_path / "bundle"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "GHOST" in err and "row" in err

    def test_count_beyond_int64_exit_2_at_its_row(self, tmp_path, capsys):
        # ingest rejects it in the raw counts, run --bundle in a bundle's
        write_counts_inputs(tmp_path, {"101": 1.0})
        ingest = [
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
        ]
        assert main([*ingest, "--out", str(tmp_path / "bundle")]) == 0
        for path, command in (
            (tmp_path / "counts.csv", [*ingest, "--out", str(tmp_path / "bad")]),
            (tmp_path / "bundle" / "counts.csv",
             ["run", "--bundle", str(tmp_path / "bundle"), "--out", str(tmp_path / "bad")]),
        ):
            lines = path.read_text().splitlines(keepends=True)
            lines[2] = lines[2].rsplit(",", 1)[0] + ",99999999999999999999\n"
            path.write_text("".join(lines))
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "cases 99999999999999999999 above the largest count" in err
            assert f"[{path}, row 3]" in err and "Traceback" not in err
            assert not (tmp_path / "bad").exists()

    def test_empty_counts_warns(self, tmp_path, capsys):
        write_counts_inputs(tmp_path, {"101": 1.0})
        (tmp_path / "counts.csv").write_text("id,code,age_group,gender,cases\n")
        assert main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(tmp_path / "bundle"),
        ]) == 0
        assert "zero codes" in capsys.readouterr().err

    def test_national_scale_region_count(self, tmp_path):
        # a valid full-scale bundle: report lists 3,109 regions
        graph = write_counts_inputs(tmp_path, {"101": 1.0}, n_side=None)
        bundle = tmp_path / "bundle"
        assert main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(bundle),
        ]) == 0
        assert graph.n == 3109
        assert "regions = 3109" in (bundle / "validation.txt").read_text()

    def test_geojson_bundle_edges_match_run(self, tmp_path):
        write_polygon_grid(tmp_path, 4, 5)
        regions = sbio.read_regions(tmp_path / "regions.csv")
        write_counts_files(tmp_path, regions, {"101": {rid: 500.0 for rid in regions.ids}}, 5)
        bundle = tmp_path / "bundle"
        assert main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--geojson", str(tmp_path / "map.geojson"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(bundle),
        ]) == 0
        out = tmp_path / "results"
        assert main([
            "run", "--regions", str(tmp_path / "regions.csv"),
            "--geojson", str(tmp_path / "map.geojson"),
            "--fields", str(tmp_path / "fields.csv"),
            "--reps", "5", "--out", str(out),
        ]) == 0
        assert (bundle / "edges.csv").read_bytes() == (out / "edges.csv").read_bytes()
        assert "edges = 55" in (bundle / "validation.txt").read_text()

    def test_bundle_runs_end_to_end(self, tmp_path):
        write_counts_inputs(tmp_path, {"101": 1.0, "202": 0.8, "303": 0.5})
        bundle = tmp_path / "bundle"
        main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(bundle),
        ])
        out = tmp_path / "results"
        assert main([
            "run", "--bundle", str(bundle), "--reps", "10", "--seed", "2",
            "--out", str(out),
        ]) == 0
        nb2_rows = (out / "nb2.csv").read_text().splitlines()[1:]
        codes = {row.split(",")[0] for row in nb2_rows}
        assert codes == {"101", "202"}  # 303 fails coverage
        assert "303,coverage" in (out / "failures.csv").read_text()


class TestRederiveCommands:
    def test_rank_and_variogram_rederive(self, tmp_path, spec_file):
        out = tmp_path / "results"
        main([
            "run", "--synth-spec", str(spec_file), "--grid", "12x12",
            "--reps", "10", "--seed", "3", "--out", str(out),
        ])
        reports = ("ranking.csv", "curves.csv", "categories.csv")
        before = {name: (out / name).read_bytes() for name in reports}
        variogram_before = (out / "variogram.csv").read_bytes()
        assert main(["rank", "--results", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in reports} == before
        assert main(["variogram", "--results", str(out)]) == 0
        assert (out / "variogram.csv").read_bytes() == variogram_before
        assert {name: (out / name).read_bytes() for name in reports} == before

    def test_variogram_failures_rewritten_by_every_variogram_run(self, tmp_path):
        # a refit that fits every code leaves a header-only file, not the
        # failure rows of the refit before it
        spec, out = tmp_path / "spec.ini", tmp_path / "results"
        spec.write_text(README_SPEC)
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "12x12", "--reps", "20", "--out", str(out),
        ]) == 0
        assert main(["variogram", "--results", str(out), "--bin-width", "1000"]) == 0
        rows = (out / "variogram_failures.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [code, "variogram"] for code in ("broad_pattern", "no_structure", "tight_clusters")
        ]
        # the reports lose the failed fits with them
        ranking = read_csv_rows(out / "ranking.csv")
        assert [(row["range_km"], row["sill"]) for row in ranking] == [("", "")] * 3
        assert main(["variogram", "--results", str(out)]) == 0
        assert (out / "variogram_failures.csv").read_text().splitlines() == ["code,stage,reason"]

    def test_variogram_rewrites_the_reports_of_its_fits(self, tmp_path):
        # a refit with another lag changes every fit; the reports must show
        # the new fits, as a plain rank after the refit would write them
        import shutil

        spec, out, reranked = tmp_path / "spec.ini", tmp_path / "results", tmp_path / "reranked"
        spec.write_text(README_SPEC)
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "12x12", "--reps", "20", "--out", str(out),
        ]) == 0
        assert main([
            "variogram", "--results", str(out), "--max-lag", "120", "--bin-width", "10",
        ]) == 0
        models = {row["code"]: row for row in read_csv_rows(out / "variogram.csv")}
        ranking = read_csv_rows(out / "ranking.csv")
        assert [row["code"] for row in ranking] == [
            "broad_pattern", "no_structure", "tight_clusters"
        ]
        assert models
        for row in ranking:
            model = models.get(row["code"], {"practical_range_km": "", "sill": ""})
            assert (row["range_km"], row["sill"]) == (model["practical_range_km"],
                                                      model["sill"]), row["code"]
        shutil.copytree(out, reranked)
        assert main(["rank", "--results", str(reranked)]) == 0
        for name in ("ranking.csv", "curves.csv", "categories.csv"):
            assert (out / name).read_bytes() == (reranked / name).read_bytes(), name

    def test_rank_keeps_the_names_and_categories_of_run(self, tmp_path):
        # rank without --code-meta reads the code_meta.csv that run wrote,
        # so it reproduces run's reports
        spec, meta, out = tmp_path / "spec.ini", tmp_path / "meta.csv", tmp_path / "results"
        spec.write_text(README_SPEC)
        meta.write_text("code,name,category\ntight_clusters,Tight,clustered\n"
                        "broad_pattern,Broad,\n")
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "12x12", "--reps", "20",
            "--code-meta", str(meta), "--out", str(out),
        ]) == 0
        reports = ("ranking.csv", "curves.csv", "categories.csv")
        before = {name: (out / name).read_bytes() for name in reports}
        assert b",Tight," in before["ranking.csv"] and b"clustered," in before["categories.csv"]
        assert main(["rank", "--results", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in reports} == before

    def test_plain_rank_drops_the_categories_of_a_code_meta_rank(self, tmp_path):
        # a fields-mode run names no categories; rank --code-meta adds some,
        # and a plain rank after it goes back to the run's metadata, so no
        # categories.csv row of the --code-meta rank may survive it
        graph = grid_graph(10, 10)
        spec, meta, out = tmp_path / "spec.ini", tmp_path / "meta.csv", tmp_path / "results"
        spec.write_text(README_SPEC)
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv",
                          corpus(parse_spec_file(spec), graph.regions))
        meta.write_text("code,name,category\ntight_clusters,Tight,clustered\n"
                        "broad_pattern,Broad,smooth\n")
        assert main([
            "run", *(f"--{name}={tmp_path / name}.csv" for name in ("regions", "edges", "fields")),
            "--reps", "20", "--out", str(out),
        ]) == 0
        reports = ("ranking.csv", "curves.csv", "categories.csv")
        before = {name: (out / name).read_bytes() for name in reports}
        assert before["categories.csv"].decode().splitlines() == [
            ",".join(sbio.CATEGORIES_HEADER)
        ]
        assert main(["rank", "--results", str(out), "--code-meta", str(meta)]) == 0
        assert b",Tight," in (out / "ranking.csv").read_bytes()
        assert b"clustered," in (out / "categories.csv").read_bytes()
        assert main(["rank", "--results", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in reports} == before

    def test_rank_rederives_categories_after_a_refit(self, tmp_path):
        # after variogram changes the fits, rank rewrites categories.csv as
        # rank with the spec's kinds as --code-meta does
        import shutil

        spec, kinds = tmp_path / "spec.ini", tmp_path / "kinds.csv"
        spec.write_text(README_SPEC)
        kinds.write_text("code,name,category\nbroad_pattern,,exponential_gp\n"
                         "no_structure,,permuted\ntight_clusters,,gaussian_blobs\n")
        out, expected = tmp_path / "results", tmp_path / "expected"
        assert main([
            "run", "--synth-spec", str(spec), "--grid", "20x20", "--reps", "20", "--out", str(out),
        ]) == 0
        categories = (out / "categories.csv").read_bytes()
        assert main(["variogram", "--results", str(out), "--bin-width", "10"]) == 0
        shutil.copytree(out, expected)
        assert main(["rank", "--results", str(out)]) == 0
        assert main(["rank", "--results", str(expected), "--code-meta", str(kinds)]) == 0
        assert (out / "categories.csv").read_bytes() != categories
        for name in ("ranking.csv", "curves.csv", "categories.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_coincident_centroids_are_a_variogram_failure(self, tmp_path):
        # one centroid for every region: the default max lag is zero, which
        # loses the variogram only, in run and in the variogram command
        rng = np.random.default_rng(4)
        ids = [f"r{i:02d}" for i in range(12)]
        (tmp_path / "regions.csv").write_text(
            "id,lat,lon,population\n" + "".join(f"{rid},40,-100,1\n" for rid in ids))
        (tmp_path / "edges.csv").write_text(
            "id_a,id_b\n" + "".join(f"{a},{b}\n" for a, b in zip(ids, ids[1:])))
        (tmp_path / "fields.csv").write_text(
            "id,code,log_rate\n" + "".join(f"{rid},c1,{v!r}\n"
                                            for rid, v in zip(ids, rng.normal(size=12).tolist())))
        out = tmp_path / "results"
        assert main([
            "run", *(f"--{name}={tmp_path / name}.csv" for name in ("regions", "edges", "fields")),
            "--reps", "20", "--out", str(out),
        ]) == 0
        failure = ["c1,variogram,code 'c1': every observed region has the same centroid"]
        assert (out / "failures.csv").read_text().splitlines()[1:] == failure
        for name in ("nb2.csv", "moran.csv"):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == {"c1"}, name
        assert main(["variogram", "--results", str(out)]) == 0
        assert (out / "variogram_failures.csv").read_text().splitlines()[1:] == failure

    def test_overflowing_fit_is_a_variogram_failure(self, tmp_path):
        # semivariances near 1e306: the weighted residuals are finite, but
        # the fit's starting cost overflows, which loses the variogram only,
        # in run and in the variogram command
        graph = grid_graph(8, 8)
        rng = np.random.default_rng(0)
        from spatialboot.fields import RateField

        fields = [RateField("big", dict(zip(graph.ids, (rng.standard_normal(64) * 1e153).tolist()))),
                  RateField("ok", dict(zip(graph.ids, rng.standard_normal(64).tolist())))]
        sbio.write_regions(tmp_path / "regions.csv", graph.regions)
        sbio.write_edges(tmp_path / "edges.csv", graph)
        sbio.write_fields(tmp_path / "fields.csv", fields)
        out = tmp_path / "results"
        assert main([
            "run", *(f"--{name}={tmp_path / name}.csv" for name in ("regions", "edges", "fields")),
            "--reps", "20", "--out", str(out),
        ]) == 0
        failure = ["big,variogram,code 'big': weighted rss at the start is inf"]
        assert (out / "failures.csv").read_text().splitlines()[1:] == failure
        for name, kept in (("nb2.csv", {"big", "ok"}), ("moran.csv", {"big", "ok"}),
                           ("variogram.csv", {"ok"})):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == kept, name
        variogram = (out / "variogram.csv").read_bytes()
        assert main(["variogram", "--results", str(out)]) == 0
        assert (out / "variogram_failures.csv").read_text().splitlines()[1:] == failure
        assert (out / "variogram.csv").read_bytes() == variogram

    def test_variogram_internal_error_recorded_other_codes_fitted(self, tmp_path, spec_file,
                                                                  monkeypatch):
        # the variogram command runs run's isolated units: one code's
        # unexpected error is its internal row, and the others are still fitted
        from spatialboot import pipeline

        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--out", str(out),
        ]) == 0
        real = pipeline.fit_exponential

        def flaky(emp, *args, **kwargs):
            if emp.code == "gp_b":
                raise RuntimeError("boom")
            return real(emp, *args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_exponential", flaky)
        assert main(["variogram", "--results", str(out)]) == 0
        failures = (out / "variogram_failures.csv").read_text().splitlines()
        assert failures[1:] == ["gp_b,internal,RuntimeError: boom"]
        for name in ("variogram.csv", "variogram_empirical.csv"):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == {"gp_a", "null_a"}, name


class TestRankVariogramFile:
    """``rank`` reads variogram.csv through the same number checks as every
    other reader: a bad cell exits 2 at its file and row."""

    ROWS = {"a": "a,0.1,1.0,100.0,300.0,true,0.5", "b": "b,0.0,0.5,50.0,150.0,false,inf"}

    def write_results(self, out, rows):
        out.mkdir()
        (out / "moran.csv").write_text("code,I,n,scheme\na,0.5,10,binary\nb,0.25,10,binary\n")
        (out / "variogram.csv").write_text(",".join(sbio.VARIOGRAM_HEADER) + "\n"
                                           + "".join(row + "\n" for row in rows))

    @pytest.mark.parametrize("column, value", [
        (column, value) for column in sbio.VARIOGRAM_HEADER[1:5] for value in ("nan", "inf")
    ] + [("converged", "yes"), ("rss", "nan"), ("sill", "x")])
    def test_bad_cell_exit_2_at_its_row(self, tmp_path, capsys, column, value):
        cells = dict(zip(sbio.VARIOGRAM_HEADER, self.ROWS["a"].split(",")))
        cells[column] = value
        out = tmp_path / "results"
        self.write_results(out, [self.ROWS["b"], ",".join(cells.values())])
        assert main(["rank", "--results", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[{out / 'variogram.csv'}, row 3]" in err
        assert column in err and "Traceback" not in err
        assert not (out / "ranking.csv").exists()

    def test_duplicate_code_rows_exit_2_at_their_row(self, tmp_path, capsys):
        # two ``a`` rows in each file used to rerank with exit 0, taking the
        # last row of each
        out = tmp_path / "results"
        self.write_results(out, [self.ROWS["a"], "a,0.0,1.0,50.0,150.0,true,2.0"])
        assert main(["rank", "--results", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"duplicate code 'a' [{out / 'variogram.csv'}, row 3]" in err
        (out / "variogram.csv").unlink()
        moran = out / "moran.csv"
        moran.write_text(moran.read_text() + "a,0.75,10,binary\n")
        assert main(["rank", "--results", str(out)]) == 2
        assert f"duplicate code 'a' [{moran}, row 4]" in capsys.readouterr().err
        moran.unlink()
        (out / "nb2.csv").write_text(
            "code,variant,statistic,n_effective,M,master_seed,flags\n"
            "a,ttest,1.5,10,5,0,\na,odds,0.5,10,5,0,\na,ttest,2.5,10,5,0,\n"
        )
        assert main(["rank", "--results", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"duplicate row for code 'a' variant 'ttest' [{out / 'nb2.csv'}, row 4]" in err
        assert not (out / "ranking.csv").exists()

    def test_infinite_rss_still_read(self, tmp_path):
        out = tmp_path / "results"
        self.write_results(out, self.ROWS.values())
        assert main(["rank", "--results", str(out)]) == 0
        assert sbio.read_variogram_models(out / "variogram.csv")["b"].rss == float("inf")
        assert "nan" not in (out / "ranking.csv").read_text()


class TestBenchCommand:
    def test_bench_grid_rows(self, tmp_path):
        out = tmp_path / "bench"
        assert main([
            "bench", "--grid", "8x8", "--codes", "2", "--m-grid", "5,10",
            "--workers-grid", "1", "--out", str(out),
        ]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "M,workers,codes,seconds_per_code,mean_rel_diff_vs_max_m"
        assert len(lines) == 3  # two M values x one worker count
        # the reference row (largest M) has zero drift by definition
        assert float(lines[2].split(",")[4]) == 0.0
        assert float(lines[1].split(",")[4]) >= 0.0

    @pytest.mark.parametrize("args,flag", [
        (["--m-grid", "0,5"], "--m-grid"),
        (["--m-grid", "5,x"], "--m-grid"),
        (["--workers-grid", "abc"], "--workers-grid"),
        (["--workers-grid", "0"], "--workers-grid"),
        (["--codes", "0"], "--codes"),
    ])
    def test_bad_grid_exit_2_before_output(self, tmp_path, capsys, args, flag):
        out = tmp_path / "bench"
        assert main(["bench", "--grid", "8x8", "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_over_the_generator_cap_exit_2(self, tmp_path, capsys):
        # 71 x 71 = 5,041 regions; the cap is checked before any covariance is built
        out = tmp_path / "bench"
        assert main(["bench", "--grid", "71x71", "--codes", "1", "--m-grid", "10",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--grid 71x71" in err and "5000 regions" in err
        assert "Traceback" not in err
        assert not out.exists()
