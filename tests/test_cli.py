import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from spatialboot import io as sbio
from spatialboot.cli import main
from spatialboot.rates import AGE_GROUPS, GENDERS
from spatialboot.synth import FieldSpec, generate, grid_graph, synthesize_counts

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

    def test_internal_error_recorded_partial_results_dropped(self, tmp_path, spec_file,
                                                             monkeypatch):
        from spatialboot import cli

        real = cli.morans_i

        def flaky(field, graph, **kwargs):
            if field.code == "gp_b":
                raise RuntimeError("boom")
            return real(field, graph, **kwargs)

        monkeypatch.setattr(cli, "morans_i", flaky)
        out = tmp_path / "results"
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--out", str(out),
        ]) == 0
        failures = (out / "failures.csv").read_text().splitlines()
        assert failures[1:] == ["gp_b,internal,RuntimeError: boom"]
        for name in ("nb2.csv", "moran.csv", "variogram.csv"):
            codes = {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]}
            assert codes == {"gp_a", "null_a"}, name

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers must inherit the monkeypatched stage",
    )
    def test_dead_worker_recorded_run_continues(self, tmp_path, spec_file, monkeypatch):
        import os

        from spatialboot import cli

        real = cli._analyze_stages

        def dies_on_gp_b(field, *args):
            if field.code == "gp_b":
                os._exit(1)
            real(field, *args)

        monkeypatch.setattr(cli, "_analyze_stages", dies_on_gp_b)
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
        self, tmp_path, spec_file, monkeypatch
    ):
        import os

        from spatialboot import cli

        real_stages, real_pool = cli._analyze_stages, cli._pool_results

        def dies_on_gp_b(field, *args):
            if field.code == "gp_b":
                os._exit(1)
            real_stages(field, *args)

        pools = []

        def recording_pool(task, fields, graph, settings, workers):
            results = real_pool(task, fields, graph, settings, workers)
            broken = [isinstance(r, cli.BrokenProcessPool) for r in results]
            lost = {f.code for f, b in zip(fields, broken) if b}
            pools.append(([f.code for f in fields], workers, lost))
            return results

        monkeypatch.setattr(cli, "_analyze_stages", dies_on_gp_b)
        monkeypatch.setattr(cli, "_pool_results", recording_pool)
        assert main([
            "run", "--synth-spec", str(spec_file), "--grid", "10x10",
            "--reps", "5", "--threads", "2", "--out", str(tmp_path / "results"),
        ]) == 0
        (codes, workers, pending), *retries = pools
        assert workers == 2 and "gp_b" in pending
        if len(pending) > 1:
            # every code still pending goes to one fresh pool of 2 workers
            (codes, workers, pending), *retries = retries
            assert "gp_b" in pending and workers == 2
        # then each code still missing in a one-worker pool of its own
        alone = sorted(pending, key=codes.index)
        assert [(c, w) for c, w, _ in retries] == [([code], 1) for code in alone]
        assert {c[0] for c, _, lost in retries if lost} == {"gp_b"}

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

    def test_counts_bundle_digests(self, tmp_path):
        import hashlib

        write_counts_inputs(tmp_path, {"101": 1.0, "202": 0.85, "303": 0.7}, seed=8)
        bundle, out = tmp_path / "bundle", tmp_path / "results"
        assert main([
            "ingest", "--regions", str(tmp_path / "regions.csv"),
            "--edges", str(tmp_path / "edges.csv"),
            "--counts", str(tmp_path / "counts.csv"),
            "--totals", str(tmp_path / "totals.csv"),
            "--stdpop", str(tmp_path / "stdpop.csv"),
            "--out", str(bundle),
        ]) == 0
        assert main([
            "run", "--bundle", str(bundle), "--reps", "30", "--seed", "42",
            "--out", str(out),
        ]) == 0
        got = {
            name: hashlib.sha256(((bundle if name in ("counts.csv", "totals.csv") else out)
                                  / name).read_bytes()).hexdigest()
            for name in COUNTS_GOLDEN_DIGESTS
        }
        assert got == COUNTS_GOLDEN_DIGESTS


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
        ranking_before = (out / "ranking.csv").read_bytes()
        variogram_before = (out / "variogram.csv").read_bytes()
        assert main(["rank", "--results", str(out)]) == 0
        assert (out / "ranking.csv").read_bytes() == ranking_before
        assert main(["variogram", "--results", str(out)]) == 0
        assert (out / "variogram.csv").read_bytes() == variogram_before


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
