import json

import pytest

from spatialboot import io as sbio
from spatialboot.errors import IngestionError
from spatialboot.fields import RateField
from spatialboot.synth import grid_graph


@pytest.fixture
def graph():
    return grid_graph(4, 5, cell_km=40.0)


class TestRegions:
    def test_round_trip(self, tmp_path, graph):
        path = tmp_path / "regions.csv"
        sbio.write_regions(path, graph.regions)
        back = sbio.read_regions(path)
        assert back.ids == graph.regions.ids
        for rid in back.ids:
            assert back[rid].lat == graph.regions[rid].lat
            assert back[rid].lon == graph.regions[rid].lon

    def test_category_column_optional(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,lat,lon,population\nA,40.0,-100.0,5\n")
        regions = sbio.read_regions(path)
        assert regions["A"].category is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("region,lat,lon,population\nA,0,0,1\n")
        with pytest.raises(IngestionError, match="header"):
            sbio.read_regions(path)

    def test_bad_latitude_names_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,lat,lon,population\nA,40.0,-100.0,5\nB,95.0,-100.0,5\n")
        with pytest.raises(IngestionError, match="row 3"):
            sbio.read_regions(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,lat,lon,population\nA,0,0,1\nA,1,1,1\n")
        with pytest.raises(IngestionError, match="duplicate"):
            sbio.read_regions(path)


class TestEdges:
    def test_round_trip_with_dedup(self, tmp_path, graph):
        path = tmp_path / "edges.csv"
        rows = ["id_a,id_b"]
        for rid in graph.ids:
            for nb in graph.neighbors(rid):
                rows.append(f"{rid},{nb}")  # both directions: must dedup
        path.write_text("\n".join(rows) + "\n")
        back = sbio.load_adjacency(path, graph.regions)
        assert back == graph

    def test_unknown_id_names_row(self, tmp_path, graph):
        path = tmp_path / "edges.csv"
        path.write_text("id_a,id_b\n00000,00001\n00000,ZZ\n")
        with pytest.raises(IngestionError, match=r"ZZ.*row 3|row 3"):
            sbio.load_adjacency(path, graph.regions)

    def test_self_loop_rejected_with_row(self, tmp_path, graph):
        path = tmp_path / "edges.csv"
        path.write_text("id_a,id_b\n00000,00000\n")
        with pytest.raises(IngestionError, match="row 2"):
            sbio.load_adjacency(path, graph.regions)

    def test_empty_edge_file_keeps_isolates(self, tmp_path, graph):
        path = tmp_path / "edges.csv"
        path.write_text("id_a,id_b\n")
        back = sbio.load_adjacency(path, graph.regions)
        assert back.n == graph.n
        assert all(back.degree(rid) == 0 for rid in back.ids)

    def test_symmetry_and_dedup_forced(self, tmp_path):
        from spatialboot.graph import Region, RegionSet

        regions = RegionSet(Region(id=r, lat=0, lon=i) for i, r in enumerate("ABC"))
        path = tmp_path / "edges.csv"
        path.write_text("id_a,id_b\nA,B\nB,A\nB,C\n")
        graph = sbio.load_adjacency(path, regions)
        assert graph.adjacency == {"A": ("B",), "B": ("A", "C"), "C": ("B",)}

    def test_continental_scale_count(self, tmp_path):
        # ingestion at the full national scale: 3,109 regions round-trip
        big = grid_graph(56, 56, n=3109)
        rpath, epath = tmp_path / "r.csv", tmp_path / "e.csv"
        sbio.write_regions(rpath, big.regions)
        sbio.write_edges(epath, big)
        regions = sbio.read_regions(rpath)
        graph = sbio.load_adjacency(epath, regions)
        assert graph.n == 3109
        assert graph == big


class TestGeoJson:
    def test_load_polygons(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "sq1"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"id": "sq2"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[1, 0], [2, 0], [2, 1], [1, 1], [1, 0]]],
                    },
                },
            ],
        }
        path = tmp_path / "squares.geojson"
        path.write_text(json.dumps(doc))
        polygons = sbio.load_geojson_polygons(path)
        assert set(polygons) == {"sq1", "sq2"}
        from spatialboot.graph import queen_contiguity

        g = queen_contiguity(polygons)
        assert g.neighbors("sq1") == ("sq2",)

    def test_custom_id_property(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"GEOID": "01001"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]],
                    },
                }
            ],
        }
        path = tmp_path / "c.geojson"
        path.write_text(json.dumps(doc))
        polygons = sbio.load_geojson_polygons(path, id_property="GEOID")
        assert "01001" in polygons

    def test_missing_id(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {}, "geometry": {
                "type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}],
        }
        path = tmp_path / "c.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match="property"):
            sbio.load_geojson_polygons(path)


class TestCountsFiles:
    def test_counts_unknown_region(self, tmp_path, graph):
        path = tmp_path / "counts.csv"
        path.write_text("id,code,age_group,gender,cases\nNOPE,101,1,F,3\n")
        with pytest.raises(IngestionError, match="row 2"):
            sbio.read_counts(path, graph.regions)

    def test_counts_bad_age(self, tmp_path, graph):
        path = tmp_path / "counts.csv"
        path.write_text("id,code,age_group,gender,cases\n00000,101,twelve,F,3\n")
        with pytest.raises(IngestionError, match="integer"):
            sbio.read_counts(path, graph.regions)

    def test_cases_exceeding_total_caught(self, tmp_path, graph):
        cpath = tmp_path / "counts.csv"
        tpath = tmp_path / "totals.csv"
        cpath.write_text("id,code,age_group,gender,cases\n00000,101,1,F,10\n")
        tpath.write_text("id,age_group,gender,total\n00000,1,F,5\n")
        with pytest.raises(IngestionError, match="exceed"):
            sbio.build_stratified_counts(cpath, tpath, graph.regions)

    COUNTS_HEAD = "id,code,age_group,gender,cases\n"
    TOTALS_HEAD = "id,age_group,gender,total\n"

    @pytest.mark.parametrize("body, message, row", [
        ("00000,101,1,F\n", "expected 5 fields, got 4", 2),
        ("00000,101,1,F,3,9\n", "expected 5 fields, got 6", 2),
        ("00000,101,1,F,3\n\n   \nNOPE,101,1,F,3\n", "unknown region id 'NOPE'", 5),
        (" 00000 ,101,1,F,3\n00001,101,x1,F,3\n", "age_group: not an integer: 'x1'", 3),
        ("00000,101,1,F,3.5\n", "cases: not an integer: '3.5'", 2),
        ("00000,101,1,F,3\n00000, 101 , 1 ,F,4\n",
         "duplicate counts row ('00000', '101', 1, 'F')", 3),
        ("00000,101,1,F,x\n00000,101,1,F,3\n", "cases: not an integer: 'x'", 2),
        ("00000,101,1,F,3\n00000,101,1,F,x\n",
         "duplicate counts row ('00000', '101', 1, 'F')", 3),
        ("00000,101,2,M,-1\n", "negative cases -1", 2),
    ])
    def test_counts_row_errors(self, tmp_path, graph, body, message, row):
        path = tmp_path / "counts.csv"
        path.write_text(self.COUNTS_HEAD + body)
        with pytest.raises(IngestionError) as exc:
            sbio.read_counts(path, graph.regions)
        assert (exc.value.row, str(exc.value)) == (row, f"{message} [{path}, row {row}]")

    @pytest.mark.parametrize("body, message, row", [
        ("00000,1,F\n", "expected 4 fields, got 3", 2),
        ("00000,1,F,10\n\nNOPE,1,F,10\n", "unknown region id 'NOPE'", 4),
        ("00000,one,F,10\n", "age_group: not an integer: 'one'", 2),
        ("00000,1,F,1e3\n", "total: not an integer: '1e3'", 2),
        ("00000,1,F,10\n00000,1,F,20\n", "duplicate totals row ('00000', 1, 'F')", 3),
        ("00000,1,F,10\n00001,3,M,-2\n", "negative total -2", 3),
    ])
    def test_totals_row_errors(self, tmp_path, graph, body, message, row):
        path = tmp_path / "totals.csv"
        path.write_text(self.TOTALS_HEAD + body)
        with pytest.raises(IngestionError) as exc:
            sbio.read_totals(path, graph.regions)
        assert (exc.value.row, str(exc.value)) == (row, f"{message} [{path}, row {row}]")

    def test_counts_and_totals_read_stripped_values(self, tmp_path, graph):
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + " 00001 , 7 , 2 , M , 3 \n\n00000,101,1,F,0\n")
        tpath.write_text(self.TOTALS_HEAD + "00000, 1 ,F , 5\n \n00001,2,M,3\n")
        assert sbio.read_counts(cpath, graph.regions) == {
            ("00001", "7", 2, "M"): 3, ("00000", "101", 1, "F"): 0,
        }
        assert sbio.read_totals(tpath, graph.regions) == {
            ("00000", 1, "F"): 5, ("00001", 2, "M"): 3,
        }

    def test_keys_share_region_code_and_gender_strings(self, tmp_path, graph):
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + "00000,101,1,F,1\n00001,101,1,F,2\n00001,101,2,F,2\n")
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n00001,1,F,5\n")
        own = {rid: rid for rid in graph.regions.ids}
        for keys in (sbio.read_counts(cpath, graph.regions), sbio.read_totals(tpath, graph.regions)):
            assert all(key[0] is own[key[0]] for key in keys)
            assert len({id(key[-1]) for key in keys}) == 1  # one "F" string
        cases = sbio.read_counts(cpath, graph.regions)
        assert len({id(key[1]) for key in cases}) == 1  # one "101" string

    @pytest.mark.parametrize("header, message", [
        ("id,code,age,gender,cases", "expected header id,code,age_group,gender,cases "
         "(optionally ), got id,code,age,gender,cases"),
        ("id,code,age_group,gender,cases,extra", "unexpected columns ['extra']"),
    ])
    def test_counts_header_errors(self, tmp_path, graph, header, message):
        path = tmp_path / "counts.csv"
        path.write_text(header + "\n00000,101,1,F,3\n")
        with pytest.raises(IngestionError) as exc:
            sbio.read_counts(path, graph.regions)
        assert str(exc.value) == f"{message} [{path}, row 1]"

    def test_stratum_errors_name_the_counts_file(self, tmp_path, graph):
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n")
        for row, message in (
            ("00000,101,20,F,1", "age_group must be in 1..19, got 20"),
            ("00000,101,1,X,1", "gender must be 'F' or 'M', got 'X'"),
        ):
            cpath.write_text(self.COUNTS_HEAD + row + "\n")
            with pytest.raises(IngestionError) as exc:
                sbio.build_stratified_counts(cpath, tpath, graph.regions)
            assert str(exc.value) == f"{message} [{cpath}]"
        cpath.write_text(self.COUNTS_HEAD)
        tpath.write_text(self.TOTALS_HEAD + "00000,0,F,5\n")
        with pytest.raises(IngestionError) as exc:
            sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert str(exc.value) == f"age_group must be in 1..19, got 0 [{cpath}]"

    def test_empty_counts_ok(self, tmp_path, graph):
        cpath = tmp_path / "counts.csv"
        tpath = tmp_path / "totals.csv"
        cpath.write_text("id,code,age_group,gender,cases\n")
        tpath.write_text("id,age_group,gender,total\n00000,1,F,5\n")
        counts = sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert counts.codes() == ()


class TestFieldsFile:
    def test_round_trip(self, tmp_path, graph):
        fields = [
            RateField("a", {rid: float(i) for i, rid in enumerate(graph.ids)}),
            RateField("b", {rid: -float(i) / 7.0 for i, rid in enumerate(graph.ids)}),
        ]
        path = tmp_path / "fields.csv"
        sbio.write_fields(path, fields)
        back = sbio.read_fields(path, graph.regions)
        assert [f.code for f in back] == ["a", "b"]
        assert back[0].values == fields[0].values
        assert back[1].values == fields[1].values

    def test_duplicate_region_value(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,code,log_rate\nA,c,1.0\nA,c,2.0\n")
        with pytest.raises(IngestionError, match="duplicate"):
            sbio.read_fields(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,code,log_rate\nA,c,nan\n")
        with pytest.raises(IngestionError, match="non-finite"):
            sbio.read_fields(path)


class TestStdPop:
    def test_round_trip_and_validation(self, tmp_path):
        path = tmp_path / "sp.csv"
        rows = ["age_group,gender,population"]
        for age in range(1, 20):
            rows.append(f"{age},F,{1000 + age}")
            rows.append(f"{age},M,{2000 + age}")
        path.write_text("\n".join(rows) + "\n")
        std = sbio.read_standard_population(path)
        assert len(std.strata()) == 38

    def test_bad_gender(self, tmp_path):
        path = tmp_path / "sp.csv"
        path.write_text("age_group,gender,population\n1,Z,100\n")
        with pytest.raises(IngestionError):
            sbio.read_standard_population(path)


class TestCodeMetadata:
    def test_read(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("code,name,category\n101,Alpha,Group A\n102,Beta,\n")
        names, categories = sbio.read_code_metadata(path)
        assert names == {"101": "Alpha", "102": "Beta"}
        assert categories == {"101": "Group A"}


class TestResultFiles:
    def test_variogram_models_round_trip(self, tmp_path):
        from spatialboot.variogram import VariogramModel

        models = [
            VariogramModel("b", 0.1, 1.0 / 3.0, 120.5, 361.5, True, 2.5e-7),
            VariogramModel("a", 0.0, 0.2, 1e-3, 3e-3, False, 0.0),
        ]
        path = tmp_path / "variogram.csv"
        sbio.write_variogram_models(path, models)
        assert sbio.read_variogram_models(path) == {m.code: m for m in models}

    def test_statistics_round_trip(self, tmp_path):
        from spatialboot.moran import MoranResult
        from spatialboot.nb2 import SEED_SCHEME, BootstrapResult

        def result(code, variant, statistic):
            return BootstrapResult(code, variant, statistic, (), 10, 5, 0, SEED_SCHEME)

        sbio.write_nb2_results(tmp_path / "nb2.csv", [
            result("a", "ttest", 1.0 / 7.0), result("a", "odds", -0.25),
            result("b", "ttest", float("inf")),
        ])
        sbio.write_moran_results(tmp_path / "moran.csv", [
            MoranResult("a", 0.123456789, 10, "binary"), MoranResult("b", -1e-300, 10, "binary"),
        ])
        assert sbio.read_statistics(tmp_path) == {
            "nb2_t": {"a": 1.0 / 7.0, "b": float("inf")},
            "nb2_odds": {"a": -0.25},
            "moran": {"a": 0.123456789, "b": -1e-300},
        }

    def test_statistics_need_a_file_and_known_variants(self, tmp_path):
        with pytest.raises(IngestionError, match="no statistics files"):
            sbio.read_statistics(tmp_path)
        (tmp_path / "nb2.csv").write_text(
            "code,variant,statistic,n_effective,M,master_seed,flags\na,bogus,1.0,3,5,0,\n"
        )
        with pytest.raises(IngestionError, match="unknown variant"):
            sbio.read_statistics(tmp_path)
