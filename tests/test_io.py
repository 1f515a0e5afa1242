import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialboot import io as sbio
from spatialboot.errors import IngestionError
from spatialboot.fields import RateField
from spatialboot.graph import Region, RegionSet
from spatialboot.rates import AGE_GROUPS, GENDERS
from spatialboot.synth import grid_graph

from conftest import counts_from_mappings, polygon_regions


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
        # the optional column is named only for a file that has one
        with pytest.raises(IngestionError, match=r"expected header id,lat,lon,population "
                           r"\(optionally category\), got region,lat,lon,population"):
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

        g = queen_contiguity(polygons, polygon_regions(polygons))
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
        (tmp_path / "totals.csv").write_text("id,age_group,gender,total\n")
        with pytest.raises(IngestionError, match="row 2"):
            sbio._counts_from_rows(path, tmp_path / "totals.csv", graph.regions)

    def test_counts_bad_age(self, tmp_path, graph):
        path = tmp_path / "counts.csv"
        path.write_text("id,code,age_group,gender,cases\n00000,101,twelve,F,3\n")
        (tmp_path / "totals.csv").write_text("id,age_group,gender,total\n")
        with pytest.raises(IngestionError, match="integer"):
            sbio._counts_from_rows(path, tmp_path / "totals.csv", graph.regions)

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
        ("00000,101,20,F,3\n", "age_group must be in 1..19, got 20", 2),
        ("00000,101,1,F,3\n00001,101,2,X,3\n", "gender must be 'F' or 'M', got 'X'", 3),
        ("00000,,1,F,3\n", "empty code", 2),
        ("00000,101,1,F,3\n00001, ,2,M,3\n", "empty code", 3),
        ("00000,101,1,F,99999999999999999999\n",
         "cases 99999999999999999999 above the largest count 9223372036854775807", 2),
    ])
    def test_counts_row_errors(self, tmp_path, graph, body, message, row):
        path, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        path.write_text(self.COUNTS_HEAD + body)
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n")
        for read in (sbio._counts_from_rows, sbio.build_stratified_counts):
            with pytest.raises(IngestionError) as exc:
                read(path, tpath, graph.regions)
            assert (exc.value.row, str(exc.value)) == (row, f"{message} [{path}, row {row}]")

    @pytest.mark.parametrize("body, message, row", [
        ("00000,1,F\n", "expected 4 fields, got 3", 2),
        ("00000,1,F,10\n\nNOPE,1,F,10\n", "unknown region id 'NOPE'", 4),
        ("00000,one,F,10\n", "age_group: not an integer: 'one'", 2),
        ("00000,1,F,1e3\n", "total: not an integer: '1e3'", 2),
        ("00000,1,F,10\n00000,1,F,20\n", "duplicate totals row ('00000', 1, 'F')", 3),
        ("00000,1,F,10\n00001,3,M,-2\n", "negative total -2", 3),
        ("00000,0,F,10\n", "age_group must be in 1..19, got 0", 2),
        ("00000,1,F,10\n00000,1,m,10\n", "gender must be 'F' or 'M', got 'm'", 3),
        ("00000,1,F,10\n00001,1,F,9223372036854775808\n",
         "total 9223372036854775808 above the largest count 9223372036854775807", 3),
        ("00000,1,F,99999999999999999999\n",  # above 2**64: int64 would wrap to > 0
         "total 99999999999999999999 above the largest count 9223372036854775807", 2),
    ])
    def test_totals_row_errors(self, tmp_path, graph, body, message, row):
        path, cpath = tmp_path / "totals.csv", tmp_path / "counts.csv"
        path.write_text(self.TOTALS_HEAD + body)
        cpath.write_text(self.COUNTS_HEAD)
        for read in (sbio._counts_from_rows, sbio.build_stratified_counts):
            with pytest.raises(IngestionError) as exc:
                read(cpath, path, graph.regions)
            assert (exc.value.row, str(exc.value)) == (row, f"{message} [{path}, row {row}]")

    def test_plain_files_take_the_columnar_path(self, tmp_path, graph, monkeypatch):
        # a BOM, CRLF line ends and empty lines are real-file quirks, not
        # anomalies: the row readers, the fallback, must not run
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_bytes(("\ufeff" + self.COUNTS_HEAD + "00001,7,2,M,3\n00000,101,1,F,0\n"
                           "00000,101,19,M,+2\n\n").replace("\n", "\r\n").encode())
        tpath.write_bytes(("\ufeff" + self.TOTALS_HEAD + "00000,1,F,5\n\n00001,2,M,3\n"
                           "00000,19,M,2").replace("\n", "\r\n").encode())
        expected = sbio.build_stratified_counts(cpath, tpath, graph.regions)

        monkeypatch.setattr(sbio, "_read_stratum_rows", _row_reader)
        counts = sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert counts.cases == expected.cases == {
            ("00001", "7", 2, "M"): 3, ("00000", "101", 1, "F"): 0, ("00000", "101", 19, "M"): 2,
        }
        assert counts.totals == {("00000", 1, "F"): 5, ("00001", 2, "M"): 3, ("00000", 19, "M"): 2}
        assert counts.codes() == ("101", "7")
        sbio.write_counts(tmp_path / "written.csv", counts)
        assert (tmp_path / "written.csv").read_bytes() == (
            b"id,code,age_group,gender,cases\n"
            b"00000,101,1,F,0\n00000,101,19,M,2\n00001,7,2,M,3\n"
        )
        assert counts.observed_counts() == {"101": 1, "7": 1}

    def test_counts_and_totals_read_stripped_values(self, tmp_path, graph):
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + " 00001 , 7 , 2 , M , 3 \n\n00000,101,1,F,0\n")
        tpath.write_text(self.TOTALS_HEAD + "00000, 1 ,F , 5\n \n00001,2,M,3\n")
        counts = sbio._counts_from_rows(cpath, tpath, graph.regions)
        assert counts.cases == {("00001", "7", 2, "M"): 3, ("00000", "101", 1, "F"): 0}
        assert counts.totals == {("00000", 1, "F"): 5, ("00001", 2, "M"): 3}

    @pytest.mark.parametrize("header, message", [
        ("id,code,age,gender,cases", "expected header id,code,age_group,gender,cases, "
         "got id,code,age,gender,cases"),
        ("id,code,age_group,gender,cases,extra", "unexpected columns ['extra']"),
    ])
    def test_counts_header_errors(self, tmp_path, graph, header, message):
        path = tmp_path / "counts.csv"
        path.write_text(header + "\n00000,101,1,F,3\n")
        (tmp_path / "totals.csv").write_text(self.TOTALS_HEAD)
        with pytest.raises(IngestionError) as exc:
            sbio._counts_from_rows(path, tmp_path / "totals.csv", graph.regions)
        assert str(exc.value) == f"{message} [{path}, row 1]"

    def test_stratum_errors_name_the_counts_file(self, tmp_path, graph):
        # a bad stratum is reported by the reader of the file that holds it,
        # at its row
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n")
        for row, message in (
            ("00000,101,20,F,1", "age_group must be in 1..19, got 20"),
            ("00000,101,1,X,1", "gender must be 'F' or 'M', got 'X'"),
        ):
            cpath.write_text(self.COUNTS_HEAD + row + "\n")
            with pytest.raises(IngestionError) as exc:
                sbio.build_stratified_counts(cpath, tpath, graph.regions)
            assert str(exc.value) == f"{message} [{cpath}, row 2]"
        cpath.write_text(self.COUNTS_HEAD)
        tpath.write_text(self.TOTALS_HEAD + "00000,0,F,5\n")
        with pytest.raises(IngestionError) as exc:
            sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert str(exc.value) == f"age_group must be in 1..19, got 0 [{tpath}, row 2]"

    def test_empty_counts_ok(self, tmp_path, graph):
        cpath = tmp_path / "counts.csv"
        tpath = tmp_path / "totals.csv"
        cpath.write_text("id,code,age_group,gender,cases\n")
        tpath.write_text("id,age_group,gender,total\n00000,1,F,5\n")
        counts = sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert counts.codes() == ()


# ids and codes the csv writer must quote (a comma, a double quote, a line
# end) or must not (a leading space, non-ASCII text, an empty cell)
cell_text = st.text(alphabet=' a1,"\n\ré中', max_size=4)


@st.composite
def key_order_tables(draw):
    """A counts table with awkward ids and codes and counts up to int64 max,
    its entries in random order."""
    ids = draw(st.lists(cell_text, min_size=1, max_size=5, unique=True))
    codes = draw(st.lists(cell_text, max_size=3, unique=True))
    strata = st.sampled_from([(a, g) for a in AGE_GROUPS for g in GENDERS])
    counts = st.one_of(st.integers(0, 3), st.integers(0, np.iinfo(np.int64).max))
    totals, cases = {}, {}
    for rid in draw(st.permutations(ids)):
        for stratum in draw(st.lists(strata, max_size=3, unique=True)):
            total = totals[(rid, *stratum)] = draw(counts)
            for code in draw(st.permutations(codes)):
                if draw(st.booleans()):
                    cases[(rid, code, *stratum)] = draw(st.integers(0, total))
    return counts_from_mappings(cases, totals, region_ids=ids)


def _csv_bytes(header, entries) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows((*key, n) for key, n in sorted(entries.items()))
    return text.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(key_order_tables(), st.integers(1, 4))
def test_counts_writer_is_the_csv_writer_in_key_order(counts, block_rows):
    # the blocked writer formats each distinct cell once; its bytes must be
    # those of the csv writer over every row in key order, across blocks
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sbio, "_WRITE_ROWS", block_rows):
        cpath, tpath = Path(tmp, "counts.csv"), Path(tmp, "totals.csv")
        sbio.write_counts(cpath, counts)
        sbio.write_totals(tpath, counts)
        assert cpath.read_bytes() == _csv_bytes(sbio.COUNTS_HEADER, counts.cases)
        assert tpath.read_bytes() == _csv_bytes(sbio.TOTALS_HEADER, counts.totals)


@settings(max_examples=100, deadline=None)
@given(key_order_tables())
def test_observed_counts_are_the_regions_with_cases(counts):
    regions = {code: set() for code in counts.codes()}
    for (rid, code, *_), n in counts.cases.items():
        if n > 0:
            regions[code].add(rid)
    assert counts.observed_counts() == {code: len(ids) for code, ids in regions.items()}


def _row_reader(*args):
    raise AssertionError("row reader called on plain files")


class TestColumnarKernel:
    """The columnar reader's byte keys and field parsers against the row
    readers, on plain files that must not fall back to them."""

    COUNTS_HEAD = TestCountsFiles.COUNTS_HEAD
    TOTALS_HEAD = TestCountsFiles.TOTALS_HEAD

    def columnar(self, monkeypatch, cpath, tpath, regions, expected=None):
        """The columnar table, checked against ``expected`` (default: the row
        readers' table) with the row readers unable to run."""
        if expected is None:
            expected = sbio._counts_from_rows(cpath, tpath, regions)
        monkeypatch.setattr(sbio, "_read_stratum_rows", _row_reader)
        counts = sbio.build_stratified_counts(cpath, tpath, regions)
        assert counts.codes() == expected.codes()
        assert ([column.tolist() for column in (*counts.case_columns, *counts.total_columns)]
                == [column.tolist() for column in (*expected.case_columns,
                                                   *expected.total_columns)])
        return counts

    def test_codes_of_1_to_12_bytes(self, tmp_path, graph, monkeypatch):
        # one and two key words, a code of exactly 8 bytes (its separator
        # takes a second word), non-ASCII codes and raw texts that strip to
        # one code
        codes = ["abcdefghijkl"[:k] for k in range(1, 13)]
        codes += ["é", "éééééé", "ab" + "é" * 5, " abc", "abc ", " é "]
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + "".join(
            f"{graph.ids[i % 3]},{code},{1 + i // 3},F,{i % 4}\n" for i, code in enumerate(codes)),
            encoding="utf-8")
        tpath.write_text(self.TOTALS_HEAD + "".join(
            f"{rid},{age},F,9\n" for rid in graph.ids[:3] for age in range(1, 8)))
        counts = self.columnar(monkeypatch, cpath, tpath, graph.regions)
        assert counts.codes() == tuple(sorted({code.strip() for code in codes}))
        abc = {key: n for key, n in counts.cases.items() if key[1] == "abc"}
        assert abc == {(graph.ids[2], "abc", 1, "F"): 2, (graph.ids[0], "abc", 6, "F"): 3,
                       (graph.ids[1], "abc", 6, "F"): 0}  # "abc", " abc", "abc "

    def test_counts_of_18_and_19_digits(self, tmp_path, graph, monkeypatch):
        # every count text, of 18 or 19 digits, signed or of non-ASCII
        # digits, is parsed by int() once per distinct text, as the row
        # reader parses it
        big = "9" * 18
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + f"00000,a,1,F,{big}\n00001,a,1,F,{'0' * 18}7\n"
                         "00002,a,1,F,+3\n00003,a,1,F,٣\n")
        tpath.write_text(self.TOTALS_HEAD + f"00000,1,F,{big}\n00001,1,F,1{'0' * 18}\n"
                         f"00002,1,F,{sbio._MAX_COUNT}\n00003,1,F, 4\n")
        counts = self.columnar(monkeypatch, cpath, tpath, graph.regions)
        assert counts.cases == {("00000", "a", 1, "F"): int(big), ("00001", "a", 1, "F"): 7,
                                ("00002", "a", 1, "F"): 3, ("00003", "a", 1, "F"): 3}
        assert counts.totals == {("00000", 1, "F"): int(big), ("00001", 1, "F"): 10 ** 18,
                                 ("00002", 1, "F"): sbio._MAX_COUNT, ("00003", 1, "F"): 4}

    def test_every_stratum_plain_and_padded(self, tmp_path, graph, monkeypatch):
        # the stratum is parsed as one field, "age_group,gender": each of the
        # 38 strata with its age and gender plain and padded, in both files
        strata = [(age, gender) for age in AGE_GROUPS for gender in GENDERS]
        forms = [(a, g) for a in ("{}", " {}") for g in ("{}", "{} ")]
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + "".join(
            f"{graph.ids[k]},a,{a.format(age)},{g.format(gender)},{i % 5}\n"
            for k, (a, g) in enumerate(forms) for i, (age, gender) in enumerate(strata)))
        tpath.write_text(self.TOTALS_HEAD + "".join(
            f"{graph.ids[k]},{a.format(age)},{g.format(gender)},{9 + i}\n"
            for k, (a, g) in enumerate(reversed(forms)) for i, (age, gender) in enumerate(strata)))
        counts = self.columnar(monkeypatch, cpath, tpath, graph.regions)
        assert set(counts.totals) == {(rid, *stratum) for rid in graph.ids[:4] for stratum in strata}
        assert counts.cases[(graph.ids[3], "a", 19, "M")] == 37 % 5

    def test_fields_in_the_last_word_of_a_block(self, tmp_path, graph, monkeypatch):
        # the last line's gender starts 5 bytes before the block's end, so
        # its word runs into the padding; ",F" ends 9 bytes before it
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + "00000,a,1,F,1\n00001,F,1,M,10\n")
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n00001,1,M,10\n")
        counts = self.columnar(monkeypatch, cpath, tpath, graph.regions)
        assert counts.cases == {("00000", "a", 1, "F"): 1, ("00001", "F", 1, "M"): 10}

    def test_nul_bytes_are_not_padding(self, tmp_path, graph, monkeypatch):
        # keys are zero-padded, so a trailing NUL must not merge two texts
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_bytes((self.COUNTS_HEAD + "00000,a,1,F,1\n00000,a\0,1,F,2\n"
                           "00000,a\0\0,1,F,3\n00000,\0a,1,F,4\n").encode())
        tpath.write_text(self.TOTALS_HEAD + "00000,1,F,5\n")
        expected = counts_from_mappings(
            {("00000", code, 1, "F"): n
             for n, code in enumerate(["a", "a\0", "a\0\0", "\0a"], start=1)},
            {("00000", 1, "F"): 5}, graph.regions.ids)
        counts = self.columnar(monkeypatch, cpath, tpath, graph.regions, expected)
        assert counts.codes() == ("\0a", "a", "a\0", "a\0\0")

    def test_region_ids_longer_than_a_word(self, tmp_path, monkeypatch):
        # ids of 9 to 24 bytes are keyed by two to four words, and ids that
        # share their first 8 bytes stay apart
        ids = ["county-00001", "county-00002", "county-000010", "region-with-a-long-id-x",
               "region-with-a-long-id-y", "régionégale"]
        regions = RegionSet([Region(rid, 40.0, -100.0 + i, 10.0) for i, rid in enumerate(ids)])
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(self.COUNTS_HEAD + "".join(
            f"{rid},V70,{1 + i},M,{i}\n" for i, rid in enumerate(reversed(ids))), encoding="utf-8")
        tpath.write_text(self.TOTALS_HEAD + "".join(
            f"{rid},{age},M,9\n" for rid in ids for age in range(1, 7)), encoding="utf-8")
        counts = self.columnar(monkeypatch, cpath, tpath, regions)
        assert counts.case_columns[0].tolist() == [5, 4, 3, 2, 1, 0]
        assert counts.cases[("region-with-a-long-id-x", "V70", 3, "M")] == 2


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


class TestRowErrors:
    """A bad value is reported at its file and row by every reader."""

    STDPOP_HEAD = "age_group,gender,population\n"

    @pytest.mark.parametrize("reader, body, message, row", [
        ("stdpop", "1,F,10\n0,M,50\n", "age_group must be in 1..19, got 0", 3),
        ("stdpop", "1,X,10\n", "gender must be 'F' or 'M', got 'X'", 2),
        ("stdpop", "1,F,10\n1,M,nan\n", "population: non-finite value 'nan'", 3),
        ("stdpop", "1,F,inf\n", "population: non-finite value 'inf'", 2),
        ("stdpop", "1,F,10\n2,F,-5\n", "negative population -5", 3),
        ("regions", "A,40.0,-100.0,5\nB,41.0,-100.0,nan\n",
         "population: non-finite value 'nan'", 3),
        ("regions", "A,40.0,-100.0,-inf\n", "population: non-finite value '-inf'", 2),
        ("fields", "A,c,0.5\nB,c,nan\n", "log_rate: non-finite value 'nan'", 3),
        ("fields", "A,c,Infinity\n", "log_rate: non-finite value 'Infinity'", 2),
        ("fields", "A,c,0.5\nB,,0.5\n", "empty code", 3),
        ("fields", "A, ,0.5\n", "empty code", 2),
    ])
    def test_row_errors(self, tmp_path, reader, body, message, row):
        path = tmp_path / f"{reader}.csv"
        head, read = {
            "stdpop": (self.STDPOP_HEAD, sbio.read_standard_population),
            "regions": ("id,lat,lon,population\n", sbio.read_regions),
            "fields": ("id,code,log_rate\n", sbio.read_fields),
        }[reader]
        path.write_text(head + body)
        with pytest.raises(IngestionError) as exc:
            read(path)
        assert (exc.value.row, str(exc.value)) == (row, f"{message} [{path}, row {row}]")

    EXCEEDED = {  # the message of each case below, by its offending counts row
        "00000,101,1,F,10": "cases 10 exceed total 5 for region '00000' code '101' "
                            "stratum (1, 'F')",
        " 00000 , 202 , 1 , F , 6 ": "cases 6 exceed total 5 for region '00000' code '202' "
                                     "stratum (1, 'F')",
        "00000,101,2,M,1": "cases 1 exceed total 0 for region '00000' code '101' "
                           "stratum (2, 'M')",
    }

    @pytest.mark.parametrize("counts, row", [
        ("00000,101,1,F,10\n", 2),
        ("00000,101,1,F,5\n00001,101,1,F,3\n 00000 , 202 , 1 , F , 6 \n", 4),
        ("00000,101,1,F,1\n\n00000,101,2,M,1\n", 4),
    ])
    def test_cases_exceeding_total_at_row(self, tmp_path, graph, counts, row):
        cpath, tpath = tmp_path / "counts.csv", tmp_path / "totals.csv"
        cpath.write_text(TestCountsFiles.COUNTS_HEAD + counts)
        tpath.write_text(TestCountsFiles.TOTALS_HEAD + "00000,1,F,5\n00001,1,F,5\n")
        with pytest.raises(IngestionError, match="exceed total") as exc:
            sbio.build_stratified_counts(cpath, tpath, graph.regions)
        assert exc.value.row == row
        message = self.EXCEEDED[counts.splitlines()[row - 2]]
        assert str(exc.value) == f"{message} [{cpath}, row {row}]"

    def test_infinite_statistic_still_read(self, tmp_path):
        (tmp_path / "nb2.csv").write_text(
            "code,variant,statistic,n_effective,M,master_seed,flags\n"
            "a,ttest,-inf,3,5,0,\nb,ttest,nan,3,5,0,\n"
        )
        with pytest.raises(IngestionError) as exc:
            sbio.read_statistics(tmp_path)
        assert exc.value.row == 3 and "non-finite" in str(exc.value)


class TestCodeMetadata:
    def test_read(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("code,name,category\n101,Alpha,Group A\n102,Beta,\n")
        names, categories = sbio.read_code_metadata(path)
        assert names == {"101": "Alpha", "102": "Beta"}
        assert categories == {"101": "Group A"}

    def test_written_metadata_reads_back(self, tmp_path):
        # run writes code_meta.csv and ranks with what it reads back, so
        # every name and category must survive the round trip
        names = {"comma": "Alpha, Beta", "quote": 'the "best" code', "newline": "two\nlines",
                 "accent": "Ménière's disease", "empty": ""}
        categories = {"comma": "a,b", "empty": "Group É", "category_only": "solo"}
        path = tmp_path / "code_meta.csv"
        sbio.write_code_metadata(path, names, categories)
        read_names, read_categories = sbio.read_code_metadata(path)
        assert read_categories == categories
        assert read_names == {code: names.get(code, "") for code in (*names, *categories)}

    def test_metadata_is_written_as_utf8_in_any_locale(self, tmp_path):
        # the readers decode UTF-8 whatever the locale, so the writers must
        # encode it too: an ASCII locale cannot encode a non-ASCII name
        import os
        import subprocess
        import sys

        import spatialboot

        path = tmp_path / "code_meta.csv"
        code = ("from spatialboot import io; "
                f"io.write_code_metadata({str(path)!r}, {{'c1': 'M\\u00e9ni\\u00e8re'}}, {{}})")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(spatialboot.__file__))}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        assert sbio.read_code_metadata(path) == ({"c1": "Ménière"}, {})


class TestResultFiles:
    def test_cell_format(self, tmp_path):
        # the csv module's formatting, which every output file and its recorded digest rely on
        path = tmp_path / "cells.csv"
        sbio._write(path, ["h"], [(
            0.1, 1e16, 1e-05, -0.0, float("inf"), float("nan"), 2.5e-310, None, 3, True, "a,b",
        )])
        assert path.read_bytes() == b'h\n0.1,1e+16,1e-05,-0.0,inf,nan,2.5e-310,,3,True,"a,b"\n'

    def test_variogram_models_round_trip(self, tmp_path):
        from spatialboot.variogram import VariogramModel

        models = [
            VariogramModel("b", 0.1, 1.0 / 3.0, 120.5, 361.5, True, 2.5e-7),
            VariogramModel("a", 0.0, 0.2, 1e-3, 3e-3, False, 0.0),
        ]
        path = tmp_path / "variogram.csv"
        sbio.write_variogram_models(path, models)
        assert sbio.read_variogram_models(path) == {m.code: m for m in models}

    def test_ranking_table_empty_cells(self, tmp_path):
        from spatialboot.ranking import rank
        from spatialboot.variogram import VariogramModel

        table = rank(
            {"nb2_t": {"a": 2.0, "b": 1.0}, "moran": {"a": 0.5, "b": 0.5, "c": -1.0}},
            variograms={"a": VariogramModel("a", 0.1, 1.0 / 3.0, 120.5, 361.5, True, 0.0)},
            names={"a": "Alpha"},
        )
        path = tmp_path / "ranking.csv"
        sbio.write_ranking_table(path, table)
        assert path.read_bytes() == (
            b"code,name,rank_nb2_t,rank_nb2_odds,rank_moran,range_km,sill\n"
            b"a,Alpha,1.0,,1.5,361.5,0.3333333333333333\n"
            b"b,,2.0,,1.5,,\n"
            b"c,,,,3.0,,\n"
        )

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
        sbio.write_moran_results(tmp_path / "moran.csv", [])
        with pytest.raises(IngestionError) as exc:
            sbio.read_statistics(tmp_path)
        assert str(exc.value) == f"statistics files in {tmp_path} hold no rows: moran.csv"
        sbio.write_nb2_results(tmp_path / "nb2.csv", [])
        with pytest.raises(IngestionError, match="hold no rows: nb2.csv, moran.csv$"):
            sbio.read_statistics(tmp_path)
        (tmp_path / "nb2.csv").write_text(
            "code,variant,statistic,n_effective,M,master_seed,flags\na,bogus,1.0,3,5,0,\n"
        )
        with pytest.raises(IngestionError, match="unknown variant"):
            sbio.read_statistics(tmp_path)
