"""Hypothesis property tests: file round trips through the readers and
writers, NB2 shift invariance, Moran's I against its brute-force oracle and
the observed subgraph against a dict-filter oracle."""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spatialboot import io as sbio
from spatialboot.cli import main
from spatialboot.errors import IngestionError, InsufficientDataError
from spatialboot.fields import RateField
from spatialboot.graph import NeighborGraph, Region, RegionSet, observed_subgraph
from spatialboot.moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from spatialboot.nb2 import COMPARATORS, BootstrapConfig, nb2
from spatialboot.rates import AGE_GROUPS, GENDERS
from spatialboot.synth import grid_graph

from conftest import counts_from_mappings
from test_moran import naive_morans_i

# ids and codes as the readers give them back: no surrounding whitespace,
# but commas, quotes and inner spaces that the csv module must quote
names = st.text(alphabet='abcXYZ019,"- _.', min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)


@st.composite
def stratified_counts(draw, region_ids):
    strata = [(a, g) for a in AGE_GROUPS for g in GENDERS]
    codes = draw(st.lists(names, min_size=0, max_size=3, unique=True))
    totals, cases = {}, {}
    for rid in region_ids:
        for stratum in draw(st.lists(st.sampled_from(strata), max_size=4, unique=True)):
            total = draw(st.integers(0, 500))
            totals[(rid, *stratum)] = total
            for code in codes:
                if draw(st.booleans()):
                    cases[(rid, code, *stratum)] = draw(st.integers(0, total))
    return counts_from_mappings(cases, totals)


GRID = grid_graph(2, 3)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=40, deadline=None)
@given(stratified_counts(GRID.ids), st.randoms(use_true_random=False))
def test_ingested_counts_read_back_equal(counts, random):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sbio.write_regions(tmp / "regions.csv", GRID.regions)
        sbio.write_edges(tmp / "edges.csv", GRID)
        case_rows = [(*key, n) for key, n in counts.cases.items()]
        total_rows = [(*key, n) for key, n in counts.totals.items()]
        random.shuffle(case_rows)
        random.shuffle(total_rows)
        _write_rows(tmp / "counts.csv", sbio.COUNTS_HEADER, case_rows)
        _write_rows(tmp / "totals.csv", sbio.TOTALS_HEADER, total_rows)
        _write_rows(tmp / "stdpop.csv", sbio.STDPOP_HEADER, [(1, "F", 10.0)])
        bundle = tmp / "bundle"
        assert main([
            "ingest", "--regions", str(tmp / "regions.csv"), "--edges", str(tmp / "edges.csv"),
            "--counts", str(tmp / "counts.csv"), "--totals", str(tmp / "totals.csv"),
            "--stdpop", str(tmp / "stdpop.csv"), "--out", str(bundle),
        ]) == 0
        back = sbio.build_stratified_counts(
            bundle / "counts.csv", bundle / "totals.csv", GRID.regions
        )
    assert back == counts
    assert back.codes() == counts.codes()


@st.composite
def rate_fields(draw):
    ids = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    codes = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return [
        RateField(code, {rid: draw(values) for rid in draw(st.lists(
            st.sampled_from(ids), min_size=1, unique=True))})
        for code in codes
    ]


@settings(max_examples=100, deadline=None)
@given(rate_fields())
def test_fields_write_read_round_trip(fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.csv"
        sbio.write_fields(path, fields)
        back = sbio.read_fields(path)
    assert [f.code for f in back] == sorted(f.code for f in fields)
    by_code = {f.code: f.values for f in fields}
    for field in back:
        assert field.values == by_code[field.code]


@st.composite
def connected_graphs(draw):
    """A path through every region plus random extra edges."""
    n = draw(st.integers(2, 15))
    ids = [f"r{i}" for i in range(n)]
    adjacency = {rid: set() for rid in ids}
    pairs = [(i, i + 1) for i in range(n - 1)]
    region = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(region, region), max_size=2 * n))
    for i, j in pairs:
        if i != j:
            adjacency[ids[i]].add(ids[j])
            adjacency[ids[j]].add(ids[i])
    regions = RegionSet(Region(id=rid, lat=0.1 * i, lon=0.2 * i) for i, rid in enumerate(ids))
    return NeighborGraph(regions, adjacency)


@st.composite
def cycle_graphs(draw):
    """Disjoint cycles over a random order of the regions: every degree is
    2, so a neighbour mean divides by 2 and stays exact."""
    lengths = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3))
    order = draw(st.permutations([f"r{i}" for i in range(sum(lengths))]))
    adjacency = {rid: [] for rid in order}
    start = 0
    for length in lengths:
        cycle = order[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            adjacency[a].append(b)
            adjacency[b].append(a)
        start += length
    regions = RegionSet(Region(id=rid, lat=0.0, lon=0.1 * i) for i, rid in enumerate(order))
    return NeighborGraph(regions, adjacency)


@settings(max_examples=60, deadline=None)
@given(
    cycle_graphs(),
    st.data(),
    st.integers(-1000, 1000),
    st.sampled_from(COMPARATORS),
    st.integers(0, 2**32 - 1),
)
def test_nb2_invariant_to_shifting_the_field(graph, data, shift, comparator, seed):
    # integer values and shifts on a 2-regular graph keep every estimate
    # and difference exact, so both statistics must be equal, not just close
    values = data.draw(st.lists(st.integers(-50, 50), min_size=graph.n, max_size=graph.n))
    field = RateField("c", {rid: float(v) for rid, v in zip(graph.ids, values)})
    config = BootstrapConfig(repetitions=7, master_seed=seed, comparator=comparator)
    with np.errstate(all="ignore"):
        base = nb2(field, graph, config)
        shifted = nb2(field.shifted(float(shift)), graph, config)
    for variant in base:
        np.testing.assert_array_equal(
            shifted[variant].per_repetition, base[variant].per_repetition
        )
        np.testing.assert_array_equal(shifted[variant].statistic, base[variant].statistic)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data(), st.sampled_from([SCHEME_BINARY, SCHEME_ROW]))
def test_morans_i_matches_brute_force_oracle(graph, data, scheme):
    values = data.draw(st.lists(
        st.integers(-800, 800).map(lambda v: v / 8.0), min_size=graph.n, max_size=graph.n
    ).filter(lambda vs: len(set(vs)) > 1))
    field = RateField("c", dict(zip(graph.ids, values)))
    got = morans_i(field, graph, scheme=scheme).i
    assert got == pytest.approx(naive_morans_i(field.values, graph, scheme), abs=1e-9)


@st.composite
def graphs_with_fields(draw):
    """A random graph whose region order differs from id order (r10 sorts
    before r2), its input mapping, and a field over a random subset of the
    regions plus, sometimes, an id the graph does not know."""
    n = draw(st.integers(1, 14))
    order = draw(st.permutations([f"r{i}" for i in range(n)]))
    mapping = {rid: set() for rid in order}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        if i != j:
            mapping[order[i]].add(order[j])
            mapping[order[j]].add(order[i])
    regions = RegionSet(Region(id=rid, lat=0.0, lon=0.1 * i) for i, rid in enumerate(order))
    observed = draw(st.lists(st.sampled_from(order), unique=True))
    if draw(st.booleans()):
        observed.append("unknown")
    field = RateField("c", {rid: float(k) for k, rid in enumerate(observed)})
    return NeighborGraph(regions, mapping), mapping, field


def subgraph_oracle(ids, mapping, field, min_observed):
    """The dict filter: (ids, offsets, flat_neighbors) of the observed
    subgraph, or the message of its InsufficientDataError."""
    observed = [rid for rid in ids if rid in field.values]
    if len(observed) < min_observed:
        return (f"code {field.code!r}: only {len(observed)} observed regions "
                f"(minimum {min_observed})")
    obs = set(observed)
    filtered = {rid: sorted(nb for nb in mapping[rid] if nb in obs) for rid in observed}
    keep = [rid for rid in observed if filtered[rid]]
    if len(keep) < min_observed:
        return (f"code {field.code!r}: only {len(keep)} observed regions with an "
                f"observed neighbor (minimum {min_observed})")
    position = {rid: i for i, rid in enumerate(keep)}
    offsets = [0]
    flat = []
    for rid in keep:
        flat.extend(position[nb] for nb in filtered[rid])
        offsets.append(len(flat))
    return tuple(keep), offsets, flat


def scipy_component_count(graph) -> int:
    """The oracle for NeighborGraph.component_count."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = csr_matrix((np.ones(graph.flat_neighbors.size), graph.flat_neighbors,
                            graph.offsets), shape=(graph.n, graph.n))
    return connected_components(adjacency, directed=False, return_labels=False)


@settings(max_examples=200, deadline=None)
@given(graphs_with_fields(), st.integers(0, 15))
def test_observed_subgraph_matches_dict_filter(case, min_observed):
    graph, mapping, field = case
    # the graphs have isolates and several components
    assert graph.component_count() == scipy_component_count(graph)
    expected = subgraph_oracle(graph.ids, mapping, field, min_observed)
    if isinstance(expected, str):
        with pytest.raises(InsufficientDataError) as info:
            observed_subgraph(graph, field, min_observed=min_observed)
        assert str(info.value) == expected
        return
    sub = observed_subgraph(graph, field, min_observed=min_observed)
    ids, offsets, flat = expected
    assert sub.ids == ids
    assert sub.offsets.tolist() == offsets
    assert sub.flat_neighbors.tolist() == flat
    assert sub.degrees.tolist() == np.diff(offsets).tolist()
    assert [r.id for r in sub.regions] == list(ids)
    assert sub.component_count() == scipy_component_count(sub)


# ---------------------------------------------------------------------------
# The columnar counts reader against the row readers

# the first two are not int(); 18 digits are the most parsed in numpy, 19 fit
# int64 through int(), 20 do not
NUMBER_TEXTS = ["x", "3.5", " 7 ", "+7", "07", "1_0", "9" * 18, "1" + "0" * 18, "9" * 20]


ANOMALIES = [
    "blank", "width", "unknown id", "number", "duplicate", "duplicate 01", "negative",
    "bad stratum", "above total", "empty code", "quoted", "lone CR", "shifted field",
]


@st.composite
def counts_files(draw, name, kind):
    """Small counts and totals texts over GRID: a clean pair, and the same pair
    with the anomaly ``kind`` in file ``name``, and perhaps one more drawn from
    every class the readers meet.  Both have the same BOM and line ends."""
    ids = list(GRID.ids)
    stratum = st.tuples(st.sampled_from([1, 2, 19]), st.sampled_from(GENDERS))
    totals = {(rid, *s): draw(st.integers(0, 9))
              for rid in draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
              for s in draw(st.lists(stratum, max_size=3, unique=True))}
    keys = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(["a", "b2"]), stratum),
                         max_size=8, unique=True))
    files = {
        "totals": [[rid, str(age), g, str(n)] for (rid, age, g), n in totals.items()],
        "counts": [[rid, code, str(age), g, str(draw(st.integers(0, totals.get((rid, age, g), 0))))]
                   for rid, code, (age, g) in keys],
    }
    ends = {name: ["\n"] * len(rows) for name, rows in files.items()}
    crlf, bom = draw(st.booleans()), draw(st.booleans())
    last_end = draw(st.sampled_from(["\n", "", "\n\n"]))  # none, or an empty line after

    def texts():
        out = []
        for name, header in (("counts", sbio.COUNTS_HEADER), ("totals", sbio.TOTALS_HEADER)):
            lines = [",".join(header)] + [",".join(row) for row in files[name]]
            eols = ["\n"] + ends[name]
            if eols[-1] == "\n":
                eols[-1] = last_end
            out.append(("\ufeff" if bom else "") + "".join(
                line + (eol.replace("\n", "\r\n") if crlf else eol)
                for line, eol in zip(lines, eols)))
        return out

    clean = texts()
    anomaly = st.tuples(st.sampled_from(sorted(files)), st.sampled_from(ANOMALIES))
    anomalies = [(name, kind)] + draw(st.lists(anomaly, max_size=1))
    inserts = ("blank", "width", "unknown id")  # after the cell edits, which need full rows
    for name, kind in sorted(anomalies, key=lambda a: a[1] in inserts):
        rows = files[name]
        if not rows and kind not in inserts:
            continue
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        age = -3 if name == "counts" else -2  # the age_group column
        if kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  "]))])
            ends[name].insert(i, "\n")
        elif kind == "width":
            rows.insert(i, ["00000", "1", "F", "1", "1", "1"][:draw(st.sampled_from([3, 6]))])
            ends[name].insert(i, "\n")
        elif kind == "unknown id":
            rows.insert(i, ["zz", "a", "1", "F", "0"] if name == "counts" else ["zz", "1", "F", "0"])
            ends[name].insert(i, "\n")
        elif kind == "number":
            rows[i][draw(st.sampled_from([age, -1]))] = draw(st.sampled_from(NUMBER_TEXTS))
        elif kind.startswith("duplicate"):
            rows.append(list(rows[i]))
            ends[name].append("\n")
            if kind == "duplicate 01":
                rows[-1][age] = "0" + rows[-1][age]
        elif kind == "negative":
            rows[i][-1] = "-1"
        elif kind == "bad stratum":
            rows[i][draw(st.sampled_from([age, -2]))] = draw(st.sampled_from(["0", "20", "X", "f"]))
        elif kind == "above total":
            rows[i][-1] = "10"
        elif kind == "empty code" and name == "counts":
            rows[i][1] = draw(st.sampled_from(["", " "]))
        elif kind == "quoted":
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = '"' + rows[i][j] + draw(st.sampled_from(["", ",a"])) + '"'
        elif kind == "lone CR":  # a row or a cell ended by a CR
            if draw(st.booleans()):
                ends[name][i] = "\r"
            else:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] += "\r"
        elif kind == "shifted field" and i > 0:  # a long row then a short one
            rows[i - 1].append(rows[i].pop(0))
    return clean, texts()


def _counts_outcome(read, cpath, tpath):
    """A reader's StratifiedCounts as plain values, or its error and row."""
    try:
        counts = read(cpath, tpath, GRID.regions)
    except IngestionError as exc:
        return str(exc), exc.row
    return (counts.codes(), counts.region_ids,
            [column.tolist() for column in (*counts.case_columns, *counts.total_columns)],
            {code: [a.tolist() for a in arrays] for code, arrays in counts.code_columns.items()},
            counts.total_matrix.tolist(), counts.cases, counts.totals)


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in ("counts", "totals") for kind in ANOMALIES
    if (name, kind) != ("totals", "empty code")
])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_columnar_counts_reader_matches_row_readers(name, kind, data):
    files = data.draw(counts_files(name, kind))
    block = data.draw(st.sampled_from([sbio._BLOCK_BYTES, 1, 9, 40]))  # lines span blocks
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sbio, "_BLOCK_BYTES", block):
        cpath, tpath = Path(tmp) / "counts.csv", Path(tmp) / "totals.csv"
        for texts, reader in zip(files, (sbio._counts_from_columns, sbio.build_stratified_counts)):
            # the clean pair (BOM, CRLF, an empty or no last line) stays on the
            # columnar path
            cpath.write_bytes(texts[0].encode())
            tpath.write_bytes(texts[1].encode())
            expected = _counts_outcome(sbio._counts_from_rows, cpath, tpath)
            assert _counts_outcome(reader, cpath, tpath) == expected
